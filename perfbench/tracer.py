"""Span tracer that wraps treesynth's layer boundaries from the outside.

Each wrapped function is replaced at the module attribute its caller looks
up (for example ``treesynth.explore.compose``), so no file of the program
changes.  A wrapper opens a span, calls the original, closes the span and
then feeds what the call took and returned to a counting hook.  Spans stay
in memory and are written out by the worker at the end of the run.

While ``active`` is false every wrapper calls straight through, so the
benchmark's own correctness checks add neither spans nor counts.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# Spans whose callees are wrapped too report a self time (``.self_s``);
# the others are leaves and report their time as ``.s``.
PARENT_SPANS = ("explore", "synth.approx", "cli.learn")
LEAF_SPANS = ("parse", "partition", "dataset.truth_tables", "odt.fit",
              "synth.lower", "aig.compose", "aig.and_count", "qor.search",
              "qor.final")
COUNTERS = ("explore.candidates", "explore.rejected_budget",
            "explore.accepted", "partition.calls", "partition.cells",
            "synth.approx.calls", "synth.lower.ands",
            "dataset.truth_tables.calls", "odt.fit.calls", "odt.fit.exhausted",
            "odt.expansions", "aig.compose.calls", "aig.compose.ands",
            "aig.and_count.calls", "qor.search.calls", "qor.search.vectors",
            "qor.final.calls")


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.fit_keys: set = set()
        self.searches: list = []
        self.missing: list[str] = []  # names a later version no longer has

    # -- wrapping -------------------------------------------------------

    def span(self, owner, attr: str, name: str, after=None, error=None):
        """Replace ``owner.attr`` with a wrapper that records span ``name``."""
        fn = self._lookup(owner, attr)
        if fn is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = [name, time.perf_counter(), None,
                      tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[2] = time.perf_counter()
                tracer.stack.pop()
                if error is not None:
                    error(args, exc)
                raise
            record[2] = time.perf_counter()
            tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def observe(self, owner, attr: str, after):
        """Replace ``owner.attr`` with a wrapper that only counts."""
        fn = self._lookup(owner, attr)
        if fn is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def _lookup(self, owner, attr: str):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        return fn

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- results --------------------------------------------------------

    def self_times(self, since: float) -> dict[str, float]:
        """Per-span-name self time of the spans opened at or after ``since``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if start >= since:
                totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def metrics(self, origin: float) -> dict:
        """Per-layer metrics, plus ``self_sum_s``: the self times of the
        spans opened at or after ``origin`` (the start of the job list)."""
        times = self.self_times(float("-inf"))
        metrics = {f"{name}.self_s": times.get(name, 0.0)
                   for name in PARENT_SPANS}
        metrics.update({f"{name}.s": times.get(name, 0.0)
                        for name in LEAF_SPANS})
        count = self.counters
        metrics.update({key: count[key] for key in COUNTERS})
        metrics["odt.fit.distinct"] = len(self.fit_keys)
        metrics["odt.fit.reuse"] = (len(self.fit_keys) / count["odt.fit.calls"]
                                    if count["odt.fit.calls"] else 0.0)
        metrics["explore.accept_ratio"] = (
            count["explore.accepted"] / count["explore.candidates"]
            if count["explore.candidates"] else 0.0)
        metrics["self_sum_s"] = sum(self.self_times(origin).values())
        return metrics

    def write(self, path, origin: float) -> None:
        """One JSON line per span; times are seconds from ``origin``."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start": start - origin, "end": end - origin}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the ``treesynth`` package."""
    # importlib, because the package re-binds ``treesynth.explore`` and
    # ``treesynth.partition`` to the functions of the same name
    aiger, cli, dataset, explore, odt, synth = (
        importlib.import_module(f"treesynth.{name}") for name in
        ("aiger", "cli", "dataset", "explore", "odt", "synth"))
    count = tracer.counters

    def fitted(args, tree):
        data, budget = args[0], args[1]
        count["odt.fit.calls"] += 1
        tracer.fit_keys.add((data, budget.max_depth))
        count["odt.expansions"] += sum(
            getattr(s, "expansions", 0) for s in tracer.searches)
        tracer.searches.clear()

    def fit_failed(args, exc):
        if isinstance(exc, odt.SearchExhausted):
            count["odt.fit.exhausted"] += 1
        fitted(args, None)

    search_cls = getattr(odt, "_Search", None)
    if isinstance(search_cls, type):
        class RecordingSearch(search_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if tracer.active:
                    tracer.searches.append(self)
        odt._Search = RecordingSearch

    def ands_into(key):
        def after(args, circuit):
            count[key] += len(circuit.ands)
        return after

    def calls(key):
        def after(args, result):
            count[key] += 1
        return after

    def partitioned(args, parts):
        count["partition.calls"] += 1
        count["partition.cells"] += len(parts)

    def composed(args, circuit):
        count["aig.compose.calls"] += 1
        count["aig.compose.ands"] += len(circuit.ands)

    def searched(args, error):
        count["qor.search.calls"] += 1
        count["explore.candidates"] += 1
        if error > args[0].config.error_threshold:
            count["explore.rejected_budget"] += 1

    def vectors(args, report):
        if tracer.current() == "qor.search":
            count["qor.search.vectors"] += report.samples

    def explored(args, result):
        count["explore.accepted"] += len(result.trace)

    tracer.span(aiger, "parse_aiger", "parse")
    tracer.span(dataset, "load_pla_triple", "parse")
    tracer.span(cli, "load_pla_triple", "parse")
    tracer.span(cli, "main", "cli.learn")
    tracer.span(explore, "explore", "explore", explored)
    tracer.span(explore, "partition", "partition", partitioned)
    tracer.span(explore, "approx_sub_circuit", "synth.approx",
                calls("synth.approx.calls"))
    tracer.span(explore, "compose", "aig.compose", composed)
    tracer.span(explore._Explorer, "search_qor", "qor.search", searched)
    tracer.span(explore, "_final_measure", "qor.final",
                calls("qor.final.calls"))
    for attr in ("qor_exhaustive", "qor_on_words", "qor_monte_carlo"):
        tracer.observe(explore, attr, vectors)
    for module in (explore, cli):
        tracer.span(module, "and_count", "aig.and_count",
                    calls("aig.and_count.calls"))
    for module in (synth, cli):
        tracer.span(module, "fit_optimal", "odt.fit", fitted, fit_failed)
    tracer.span(synth, "truth_tables", "dataset.truth_tables",
                calls("dataset.truth_tables.calls"))
    tracer.span(synth, "trees_to_aig", "synth.lower",
                ands_into("synth.lower.ands"))
    tracer.span(cli, "tree_to_aig", "synth.lower",
                ands_into("synth.lower.ands"))
