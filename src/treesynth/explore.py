"""Greedy beam search over per-cell depth budgets.

Each beam state carries the per-cell depth vector plus the substitutions
applied so far.  Every iteration scores the substitution of each eligible
cell by loss = (area' - original_area) / error', keeps the best successor
states inside the error budget, then lowers the substituted cell's depth
budget and regenerates its approximation.

A tree search that runs out of its node or time limit leaves the best tree
it found for that cell; the run goes on with it and reports
``budget_exceeded``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .aig import Aig, AigError, and_count, cleanup, compose
from .partition import PartitionConfig, SubCircuit, partition
from .qor import (EXHAUSTIVE_INPUT_CAP, QorReport, qor_exhaustive,
                  qor_monte_carlo, qor_on_words, sample_input_words)
from .synth import ApproxSubCircuit, approx_sub_circuit


@dataclass(frozen=True)
class ExplorationConfig:
    error_threshold: float = 0.05
    initial_max_depth: int = 9
    step: int = 1
    beam_width: int = 3
    qor_samples: int = 10_000
    seed: int = 0
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    node_limit: int | None = None
    time_limit: float | None = None
    jobs: int = 1  # accepted and ignored: every fit runs in this thread

    def __post_init__(self):
        if not 0.0 <= self.error_threshold <= 1.0:
            raise AigError("error_threshold must be within [0, 1]")
        if self.initial_max_depth < 1:
            raise AigError("initial_max_depth must be >= 1")
        if self.step < 1:
            raise AigError("step must be >= 1")
        if self.beam_width < 1:
            raise AigError("beam_width must be >= 1")
        if self.qor_samples < 1:
            raise AigError("qor_samples must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    stream: int
    part: int
    md: int
    loss: float
    area: int
    qor: float

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "stream": self.stream,
            "part": self.part,
            "md": self.md,
            "loss": None if math.isinf(self.loss) else self.loss,
            "area": self.area,
            "qor": self.qor,
        }


@dataclass(frozen=True)
class ExplorationResult:
    circuit: Aig
    trace: tuple[TraceRecord, ...]
    final_qor: QorReport
    original_area: int
    final_area: int
    substitutions: tuple[tuple[int, int], ...]  # (part id, requested depth)
    budget_exceeded: bool = False  # some tree was not proven optimal


def loss(candidate_area: int, original_area: int, candidate_qor: float) -> float:
    """Area-vs-error trade-off score; smaller is better.

    A zero-error candidate is a free win when it shrinks the circuit
    (negative infinity) and is never chosen otherwise (positive infinity).
    """
    if candidate_area < 0 or original_area < 0 or candidate_qor < 0:
        raise AigError("loss arguments must be non-negative")
    if candidate_qor == 0.0:
        return -math.inf if candidate_area < original_area else math.inf
    return (candidate_area - original_area) / candidate_qor


def _final_measure(original: Aig, approx: Aig, config: ExplorationConfig) -> QorReport:
    if original.num_inputs <= EXHAUSTIVE_INPUT_CAP:
        return qor_exhaustive(original, approx)
    return qor_monte_carlo(original, approx, config.qor_samples,
                           config.seed + 1)


class _Explorer:
    def __init__(self, circuit: Aig, config: ExplorationConfig):
        self.original = cleanup(circuit)
        self.config = config
        self.parts = partition(self.original, config.partition)
        self.original_area = and_count(self.original)
        self.cache: dict[tuple[int, int], ApproxSubCircuit] = {}
        if self.original.num_inputs <= config.partition.max_inputs:
            self.search_words, self.search_mask = None, 0
        else:
            self.search_words, self.search_mask = sample_input_words(
                self.original.num_inputs, config.qor_samples, config.seed)

    def approx(self, part: SubCircuit, md: int) -> ApproxSubCircuit:
        key = (part.id, md)
        hit = self.cache.get(key)
        if hit is None:
            hit = approx_sub_circuit(
                part.extracted, md,
                node_limit=self.config.node_limit,
                time_limit=self.config.time_limit,
                max_table_inputs=self.config.partition.max_inputs)
            self.cache[key] = hit
            if hit.md != md:
                # an exact result also answers the recorded (smaller) depth
                self.cache.setdefault((part.id, hit.md), hit)
        return hit

    def normalize_md(self, part: SubCircuit, md: int) -> int:
        """Advance a cell's depth budget past depths that can never be chosen.

        An exact replacement that does not shrink the cell has infinite
        loss; keeping the stream parked there would deadlock the search, so
        the budget steps down until the approximation is inexact, shrinks
        the cell, or the cell freezes.
        """
        cell_area = and_count(part.extracted)
        while md >= 1:
            if md == 1 and (part.id, 1) not in self.cache:
                return 1  # frozen: depth 1 is never regenerated
            sa = self.approx(part, md)
            if not sa.exact:
                return md
            if and_count(sa.circuit) < cell_area:
                return sa.md
            md = sa.md - self.config.step
        return md

    def compose_state(self, applied: tuple[int | None, ...]) -> Aig:
        replacements = {
            p.id: self.cache[(p.id, depth)].circuit
            for p, depth in zip(self.parts, applied) if depth is not None}
        if not replacements:
            return self.original
        return compose(self.original, self.parts, replacements)

    def search_qor(self, approx: Aig) -> float:
        if self.search_words is None:
            return qor_exhaustive(self.original, approx).error
        return qor_on_words(self.original, approx, self.search_words,
                            self.search_mask, self.config.qor_samples,
                            self.config.seed).error

    def run(self) -> ExplorationResult:
        config = self.config
        err = config.error_threshold

        # Algorithm setup: approximate every cell at the initial depth; the
        # depth stream starts from the realized depths.  A beam state is
        # (md_stream, applied): the per-cell depth budgets, and the requested
        # depth of each cell's active substitution (None if original).
        initial_md = tuple(self.normalize_md(part, config.initial_max_depth)
                           for part in self.parts)
        start = (initial_md, (None,) * len(self.parts))

        best_circuit = self.original
        best_area = self.original_area
        best_report = _final_measure(self.original, self.original, config)
        best_subs: tuple[tuple[int, int], ...] = ()
        trace: list[TraceRecord] = []

        beam = [start]
        seen = {start}
        iteration = 0
        while beam:
            iteration += 1
            candidates = []  # (loss, part id, stream idx, applied, ...)
            for stream_idx, (md_stream, state_applied) in enumerate(beam):
                for part, md, active in zip(self.parts, md_stream,
                                            state_applied):
                    if md < 1:
                        continue  # frozen cell
                    if active == md:
                        continue  # already substituted at this depth
                    if md == 1 and (part.id, 1) not in self.cache:
                        continue  # frozen: depth 1 is never regenerated
                    sa = self.approx(part, md)
                    applied = list(state_applied)
                    applied[part.id] = md
                    composed = self.compose_state(tuple(applied))
                    area = and_count(composed)
                    q = self.search_qor(composed)
                    if q > err:
                        continue
                    score = loss(area, self.original_area, q)
                    if math.isinf(score) and score > 0:
                        continue  # zero-gain exact substitution
                    candidates.append(
                        (score, part.id, stream_idx, tuple(applied),
                         composed, area, q))
            if not candidates:
                break
            candidates.sort(key=lambda c: (c[0], c[1], c[2]))

            next_beam = []
            for score, part_id, stream_idx, applied, composed, area, q in candidates:
                if len(next_beam) >= config.beam_width:
                    break
                md_stream = list(beam[stream_idx][0])
                used_md = md_stream[part_id]
                new_md = used_md - config.step
                if new_md >= 1:
                    new_md = self.normalize_md(self.parts[part_id], new_md)
                md_stream[part_id] = new_md
                state = (tuple(md_stream), applied)
                if state in seen:
                    continue
                seen.add(state)
                next_beam.append(state)
                trace.append(TraceRecord(
                    iteration=iteration, stream=len(next_beam) - 1,
                    part=part_id, md=used_md, loss=score, area=area, qor=q))
                if area < best_area:
                    report = _final_measure(self.original, composed, config)
                    if report.error <= err:
                        best_circuit = composed
                        best_area = area
                        best_report = report
                        best_subs = tuple(
                            (pid, d) for pid, d in enumerate(applied)
                            if d is not None)
            beam = next_beam

        return ExplorationResult(
            circuit=best_circuit, trace=tuple(trace), final_qor=best_report,
            original_area=self.original_area, final_area=best_area,
            substitutions=best_subs,
            budget_exceeded=not all(sa.proven for sa in self.cache.values()))


def explore(circuit: Aig, config: ExplorationConfig) -> ExplorationResult:
    """Greedy substitution under a global error budget.

    Returns the smallest-area circuit found whose independently re-measured
    error stays within the threshold; the original circuit when nothing
    better was found.
    """
    return _Explorer(circuit, config).run()


def replay(circuit: Aig, config: ExplorationConfig,
           substitutions) -> Aig:
    """Rebuild the composed circuit for a substitution list (trace replay)."""
    explorer = _Explorer(circuit, config)
    applied: list[int | None] = [None] * len(explorer.parts)
    for part_id, depth in substitutions:
        explorer.approx(explorer.parts[part_id], depth)
        applied[part_id] = depth
    return explorer.compose_state(tuple(applied))
