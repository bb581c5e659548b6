"""Greedy beam search over per-cell depth budgets.

A beam state is one tuple: the depth each cell's substitution was fitted
at, or None for a kept cell.  Every iteration scores the substitution of
each eligible cell at its depth budget by loss = (area' - original_area)
/ error' and keeps the best successor states inside the error budget.  A
cell's budget follows from its depth (``_Explorer.budget``): one step
below that depth, or below its trees' smallest realized depth when they
are exact (``_Explorer.below``); ``initial_max_depth`` for a kept cell.
It steps on past a depth whose approximation is exact but no smaller
than the cell, each area a node count.  A budget below 2 freezes the
cell.  A budget is below the depth it follows, so a state of iteration
t made t moves and only states of one iteration coincide.  An
approximation is cached only under the depth it was fitted at, which is
also the trace's ``md`` and the substitution's depth.

Every cell is fitted on its whole truth table, so ``max_inputs`` may not
exceed ``EXHAUSTIVE_INPUT_CAP``.  The final testbench is
``qor.reporting_testbench`` with ``qor_samples`` and seed + 1: the
circuit's truth table up to that cap, random vectors beyond.  Candidates
are scored on the search testbench: the final one when the circuit has at
most ``max_inputs`` inputs, else ``qor_samples`` vectors drawn with the
seed.  A new best is re-measured on the final testbench
(``_final_measure``).

A candidate is scored without composing it.  A run builds one base: the
original circuit on a structurally hashed builder, node ``n`` at literal
``2 * n`` (the original is cleaned, so inlining rebuilds it node for
node), and beside each node its word on the search vectors and its cone,
the set of AND nodes it reads as a bitset.  The base holds one beam
state, the original's at first; applying the next state drops the last
one's nodes and inlines the new state's replaced cells on the boundary
literals, and a later cell is inlined again only when a boundary literal
it reads changed.  A candidate is built on the state by the same rule.
Only the nodes a state or a candidate appends are simulated and given
cones.  A candidate's area is the popcount of the OR of its outputs'
cones.  Its error is the state's mismatched bits, minus those of the
outputs the candidate changes, plus theirs on the candidate's words.  The
candidate is then rolled back.  Structural hashing makes node identity
the same as term identity, so area and error equal those of the composed
candidate exactly; only a candidate that becomes the new best is
composed.

The base holds one state, which the next replaces, and one candidate at
a time.  That bounds the search's memory: (AND nodes of base + one state
+ one candidate) x (search vectors) bits, and as many times the AND node
count in cone bits.

A tree search that reaches its node limit leaves the best tree it found
for that cell; the run goes on with it and reports ``budget_exceeded``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

from .aig import (Aig, AigBuilder, AigError, and_count, check_int, cleanup,
                  compose, extend_words, lit, literal_words)
from .odt import SearchBudget
from .partition import PartitionConfig, SubCircuit, partition
from .qor import (EXHAUSTIVE_INPUT_CAP, QorReport, Testbench,
                  mismatched_bits, monte_carlo_testbench, reporting_testbench)
# perfbench's tracer wraps these here
from .qor import qor_exhaustive, qor_monte_carlo, qor_on_words  # noqa: F401
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
    jobs: int = 1  # accepted and ignored: every fit runs in this thread

    def __post_init__(self):
        for name, low in (("initial_max_depth", 1), ("step", 1),
                          ("beam_width", 1), ("qor_samples", 1), ("jobs", 1),
                          ("seed", 0)):  # seed: also where none is drawn
            check_int(name, getattr(self, name), low)
        if not (isinstance(self.error_threshold, (int, float))
                and 0.0 <= self.error_threshold <= 1.0):
            raise AigError("error_threshold must be a number within [0, 1]")
        if not isinstance(self.partition, PartitionConfig):
            raise AigError("partition must be a PartitionConfig")
        if self.partition.max_inputs > EXHAUSTIVE_INPUT_CAP:
            raise AigError(
                f"max_inputs {self.partition.max_inputs} exceeds the "
                f"exhaustive cap of {EXHAUSTIVE_INPUT_CAP}: every cell is "
                "fitted on its whole truth table")
        # the tree search's own limit checks (OdtError), before any search
        SearchBudget(self.initial_max_depth, self.node_limit)


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
        return {**asdict(self),
                "loss": None if math.isinf(self.loss) else self.loss}


@dataclass(frozen=True)
class ExplorationResult:
    circuit: Aig
    trace: tuple[TraceRecord, ...]
    final_qor: QorReport
    original_area: int
    final_area: int
    # (part id, depth its approximation was fitted at), as replay() takes
    substitutions: tuple[tuple[int, int], ...]
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


def _final_measure(testbench: Testbench, approx: Aig) -> QorReport:
    """The final re-measure: the reported error of ``approx`` on the final
    testbench, which ``_Explorer.__init__`` chooses.  A module function,
    because perfbench's ``qor.final`` span wraps it by this name."""
    return testbench.measure(approx)


class _Base:
    """The original circuit on a builder, holding one beam state on which
    each candidate is built and from which it is rolled back.

    The original is cleaned, so inlining it rebuilds it node for node:
    ``builder`` holds node ``n`` at literal ``2 * n``.  Beside each
    builder node, ``words`` holds its word on the search testbench and
    ``cones`` the AND nodes it reads, itself included, as a bitset whose
    bit ``i`` is node ``first_and + i``.  ``extend`` adds both for the
    nodes built since it last ran.

    ``apply`` replaces the one state it holds, the original's at first:
    it drops the last state's nodes, words and cones, inlines the new
    ``replacements``, and keeps the boundary literals ``lits`` they changed
    (node ``n`` is at ``lits.get(n, 2 * n)``), the output literals
    ``outputs``, their ``output_words`` and the bits ``mismatched`` in which
    those differ from the original's.  ``substitute`` appends a
    candidate's nodes and ``rollback`` drops them again.
    """

    def __init__(self, original: Aig, parts: list[SubCircuit],
                 bench: Testbench):
        self.parts = parts
        self.original_outputs = original.outputs
        self.bench = bench
        self.first_and = first_and = original.num_inputs + 1
        self.builder = AigBuilder(original.num_inputs)
        self.builder.inline(original, [lit(n) for n in range(1, first_and)])
        self.original_size = len(self.builder.ands)
        self.words = [0, *bench.words]
        self.cones = [0] * self.first_and
        self.extend()
        self.apply({})

    def extend(self) -> None:
        """Simulate the nodes built since the last call and add their
        cones."""
        ands, cones, first_and = self.builder.ands, self.cones, self.first_and
        extend_words(self.words, ands, first_and, self.bench.mask)
        bit = 1 << (len(cones) - first_and)
        for a, b in ands[len(cones) - first_and:]:
            cones.append(cones[a >> 1] | cones[b >> 1] | bit)
            bit <<= 1

    def _inline(self, replaced: dict[int, Aig]) -> dict[int, int]:
        """Inline each cell ``replaced`` maps a part id to, and re-inline
        every later cell that reads a boundary literal that changed, with
        the state's replacement, else its extracted body.  Returns the new
        literal of each boundary output node whose literal changed."""
        builder, lits = self.builder, self.lits
        changed: dict[int, int] = {}
        for part in self.parts[min(replaced, default=len(self.parts)):]:
            body = replaced.get(part.id)
            if body is None:
                if changed.keys().isdisjoint(part.boundary_inputs):
                    continue  # same inputs, so the same nodes as before
                body = self.replacements.get(part.id, part.extracted)
            inputs = [changed.get(src, lits.get(src, 2 * src))
                      for src in part.boundary_inputs]
            for node, out in zip(part.boundary_outputs,
                                 builder.inline(body, inputs)):
                if out != lits.get(node, 2 * node):
                    changed[node] = out
        return changed

    def _output_lits(self, changed: dict[int, int]) -> list[int]:
        """The state's output literals, with the boundary literals in
        ``changed``; o & -2 is 2 * (o >> 1), a kept node's literal."""
        lits = self.lits
        return [changed.get(o >> 1, lits.get(o >> 1, o & -2)) ^ (o & 1)
                for o in self.original_outputs]

    def _truncate(self, size: int) -> None:
        """Drop the nodes built after the first ``size``, with their words
        and cones."""
        self.builder.rollback(size)
        del self.words[self.first_and + size:]
        del self.cones[self.first_and + size:]

    def apply(self, replacements: dict[int, Aig]) -> None:
        """Make the state that replaces each cell ``replacements`` maps a
        part id to the one the base holds, in place of the last."""
        self._truncate(self.original_size)
        self.replacements, self.lits = replacements, {}  # the original's
        self.lits = self._inline(replacements)
        self.extend()
        self.state_size = len(self.builder.ands)
        self.outputs = self._output_lits({})
        self.output_words = literal_words(self.words, self.outputs,
                                          self.bench.mask)
        self.mismatched = mismatched_bits(self.bench.reference,
                                          self.output_words)

    def substitute(self, part_id: int, cell: Aig) -> tuple[int, list[int]]:
        """Build the candidate that replaces cell ``part_id`` of the state
        by ``cell``.

        Returns the candidate's area, which is the number of AND nodes its
        outputs' cones cover, and its output literals.
        """
        outputs = self._output_lits(self._inline({part_id: cell}))
        self.extend()
        cones = self.cones
        cone = 0
        for o in outputs:
            cone |= cones[o >> 1]
        return cone.bit_count(), outputs

    def error(self, outputs: list[int]) -> float:
        """Search error of the candidate with output literals ``outputs``:
        the state's mismatched bits, corrected on the outputs that
        changed."""
        bench = self.bench
        changed = [k for k, (new, old) in enumerate(zip(outputs, self.outputs))
                   if new != old]
        reference = [bench.reference[k] for k in changed]
        new = literal_words(self.words, [outputs[k] for k in changed],
                            bench.mask)
        old = [self.output_words[k] for k in changed]
        return bench.error_rate(self.mismatched
                                + mismatched_bits(reference, new)
                                - mismatched_bits(reference, old))

    def rollback(self) -> None:
        """Drop the nodes, words and cones of the last candidate."""
        self._truncate(self.state_size)


class _Explorer:
    def __init__(self, circuit: Aig, config: ExplorationConfig):
        self.original = cleanup(circuit)
        self.config = config
        self.parts = partition(self.original, config.partition)
        self.original_area = and_count(self.original)
        # (part id, depth an approximation was fitted at) -> approximation
        self.cache: dict[tuple[int, int], ApproxSubCircuit] = {}
        # (part id, depth its substitution was fitted at, or None) -> budget
        self.budgets: dict[tuple[int, int | None], int] = {}

    # The testbenches and the base are built on first use: ``replay``
    # reads none of them.
    @cached_property
    def final_bench(self) -> Testbench:
        return reporting_testbench(self.original, self.config.qor_samples,
                                   self.config.seed + 1)

    @cached_property
    def search_bench(self) -> Testbench:
        config, original = self.config, self.original
        if original.num_inputs <= config.partition.max_inputs:
            return self.final_bench
        return monte_carlo_testbench(original, config.qor_samples, config.seed)

    @cached_property
    def base(self) -> _Base:
        return _Base(self.original, self.parts, self.search_bench)

    def approx(self, part: SubCircuit, md: int) -> ApproxSubCircuit:
        key = (part.id, md)
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache[key] = approx_sub_circuit(
                part.extracted, md, node_limit=self.config.node_limit)
        return hit

    def below(self, part: SubCircuit, md: int) -> int:
        """One ``step`` below ``md``, or below the smallest realized depth
        of ``part``'s trees fitted at ``md`` when they are all exact."""
        sa = self.cache[(part.id, md)]
        if sa.exact:  # a cell has an output, so it has a tree
            md = min(t.realized_depth for t in sa.per_output_trees)
        return md - self.config.step

    def budget(self, part: SubCircuit, depth: int | None) -> int:
        """The depth budget of cell ``part`` substituted at ``depth`` (None:
        kept), memoized in ``budgets``.

        It starts at ``below(part, depth)``, at ``initial_max_depth`` for
        a kept cell.  An exact replacement that does not shrink the cell
        has infinite loss; so as not to park the stream there and
        deadlock the search, the budget steps ``below`` until the
        approximation fitted at it is inexact or shrinks the cell.  Both
        areas are node counts: the cell holds exactly its members, all
        live, and lowering builds no dead node (``synth``).  Returns that
        fitted depth.
        """
        key = (part.id, depth)
        md = self.budgets.get(key)
        if md is None:
            md = (self.config.initial_max_depth if depth is None
                  else self.below(part, depth))
            while md >= 2:
                sa = self.approx(part, md)
                if not sa.exact or (len(sa.circuit.ands)
                                    < len(part.extracted.ands)):
                    break
                md = self.below(part, md)
            self.budgets[key] = md
        return md

    def replacements(self, applied: tuple[int | None, ...]) -> dict[int, Aig]:
        return {p.id: self.cache[(p.id, depth)].circuit
                for p, depth in zip(self.parts, applied) if depth is not None}

    def compose_state(self, applied: tuple[int | None, ...]) -> Aig:
        replacements = self.replacements(applied)
        if not replacements:
            return self.original
        return compose(self.original, self.parts, replacements)

    def search_qor(self, outputs: list[int]) -> float:
        """Search error of the candidate the base holds, with output
        literals ``outputs``."""
        return self.base.error(outputs)

    def score_state(self, stream_idx: int,
                    applied: tuple[int | None, ...]) -> list[tuple]:
        """Score the substitution of each eligible cell of one beam state.

        Returns (loss, part id, stream idx, depth, area, error) for each
        candidate inside the error budget that is not a zero-gain exact
        substitution; depth is the cell's budget, which it is fitted at.
        """
        err = self.config.error_threshold
        base = self.base
        base.apply(self.replacements(applied))
        out = []
        for part, depth in zip(self.parts, applied):
            md = self.budget(part, depth)
            if md < 2:
                continue  # frozen cell
            sa = self.approx(part, md)
            area, outputs = base.substitute(part.id, sa.circuit)
            q = self.search_qor(outputs)
            base.rollback()
            if q > err:
                continue
            score = loss(area, self.original_area, q)
            if math.isinf(score) and score > 0:
                continue  # zero-gain exact substitution
            out.append((score, part.id, stream_idx, md, area, q))
        return out

    def run(self) -> ExplorationResult:
        config = self.config
        err = config.error_threshold

        start = (None,) * len(self.parts)  # no cell substituted
        best_circuit, best_area = self.original, self.original_area
        # the final testbench holds the original's output words already
        best_report = self.final_bench.report(self.final_bench.reference)
        best_applied = start
        trace: list[TraceRecord] = []

        beam = [start]
        iteration = 0
        while beam:
            iteration += 1
            candidates = []
            for stream_idx, applied in enumerate(beam):
                candidates += self.score_state(stream_idx, applied)
            candidates.sort(key=lambda c: (c[0], c[1], c[2]))

            # an earlier iteration's states made fewer moves: none recurs
            next_beam = []
            for score, part_id, stream_idx, md, area, q in candidates:
                if len(next_beam) >= config.beam_width:
                    break
                parent = beam[stream_idx]
                applied = parent[:part_id] + (md,) + parent[part_id + 1:]
                if applied in next_beam:
                    continue
                next_beam.append(applied)
                trace.append(TraceRecord(
                    iteration=iteration, stream=len(next_beam) - 1,
                    part=part_id, md=md, loss=score, area=area, qor=q))
                if area < best_area:
                    composed = self.compose_state(applied)
                    report = _final_measure(self.final_bench, composed)
                    if report.error <= err:
                        best_circuit, best_area = composed, area
                        best_report, best_applied = report, applied
            beam = next_beam

        return ExplorationResult(
            circuit=best_circuit, trace=tuple(trace), final_qor=best_report,
            original_area=self.original_area, final_area=best_area,
            substitutions=tuple((pid, d) for pid, d in enumerate(best_applied)
                                if d is not None),
            budget_exceeded=not all(sa.proven for sa in self.cache.values()))


def explore(circuit: Aig, config: ExplorationConfig) -> ExplorationResult:
    """Greedy substitution under a global error budget.

    Each cell is fitted on its whole truth table, which ``config`` bounds
    at ``EXHAUSTIVE_INPUT_CAP`` inputs.  Returns the smallest-area circuit
    found whose independently re-measured error stays within the
    threshold; the original circuit when nothing better was found.
    """
    return _Explorer(circuit, config).run()


def replay(circuit: Aig, config: ExplorationConfig,
           substitutions) -> Aig:
    """Rebuild the composed circuit for a substitution list (trace replay):
    ``(part id, depth)`` pairs of ints, each part id at most once, as in
    ``ExplorationResult.substitutions``."""
    if not (isinstance(substitutions, (list, tuple)) and all(
            isinstance(s, (list, tuple)) and len(s) == 2
            and all(isinstance(x, int) for x in s) for s in substitutions)):
        raise AigError("substitutions must be (part id, depth) int pairs")
    explorer = _Explorer(circuit, config)
    applied: list[int | None] = [None] * len(explorer.parts)
    for part_id, depth in substitutions:
        if part_id not in range(len(explorer.parts)):
            raise AigError(f"substitution for unknown part id {part_id!r}")
        if applied[part_id] is not None:
            raise AigError(f"part id {part_id} is substituted twice")
        explorer.approx(explorer.parts[part_id], depth)
        applied[part_id] = depth
    return explorer.compose_state(tuple(applied))
