"""Greedy beam search over per-cell depth budgets.

Each beam state carries the per-cell depth vector plus the substitutions
applied so far.  Every iteration scores the substitution of each eligible
cell by loss = (area' - original_area) / error', keeps the best successor
states inside the error budget, then steps the substituted cell's depth
budget down from the depth its approximation records (the smallest
realized depth when it is exact); a budget below 2 freezes the cell.  An
approximation is cached only under the depth it was fitted at, which is
also the trace's ``md`` and the substitution's depth.

Candidates are scored on the search testbench, the truth table up to
``max_inputs`` inputs and ``qor_samples`` vectors drawn with the seed
beyond; a new best is re-measured on the final testbench, which is the
same ``qor.Testbench`` when the search is exhaustive (``_final_measure``).

A candidate is scored without composing it.  Each beam state is built once
per iteration: a structurally hashed builder holding all its cells in flow
order, the builder literal of every boundary node, and the word of every
builder node on each search chunk.  A candidate inlines its replacement on
the state's boundary literals and re-inlines only the later cells that read
a literal that changed.  Its area is the number of AND nodes reachable from
its outputs; its error is the search testbench's ``report`` on its output
words, from simulating only the appended nodes.  The builder and its words
are then rolled back.  Structural hashing makes node identity the same as
term identity, so area and error equal those of the composed candidate
exactly; only a candidate that becomes the new best is composed.

The per-node words of one beam state are held at a time, which bounds the
search's memory: (AND nodes of the state) x (search vectors) bits.

A tree search that runs out of its node or time limit leaves the best tree
it found for that cell; the run goes on with it and reports
``budget_exceeded``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .aig import (Aig, AigError, and_count, cleanup, compose, compose_builder,
                  extend_words, literal_words)
from .odt import SearchBudget
from .partition import PartitionConfig, SubCircuit, partition
from .qor import (EXHAUSTIVE_INPUT_CAP, QorReport, Testbench,
                  exhaustive_testbench, monte_carlo_testbench)
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
        # the tree search's own limit checks (OdtError), before any search
        SearchBudget(self.initial_max_depth, self.node_limit, self.time_limit)


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


class _BeamState:
    """One beam state's composition, held while its candidates are scored.

    ``builder`` holds every cell of the state inlined in flow order,
    ``lits`` the builder literal of node 0, of each primary input and of
    each boundary output node, and ``words[i]`` the word of each builder
    node on chunk ``i`` of the search testbench.  ``substitute`` appends a
    candidate's nodes and ``rollback`` drops them and their words again.
    """

    def __init__(self, explorer: _Explorer, replacements: dict[int, Aig]):
        original = explorer.original
        self.parts = explorer.parts
        self.outputs = original.outputs
        self.cells = [replacements.get(p.id, p.extracted) for p in self.parts]
        self.builder, self.lits = compose_builder(original, self.parts,
                                                  replacements)
        self.size = len(self.builder.ands)
        self.first_and = original.num_inputs + 1
        self.chunks = explorer.search_bench.chunks
        self.words = [[0, *words] for words, _ in self.chunks]
        self.output_words(())  # simulate the state's own nodes

    def substitute(self, part_id: int, cell: Aig) -> tuple[int, list[int]]:
        """Build the candidate that replaces cell ``part_id`` by ``cell``.

        ``cell`` is inlined on the state's boundary literals, then every
        later cell that reads a boundary literal that changed is inlined
        again.  Returns the candidate's area and output literals.
        """
        lits, builder = self.lits, self.builder
        changed: dict[int, int] = {}
        for part in self.parts[part_id:]:
            if part.id == part_id:
                body = cell
            elif changed.keys().isdisjoint(part.boundary_inputs):
                continue  # same inputs, so the same nodes as the state's
            else:
                body = self.cells[part.id]
            inputs = [changed.get(src, lits[src])
                      for src in part.boundary_inputs]
            for node, out in zip(part.boundary_outputs,
                                 builder.inline(body, inputs)):
                if out != lits[node]:
                    changed[node] = out
        outputs = [changed.get(o >> 1, lits[o >> 1]) ^ (o & 1)
                   for o in self.outputs]
        return len(builder.reachable(outputs)), outputs

    def output_words(self, outputs: list[int]) -> list[list[int]]:
        """Words of ``outputs`` on each chunk, simulating only the nodes
        not yet simulated."""
        for values, (_, mask) in zip(self.words, self.chunks):
            extend_words(values, self.builder.ands, self.first_and, mask)
        return [literal_words(values, outputs, mask)
                for values, (_, mask) in zip(self.words, self.chunks)]

    def rollback(self) -> None:
        """Drop the nodes and words of the last candidate."""
        self.builder.rollback(self.size)
        for values in self.words:
            del values[self.first_and + self.size:]


class _Explorer:
    def __init__(self, circuit: Aig, config: ExplorationConfig):
        self.original = cleanup(circuit)
        self.config = config
        self.parts = partition(self.original, config.partition)
        self.original_area = and_count(self.original)
        # (part id, depth an approximation was fitted at) -> approximation
        self.cache: dict[tuple[int, int], ApproxSubCircuit] = {}
        # The final testbench is the search's when that is exhaustive, else
        # independent of it: exhaustive up to EXHAUSTIVE_INPUT_CAP inputs,
        # else vectors drawn with seed + 1.
        n = self.original.num_inputs
        if n <= config.partition.max_inputs:
            self.search_bench = self.final_bench = exhaustive_testbench(
                self.original)
        else:
            self.search_bench = monte_carlo_testbench(
                self.original, config.qor_samples, config.seed)
            self.final_bench = (
                exhaustive_testbench(self.original)
                if n <= EXHAUSTIVE_INPUT_CAP
                else monte_carlo_testbench(self.original, config.qor_samples,
                                           config.seed + 1))

    def approx(self, part: SubCircuit, md: int) -> ApproxSubCircuit:
        key = (part.id, md)
        hit = self.cache.get(key)
        if hit is None:
            hit = self.cache[key] = approx_sub_circuit(
                part.extracted, md,
                node_limit=self.config.node_limit,
                time_limit=self.config.time_limit,
                max_table_inputs=self.config.partition.max_inputs)
        return hit

    def normalize_md(self, part: SubCircuit, md: int) -> int:
        """Advance a cell's depth budget past depths that can never be chosen.

        An exact replacement that does not shrink the cell has infinite
        loss; keeping the stream parked there would deadlock the search, so
        the budget steps down from the depth it records until the
        approximation fitted at the budget is inexact or shrinks the cell.
        Returns that fitted depth; a budget below 2 freezes the cell.
        """
        cell_area = and_count(part.extracted)
        while md >= 2:
            sa = self.approx(part, md)
            if not sa.exact or and_count(sa.circuit) < cell_area:
                return md
            md = sa.md - self.config.step
        return md

    def replacements(self, applied: tuple[int | None, ...]) -> dict[int, Aig]:
        return {p.id: self.cache[(p.id, depth)].circuit
                for p, depth in zip(self.parts, applied) if depth is not None}

    def compose_state(self, applied: tuple[int | None, ...]) -> Aig:
        replacements = self.replacements(applied)
        if not replacements:
            return self.original
        return compose(self.original, self.parts, replacements)

    def search_qor(self, state: _BeamState, outputs: list[int]) -> float:
        """Search error of the candidate ``state`` holds, with output
        literals ``outputs``."""
        return self.search_bench.report(state.output_words(outputs)).error

    def score_state(self, stream_idx: int, md_stream: tuple[int, ...],
                   state_applied: tuple[int | None, ...]) -> list[tuple]:
        """Score the substitution of each eligible cell of one beam state.

        Returns (loss, part id, stream idx, applied, area, error) for each
        candidate inside the error budget that is not a zero-gain exact
        substitution.
        """
        err = self.config.error_threshold
        state = _BeamState(self, self.replacements(state_applied))
        out = []
        for part, md in zip(self.parts, md_stream):
            if md < 2:
                continue  # frozen cell
            sa = self.approx(part, md)
            area, outputs = state.substitute(part.id, sa.circuit)
            q = self.search_qor(state, outputs)
            state.rollback()
            if q > err:
                continue
            score = loss(area, self.original_area, q)
            if math.isinf(score) and score > 0:
                continue  # zero-gain exact substitution
            applied = list(state_applied)
            applied[part.id] = md
            out.append((score, part.id, stream_idx, tuple(applied), area, q))
        return out

    def run(self) -> ExplorationResult:
        config = self.config
        err = config.error_threshold

        # Algorithm setup: approximate every cell at the initial depth and
        # normalize it.  A beam state is (md_stream, applied): the per-cell
        # depth budgets, and the depth each cell's active substitution was
        # fitted at (None if original).
        initial_md = tuple(self.normalize_md(part, config.initial_max_depth)
                           for part in self.parts)
        start = (initial_md, (None,) * len(self.parts))

        best_circuit, best_area = self.original, self.original_area
        best_report = _final_measure(self.final_bench, self.original)
        best_applied = start[1]
        trace: list[TraceRecord] = []

        beam = [start]
        seen = {start}
        iteration = 0
        while beam:
            iteration += 1
            candidates = []
            for stream_idx, (md_stream, state_applied) in enumerate(beam):
                candidates += self.score_state(stream_idx, md_stream,
                                               state_applied)
            if not candidates:
                break
            candidates.sort(key=lambda c: (c[0], c[1], c[2]))

            next_beam = []
            for score, part_id, stream_idx, applied, area, q in candidates:
                if len(next_beam) >= config.beam_width:
                    break
                md_stream = list(beam[stream_idx][0])
                used_md = md_stream[part_id]
                md_stream[part_id] = self.normalize_md(
                    self.parts[part_id],
                    self.cache[(part_id, used_md)].md - config.step)
                state = (tuple(md_stream), applied)
                if state in seen:
                    continue
                seen.add(state)
                next_beam.append(state)
                trace.append(TraceRecord(
                    iteration=iteration, stream=len(next_beam) - 1,
                    part=part_id, md=used_md, loss=score, area=area, qor=q))
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
        if part_id not in range(len(explorer.parts)):
            raise AigError(f"substitution for unknown part id {part_id!r}")
        explorer.approx(explorer.parts[part_id], depth)
        applied[part_id] = depth
    return explorer.compose_state(tuple(applied))
