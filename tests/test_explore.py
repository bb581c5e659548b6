"""Greedy exploration of the area-vs-error trade-off."""

import hashlib
import json
import math
import random
import sys

import pytest

from treesynth import aig, qor
from treesynth.aig import Aig, AigError, and_count, compose, reachable_nodes
from treesynth.aiger import write_aiger
from treesynth.explore import (ExplorationConfig, _Base, _Explorer, explore,
                               loss, replay)
from treesynth.odt import OdtError
from treesynth.partition import PartitionConfig
from treesynth.qor import qor_exhaustive, qor_monte_carlo

from conftest import clear_memos, random_circuit
from reference import BENCHMARKS, add8u, c17, mul7u, simulate, xor4


def small_config(threshold, **kw):
    return ExplorationConfig(
        error_threshold=threshold,
        partition=PartitionConfig(initial_parts=kw.pop("initial_parts", 4)),
        **kw)


def test_loss_scores():
    assert loss(10, 20, 0.1) == -100.0
    assert loss(30, 20, 0.1) == 100.0
    assert loss(10, 20, 0.0) == -math.inf  # exact shrink: free win
    assert loss(20, 20, 0.0) == math.inf   # exact non-shrink: never chosen
    with pytest.raises(AigError):
        loss(-1, 20, 0.1)


def test_config_validation():
    with pytest.raises(AigError):
        ExplorationConfig(error_threshold=1.5)
    with pytest.raises(AigError):
        ExplorationConfig(beam_width=0)
    with pytest.raises(AigError):
        ExplorationConfig(step=0)
    for samples in (0, -1):
        with pytest.raises(AigError):
            ExplorationConfig(qor_samples=samples)
    with pytest.raises(AigError, match="jobs"):  # a job count is >= 1
        ExplorationConfig(jobs=0)
    # a wrong type is bad input: these raised TypeError or were accepted
    for fields in ({"error_threshold": "0.1"}, {"seed": 1.5},
                   {"beam_width": 2.5}, {"partition": None}):
        with pytest.raises(AigError, match=next(iter(fields))):
            ExplorationConfig(**fields)
    # the limits are SearchBudget's: checked when the config is built
    for limit in (-3, 2.0, float("nan")):
        with pytest.raises(OdtError):
            ExplorationConfig(node_limit=limit)
    ExplorationConfig(node_limit=0)  # zero is valid


def test_zero_threshold_returns_equivalent_circuit(rng):
    c = random_circuit(rng, 5, 25, 3)
    res = explore(c, small_config(0.0))
    assert res.final_qor.error == 0.0
    assert res.final_area <= res.original_area
    r = qor_exhaustive(c, res.circuit)
    assert r.error == 0.0


def test_budget_respected(rng):
    for threshold in (0.02, 0.1, 0.3):
        c = random_circuit(rng, 6, 40, 3)
        res = explore(c, small_config(threshold))
        # re-measure independently of the search's own estimate
        assert qor_exhaustive(c, res.circuit).error <= threshold
        assert res.final_area <= res.original_area


def test_single_wire_circuit():
    c = Aig(num_inputs=1, ands=(), outputs=(2,))
    res = explore(c, ExplorationConfig(error_threshold=1.0))
    assert res.final_area == 0
    assert qor_exhaustive(c, res.circuit).error == 0.0


def test_area_monotone_in_threshold():
    c = add8u()
    areas = []
    for threshold in (0.05, 0.10, 0.15):
        cfg = ExplorationConfig(
            error_threshold=threshold,
            partition=PartitionConfig(initial_parts=10))
        res = explore(c, cfg)
        assert res.final_qor.error <= threshold
        areas.append(res.final_area)
    assert areas == sorted(areas, reverse=True)
    assert areas[0] < and_count(c)  # even the tight budget saves area


def test_trace_replay_reproduces_result(rng):
    c = random_circuit(rng, 6, 40, 3)
    cfg = small_config(0.15)
    res = explore(c, cfg)
    rebuilt = replay(c, cfg, res.substitutions)
    assert rebuilt == res.circuit


def test_replay_rejects_a_part_named_twice():
    # ExplorationResult.substitutions names each part once; a repeated id
    # used to let the last substitution win
    cfg = ExplorationConfig(
        error_threshold=0.15,
        partition=PartitionConfig(initial_parts=2, max_inputs=3))
    with pytest.raises(AigError, match="twice"):
        replay(c17(), cfg, ((0, 2), (0, 1)))


def test_replay_rebuilds_exact_cell_cached_under_smaller_depth():
    # cell 1's exact approximation, fitted at depth 9, has the smallest
    # realized depth 2, at which the cell is not exact; the substitution
    # names the fitted depth, so replay rebuilds the same circuit, not a
    # 1-AND circuit with error 1/64
    c = Aig(num_inputs=5, ands=((3, 4), (6, 8), (12, 14), (7, 8), (5, 13)),
            outputs=(20, 18, 1, 17))
    cfg = ExplorationConfig(
        error_threshold=0.15,
        partition=PartitionConfig(initial_parts=2, max_inputs=5))
    res = explore(c, cfg)
    assert (res.final_area, res.final_qor.error) == (4, 0.0)
    assert res.substitutions == ((1, 9),)
    assert replay(c, cfg, res.substitutions) == res.circuit


def test_exact_cell_with_a_constant_output_is_not_frozen():
    # cell 0's exact depth-9 approximation has a constant output, so it
    # realizes depth 0; that depth used to freeze the cell before its
    # approximation was ever scored, and the run ended at area 3
    c = Aig(num_inputs=4,
            ands=((3, 6), (5, 7), (4, 6), (5, 14), (9, 15), (9, 16),
                  (15, 16), (17, 19), (8, 13)),
            outputs=(25, 1, 0, 1))
    cfg = ExplorationConfig(
        error_threshold=0.15,
        partition=PartitionConfig(initial_parts=2, max_inputs=3))
    res = explore(c, cfg)
    assert (res.original_area, res.final_area) == (4, 0)
    assert res.substitutions == ((0, 9), (1, 2))
    assert res.final_qor.error == 0.03125
    assert replay(c, cfg, res.substitutions) == res.circuit


def test_replay_matches_explore_on_random_circuits():
    # seed 1 reaches exact approximations that realize a smaller depth than
    # the one they were fitted at, the first at its 13th circuit; every
    # trace record of the first iteration, replayed alone, rebuilds the
    # area it scored
    rng = random.Random(1)
    for _ in range(200):
        c = random_circuit(rng, rng.randint(3, 6), rng.randint(4, 14),
                           rng.randint(1, 4))
        cfg = ExplorationConfig(
            error_threshold=rng.choice((0.05, 0.15, 0.3)),
            partition=PartitionConfig(initial_parts=rng.randint(2, 3),
                                      max_inputs=rng.randint(3, 6)))
        res = explore(c, cfg)
        assert replay(c, cfg, res.substitutions) == res.circuit, (c, cfg)
        for rec in res.trace:
            if rec.iteration == 1:
                alone = replay(c, cfg, [(rec.part, rec.md)])
                assert and_count(alone) == rec.area, (c, cfg, rec)


def test_explore_circuit_whose_cleanup_orphans_a_node():
    # cleanup left an orphaned node, so partition's second cleanup numbered
    # nodes differently from the explorer's and compose raised AigError
    c = Aig(num_inputs=4,
            ands=((2, 4), (10, 11), (6, 8), (13, 14), (14, 2), (18, 5)),
            outputs=(16, 20, 14))
    cfg = ExplorationConfig()
    res = explore(c, cfg)
    assert res.original_area == 3
    assert qor_exhaustive(c, res.circuit).error <= cfg.error_threshold
    assert replay(c, cfg, res.substitutions) == res.circuit


def test_deterministic(rng):
    c = random_circuit(rng, 6, 40, 3)
    cfg = small_config(0.1)
    r1 = explore(c, cfg)
    clear_memos()
    r2 = explore(c, cfg)
    assert r1.circuit == r2.circuit
    assert r1.trace == r2.trace
    assert r1.final_qor == r2.final_qor


def test_below_steps_from_fitted_or_smallest_realized_depth():
    # inexact: each cell of xor4 fits a constant at depth 1, so the next
    # budget is one step below the fitted depth 1, not below the realized 0
    explorer = _Explorer(xor4(), small_config(0.2, initial_parts=2))
    for part in explorer.parts:
        approx = explorer.approx(part, 1)
        assert not approx.exact
        assert [t.realized_depth for t in approx.per_output_trees] == [0]
        assert explorer.below(part, 1) == 0
    # exact: the c17 cells fit at depth 4 with trees of depths 2 and 3, and
    # 4 and 4; the next budget is the smallest of them less one step
    explorer = _Explorer(c17(), ExplorationConfig(
        step=2, partition=PartitionConfig(max_inputs=4, initial_parts=2)))
    fits = [explorer.approx(part, 4) for part in explorer.parts]
    assert all(approx.exact for approx in fits)
    assert [[t.realized_depth for t in approx.per_output_trees]
            for approx in fits] == [[2, 3], [4, 4]]
    assert [explorer.below(part, 4) for part in explorer.parts] == [0, 2]


def test_stream_depths_monotone():
    """A cell's budget is below the depth its substitution was fitted at,
    so each stream steps a cell's depth down, and each trace record's
    depth is one of its cell's budgets.  Records of different streams may
    read a cell's depths in any order: at seed 7, part 3 reads 3, then 2,
    then 3 across iterations 2 and 3.  The fixture seed's circuit cleans
    to no AND node, so it has no trace."""
    for seed in (0xC0FFEE, 7, 66, 175):
        c = random_circuit(random.Random(seed), 6, 40, 3)
        explorer = _Explorer(c, small_config(0.2))
        for part in explorer.parts:  # each cell's whole ladder, run or not
            depth = None
            while (md := explorer.budget(part, depth)) >= 2:
                assert depth is None or md < depth
                depth = md
        explorer = _Explorer(c, small_config(0.2))
        res = explorer.run()
        assert bool(res.trace) == (seed != 0xC0FFEE)
        for (part, depth), md in explorer.budgets.items():
            assert depth is None or md < depth
        for rec in res.trace:
            assert rec.md in {md for (part, _), md in explorer.budgets.items()
                              if part == rec.part}
        for sa in explorer.cache.values():  # budget reads the node count
            assert len(sa.circuit.ands) == and_count(sa.circuit)


def test_beam_dominance(rng):
    """A wider beam never returns a worse best area."""
    c = random_circuit(rng, 6, 35, 3)
    areas = []
    for width in (1, 2, 3):
        cfg = ExplorationConfig(
            error_threshold=0.15, beam_width=width,
            partition=PartitionConfig(initial_parts=4))
        areas.append(explore(c, cfg).final_area)
    assert areas[1] <= areas[0]
    assert areas[2] <= areas[1]


def test_budget_exceeded_flag():
    c = add8u()
    cfg = ExplorationConfig(
        error_threshold=0.1, node_limit=1,
        partition=PartitionConfig(initial_parts=4))
    res = explore(c, cfg)
    assert res.budget_exceeded
    # the partial answer is still within budget
    assert qor_exhaustive(c, res.circuit).error <= 0.1


def test_budgeted_run_keeps_searching():
    # an exhausted tree search leaves its best tree and the run goes on
    c = mul7u()
    cfg = ExplorationConfig(
        error_threshold=0.1, node_limit=200,
        partition=PartitionConfig(initial_parts=10))
    res = explore(c, cfg)
    assert res.budget_exceeded
    assert res.trace
    assert res.final_area < res.original_area
    assert qor_exhaustive(c, res.circuit).error <= 0.1
    assert replay(c, cfg, res.substitutions) == res.circuit


def test_substituted_circuit_functionally_within_budget(rng):
    c = random_circuit(rng, 5, 30, 2)
    res = explore(c, small_config(0.25))
    vecs = [tuple((v >> i) & 1 for i in range(5)) for v in range(32)]
    got = simulate(res.circuit, vecs)
    want = simulate(c, vecs)
    mism = sum(x != y for rg, rw in zip(got, want) for x, y in zip(rg, rw))
    assert mism / (32 * 2) <= 0.25


def test_final_qor_matches_fresh_measure():
    # the kept final testbench gives the report a fresh measure would,
    # also for the untouched original, which is never simulated
    c432 = BENCHMARKS["c432"]()
    untouched = 0
    for threshold in (0.0, 0.05):
        cfg = ExplorationConfig(
            error_threshold=threshold, qor_samples=300,
            partition=PartitionConfig(initial_parts=10, max_inputs=8))
        res = explore(c432, cfg)
        untouched += res.final_area == res.original_area
        assert res.final_qor == qor_monte_carlo(
            c432, res.circuit, cfg.qor_samples, cfg.seed + 1)
    for threshold in (0.0, 0.15):
        res = explore(add8u(), small_config(threshold, initial_parts=10))
        assert res.final_qor == qor_exhaustive(add8u(), res.circuit)
    assert res.final_qor.error > 0.0
    assert untouched


def bench_policy(bench):
    return bench.estimator, bench.samples, bench.seed


def test_testbench_policy():
    # an exhaustive search shares its testbench with the final measure
    mul = _Explorer(mul7u(), ExplorationConfig(
        partition=PartitionConfig(initial_parts=10)))
    assert mul.final_bench is mul.search_bench
    assert bench_policy(mul.search_bench) == ("exhaustive", 1 << 14, 0)
    # 16 inputs: sampled search, exhaustive final measure
    add = _Explorer(add8u(), ExplorationConfig(
        partition=PartitionConfig(initial_parts=10)))
    assert bench_policy(add.search_bench) == ("monte_carlo", 10_000, 0)
    assert bench_policy(add.final_bench) == ("exhaustive", 1 << 16, 0)
    # over the exhaustive cap: sampled at seed and at seed + 1
    wide = _Explorer(BENCHMARKS["c432"](), ExplorationConfig(
        qor_samples=300, seed=4,
        partition=PartitionConfig(initial_parts=10, max_inputs=8)))
    assert bench_policy(wide.search_bench) == ("monte_carlo", 300, 4)
    assert bench_policy(wide.final_bench) == ("monte_carlo", 300, 5)


def test_negative_seed_is_aig_error():
    # c432 has more inputs than max_inputs, so the search draws vectors;
    # c17 draws none, and its negative seed used to be accepted
    for name, max_inputs in (("c432", 8), ("c17", 16)):
        with pytest.raises(AigError, match="seed"):
            cfg = ExplorationConfig(seed=-1, partition=PartitionConfig(
                initial_parts=10, max_inputs=max_inputs))
            explore(BENCHMARKS[name](), cfg)


def test_exhaustive_search_over_input_cap_is_aig_error(rng):
    # 21 inputs fit max_inputs=22, but an exhaustive search stops at 20,
    # so the config is rejected before any circuit is read
    c = random_circuit(rng, 21, 40, 2)
    with pytest.raises(AigError, match="exhaustive cap"):
        cfg = ExplorationConfig(
            partition=PartitionConfig(initial_parts=2, max_inputs=22))
        explore(c, cfg)


def test_max_inputs_over_exhaustive_cap_is_rejected():
    # a cell is fitted on its whole truth table, at most 20 inputs
    with pytest.raises(AigError, match="max_inputs 21 .* cap of 20"):
        ExplorationConfig(partition=PartitionConfig(max_inputs=21))
    ExplorationConfig(partition=PartitionConfig(max_inputs=20))


def test_replay_rejects_unknown_part_id():
    cfg = ExplorationConfig(
        partition=PartitionConfig(initial_parts=2, max_inputs=3))
    for part_id in (99, -1):
        with pytest.raises(AigError, match="unknown part id"):
            replay(c17(), cfg, [(part_id, 2)])


def constant_cell(part, value: int) -> Aig:
    """A replacement that ties every output of ``part`` to ``value``."""
    return Aig(num_inputs=len(part.boundary_inputs), ands=(),
               outputs=(value,) * len(part.boundary_outputs))


def check_scorer(circuit, config, rng, max_depth, states=3, per_state=4):
    """Score random candidates on random beam states against compose and
    the QoR module; check that rollback restores each state, that each
    state the base applies leaves it as a fresh base that applied only
    that state, and that applying the start state restores the fresh
    base."""
    explorer = _Explorer(circuit, config)
    original, parts, base = explorer.original, explorer.parts, explorer.base
    bench = explorer.search_bench

    def random_cell(part):
        if rng.random() < 0.2:
            return constant_cell(part, rng.randint(0, 1))
        return explorer.approx(part, rng.randint(1, max_depth)).circuit

    def snapshot(base):
        return (list(base.builder.ands), dict(base.builder._strash),
                list(base.words), list(base.cones), dict(base.lits),
                list(base.outputs), list(base.output_words), base.mismatched)

    def check(replacements, part, cell):
        before = snapshot(base)
        area, outputs = base.substitute(part.id, cell)
        error = explorer.search_qor(outputs)
        base.rollback()
        assert snapshot(base) == before
        composed = compose(original, parts, {**replacements, part.id: cell})
        assert area == and_count(composed)
        assert error == bench.measure(composed).error
        return area, error, outputs

    def fresh(replacements):
        new = _Base(original, parts, bench)
        new.apply(replacements)
        return snapshot(new)

    # a cell that drives an output, folded to constant 1
    driven = [(k, p) for k, o in enumerate(original.outputs) for p in parts
              if o >> 1 in p.boundary_outputs]
    assert driven
    index, driver = driven[0]
    start = snapshot(base)
    assert start == fresh({})
    for _ in range(states):
        replacements = {p.id: random_cell(p) for p in parts
                        if rng.random() < 0.4}
        base.apply(replacements)
        # the previous state left nothing behind
        assert snapshot(base) == fresh(replacements)
        # the state keeps only the boundary literals its replacements changed
        assert all(out != 2 * node for node, out in base.lits.items())
        for _ in range(per_state):
            part = rng.choice(parts)
            check(replacements, part, random_cell(part))
        *_, outputs = check(replacements, driver, constant_cell(driver, 1))
        assert outputs[index] in (0, 1)
        # a cell replaced by the one the state holds changes no output
        # literal: the candidate is the state itself
        part = rng.choice(parts)
        own = compose(original, parts, replacements)
        own_cell = base.replacements.get(part.id, part.extracted)
        assert check(replacements, part, own_cell) == (
            and_count(own), bench.measure(own).error, base.outputs)
    base.apply({})
    assert snapshot(base) == start


def deep_circuit(rng, num_inputs: int, num_ands: int,
                 num_outputs: int) -> Aig:
    """A random circuit whose outputs read its last AND nodes, so that
    most of its logic is live."""
    c = random_circuit(rng, num_inputs, num_ands, 0)
    last = c.num_inputs + len(c.ands)
    outputs = tuple(2 * (last - k) + rng.randint(0, 1)
                    for k in range(num_outputs))
    return Aig(num_inputs=num_inputs, ands=c.ands, outputs=outputs)


@pytest.mark.parametrize("num_inputs,max_inputs", [
    (6, 14),   # exhaustive search
    (9, 4),    # Monte-Carlo search
    (15, 15),  # exhaustive search over 2**15 rows, measured in two slices
])
def test_scorer_matches_compose_and_qor(rng, num_inputs, max_inputs):
    for _ in range(3):
        c = deep_circuit(rng, num_inputs, 12 * num_inputs, 3)
        cfg = ExplorationConfig(qor_samples=500, partition=PartitionConfig(
            initial_parts=4, max_inputs=max_inputs))
        check_scorer(c, cfg, rng, max_depth=3)


def test_scorer_matches_compose_and_qor_on_benchmarks(rng):
    check_scorer(c17(), ExplorationConfig(partition=PartitionConfig(
        initial_parts=2, max_inputs=3)), rng, max_depth=2)
    check_scorer(mul7u(), ExplorationConfig(partition=PartitionConfig(
        initial_parts=10)), rng, max_depth=3, states=2)


def cone_nodes(base, node):
    """The AND nodes of ``node``'s cone bitset in ``base``."""
    cone = base.cones[node]
    return {base.first_and + i for i in range(cone.bit_length())
            if cone >> i & 1}


def test_base_cones_are_reachable_nodes(rng):
    for circuit, max_inputs in ((c17(), 3), (random_circuit(rng, 7, 60, 4), 4)):
        base = _Explorer(circuit, ExplorationConfig(partition=PartitionConfig(
            initial_parts=3, max_inputs=max_inputs))).base
        assert len(base.cones) == len(base.words) == (
            base.first_and + len(base.builder.ands))
        for node in range(len(base.cones)):
            assert cone_nodes(base, node) == reachable_nodes(Aig(
                base.first_and - 1, tuple(base.builder.ands), (2 * node,)))


def test_one_composition_per_run(monkeypatch):
    # the run builds its base once; every composition is a new best's
    # compose, never a beam state's; the one reachability walk is the
    # original's area, as a fit's area is its node count
    explore_module = sys.modules["treesynth.explore"]
    calls = {"_Base": 0, "compose": 0, "and_count": 0}
    for name in calls:
        def counted(*args, fn=getattr(explore_module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(explore_module, name, counted)
    res = explore(add8u(), small_config(0.10, initial_parts=10))
    states = 1 + len(res.trace)  # the start, and each state a record adds
    assert calls["_Base"] == calls["and_count"] == 1
    assert states > 1 + calls["compose"] >= 2


@pytest.mark.parametrize("name,initial_parts,max_inputs", [
    ("add8u", 10, 14), ("mul7u", 10, 14), ("c17", 2, 3)])
def test_base_is_the_original(name, initial_parts, max_inputs):
    # the base rebuilds the cleaned original node for node, whatever the
    # cells' flow order, and simulates it as a plain simulation does
    explorer = _Explorer(BENCHMARKS[name](), ExplorationConfig(
        partition=PartitionConfig(initial_parts=initial_parts,
                                  max_inputs=max_inputs)))
    original, base, bench = (explorer.original, explorer.base,
                             explorer.search_bench)
    assert base.builder.ands == list(original.ands)
    every_node = Aig(num_inputs=original.num_inputs, ands=original.ands,
                     outputs=tuple(2 * n for n in range(len(base.words))))
    assert base.words == aig.simulate_words(every_node, bench.words,
                                            bench.mask)


def test_replay_builds_no_unread_testbench(monkeypatch):
    # a one-cell replay fits that cell on its truth table, one testbench;
    # the explorer's final and search testbenches are never read
    built = []
    init = qor.Testbench.__init__

    def counted(self, original, *args):
        built.append(original.num_inputs)
        init(self, original, *args)
    monkeypatch.setattr(qor.Testbench, "__init__", counted)
    cfg = small_config(0.10, initial_parts=10)
    part = _Explorer(add8u(), cfg).parts[0]
    built.clear()
    replay(add8u(), cfg, [(part.id, 3)])
    assert built == [len(part.boundary_inputs)]


class ComposingBase:
    """``_Base``'s scoring interface, computed the slow way: each candidate
    is composed, which cleans it, and simulated whole on the search
    vectors."""

    def __init__(self, original, parts, bench):
        self.original, self.parts, self.bench = original, parts, bench

    def apply(self, replacements):
        self.replacements = replacements

    def substitute(self, part_id, cell):
        candidate = compose(self.original, self.parts,
                            {**self.replacements, part_id: cell})
        return and_count(candidate), candidate

    def error(self, candidate):
        return self.bench.measure(candidate).error

    def rollback(self):
        pass


def test_whole_runs_match_composing_scorer(monkeypatch):
    # every run scored through compose returns the same result, trace
    # included; c432 at max_inputs=8 takes the Monte-Carlo search path
    rng = random.Random(5)
    runs = [(c17(), small_config(0.15, initial_parts=2)),
            (add8u(), small_config(0.05, initial_parts=10)),
            (BENCHMARKS["c432"](), ExplorationConfig(partition=PartitionConfig(
                initial_parts=10, max_inputs=8)))]
    while len(runs) < 8:
        c = random_circuit(rng, 6, 40, 3)
        cfg = small_config(rng.choice((0.05, 0.15, 0.3)))
        if explore(c, cfg).trace:
            runs.append((c, cfg))
    for c, cfg in runs:
        fast = explore(c, cfg)
        with monkeypatch.context() as patch:
            # the package's ``explore`` attribute is the function
            patch.setattr(sys.modules["treesynth.explore"], "_Base",
                          ComposingBase)
            assert explore(c, cfg) == fast


def result_digest(res) -> str:
    """SHA-256 of a result's netlist, trace, substitutions and final QoR."""
    text = "\n".join([
        write_aiger(res.circuit),
        json.dumps([rec.as_dict() for rec in res.trace], sort_keys=True),
        json.dumps(res.substitutions), res.final_qor.to_json()])
    return hashlib.sha256(text.encode()).hexdigest()


PINNED_RESULTS = [
    ("c17", ExplorationConfig(error_threshold=0.10),
     "7836e8d4746508eff14baa3d9e8d9ad4f224e80b438c584a39d1a46b68bee303"),
    ("add8u", small_config(0.10, initial_parts=10),
     "257bf2f98db2f2154fe7b1c5ef91a6d0ead7822d0761abaecde0fa6f33c7ab4c"),
    # c432 and c880 are wider than max_inputs: the Monte-Carlo search path
    ("c432", ExplorationConfig(partition=PartitionConfig(max_inputs=8)),
     "274ad163bd36a8fc9f78b0be4fb4470e7452cfec03e4fcad0a7a2f9a5c9743e8"),
    ("c880", ExplorationConfig(partition=PartitionConfig(
        initial_parts=10, max_inputs=8)),
     "7bfab35032298fe637c32ea8718ea6b6e6c4ffba5eb9efb553ee6bd892b60f86"),
    # a node limit that some searches reach, so the run keeps best-so-far
    # trees and reports budget_exceeded
    ("mul7u", ExplorationConfig(
        error_threshold=0.1, node_limit=200,
        partition=PartitionConfig(initial_parts=10)),
     "ee7ea27986613a7a8c7f4a2cd7e4f86e76186b0cf9b55e20ad53300420df8308"),
]


@pytest.mark.parametrize("name,cfg,digest", PINNED_RESULTS,
                         ids=[run[0] for run in PINNED_RESULTS])
def test_results_are_pinned(name, cfg, digest):
    # a refactor or speed-up must leave every result byte-identical
    assert result_digest(explore(BENCHMARKS[name](), cfg)) == digest


def random_runs():
    """A hundred seeded runs on small random circuits, over beam
    widths, steps, node limits and partition shapes."""
    rng = random.Random(34)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(4, 8), rng.randint(10, 60),
                           rng.randint(1, 5))
        yield c, ExplorationConfig(
            error_threshold=rng.choice((0.05, 0.15, 0.3)),
            beam_width=rng.randint(1, 4), step=rng.randint(1, 2),
            node_limit=rng.choice((None, 3)),
            partition=PartitionConfig(initial_parts=rng.randint(2, 5),
                                      max_inputs=rng.randint(3, 8)))


def test_random_runs_are_pinned(monkeypatch):
    # one digest over every run's whole result; each run scores each beam
    # state exactly once, the start and one per trace record
    scored = []
    score_state = _Explorer.score_state

    def counted(self, stream_idx, applied):
        scored.append(applied)
        return score_state(self, stream_idx, applied)
    monkeypatch.setattr(_Explorer, "score_state", counted)
    digest = hashlib.sha256()
    for c, cfg in random_runs():
        scored.clear()
        res = explore(c, cfg)
        assert len(scored) == len(set(scored)) == 1 + len(res.trace)
        digest.update(json.dumps([
            [rec.as_dict() for rec in res.trace], res.substitutions,
            res.original_area, res.final_area, res.final_qor.to_json(),
            res.budget_exceeded, write_aiger(res.circuit)]).encode())
    assert digest.hexdigest() == (
        "7679b2902c4b2312ed9452ecc7f21c376811058666d89b6de8be1a6b9780d056")
