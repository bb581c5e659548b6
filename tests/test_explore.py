"""Greedy exploration of the area-vs-error trade-off."""

import math

import pytest

from treesynth.aig import Aig, AigError, and_count, simulate
from treesynth.bench import add8u, mul7u
from treesynth.explore import (ExplorationConfig, explore, loss, replay)
from treesynth.partition import PartitionConfig
from treesynth.qor import qor_exhaustive

from conftest import clear_memos, random_circuit


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


def test_deterministic(rng):
    c = random_circuit(rng, 6, 40, 3)
    cfg = small_config(0.1)
    r1 = explore(c, cfg)
    clear_memos()
    r2 = explore(c, cfg)
    assert r1.circuit == r2.circuit
    assert r1.trace == r2.trace
    assert r1.final_qor == r2.final_qor


def test_stream_depths_monotone(rng):
    """Per-cell depth budgets never increase along a trace."""
    c = random_circuit(rng, 6, 40, 3)
    res = explore(c, small_config(0.2))
    last_md: dict[int, int] = {}
    for rec in res.trace:
        if rec.part in last_md:
            assert rec.md <= last_md[rec.part]
        last_md[rec.part] = rec.md


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
