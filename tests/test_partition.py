"""Bounded-interface decomposition."""

import dataclasses
import itertools
import random

import pytest

from treesynth.aig import (Aig, AigError, and_count, cleanup, compose,
                           simulate)
from treesynth.bench import BENCHMARKS
from treesynth.partition import (PartitionConfig, extract, partition,
                                 partition_report)
from treesynth.qor import qor_exhaustive, qor_monte_carlo

from conftest import clear_memos, random_circuit


def check_soundness(circuit, parts, config):
    circuit = cleanup(circuit)
    first_and = circuit.num_inputs + 1
    and_nodes = set(range(first_and, first_and + len(circuit.ands)))

    # cells cover the AND nodes exactly once
    covered = set()
    for p in parts:
        assert not (covered & p.member_nodes)
        covered |= p.member_nodes
    assert covered == and_nodes

    # interface budgets hold
    for p in parts:
        assert len(p.boundary_inputs) <= config.max_inputs
        assert len(p.boundary_outputs) <= config.max_outputs

    # global order: boundary inputs of a cell come from earlier cells or PIs
    owner = {n: p.id for p in parts for n in p.member_nodes}
    for p in parts:
        for src in p.boundary_inputs:
            if src >= first_and:
                assert owner[src] < p.id


def identity_recompose_error(circuit, parts) -> float:
    replacements = {p.id: p.extracted for p in parts}
    rebuilt = compose(cleanup(circuit), parts, replacements)
    # an unsubstituted cell is inlined as its own extraction
    assert rebuilt == compose(cleanup(circuit), parts, {})
    if circuit.num_inputs <= 16:
        return qor_exhaustive(circuit, rebuilt).error
    return qor_monte_carlo(circuit, rebuilt, 10_000, 0).error


def test_config_validation():
    with pytest.raises(AigError):
        PartitionConfig(max_inputs=1)
    with pytest.raises(AigError):
        PartitionConfig(max_outputs=0)
    with pytest.raises(AigError):
        PartitionConfig(initial_parts=1)


def test_extract_is_functional():
    rng = random.Random(29)
    c = random_circuit(rng, 4, 12, 2)
    first_and = c.num_inputs + 1
    members = list(range(first_and, first_and + 6))
    sub = extract(c, members)
    assert sub.member_nodes == frozenset(members)
    assert sub.extracted.num_inputs == len(sub.boundary_inputs)
    assert sub.extracted.num_outputs == len(sub.boundary_outputs)


def test_extract_rejects_non_and_nodes():
    rng = random.Random(31)
    c = random_circuit(rng, 3, 5, 1)
    with pytest.raises(AigError):
        extract(c, [1])  # a primary input


def test_partition_empty_circuit():
    c = Aig(num_inputs=3, ands=(), outputs=(2,))
    assert partition(c, PartitionConfig()) == []


def test_partition_benchmarks_sound():
    config = PartitionConfig()
    for name, build in BENCHMARKS.items():
        c = build()
        parts = partition(c, config)
        check_soundness(c, parts, config)
        assert identity_recompose_error(c, parts) == 0.0


def test_partition_random_circuits():
    rng = random.Random(37)
    config = PartitionConfig(max_inputs=6, max_outputs=3, initial_parts=3)
    for _ in range(15):
        c = random_circuit(rng, rng.randint(3, 8), rng.randint(5, 60),
                           rng.randint(1, 4))
        parts = partition(c, config)
        check_soundness(c, parts, config)
        assert identity_recompose_error(c, parts) == 0.0


def test_partition_deterministic():
    c = BENCHMARKS["add8u"]()
    config = PartitionConfig()
    first = partition(c, config)
    clear_memos()
    second = partition(c, config)
    assert [p.member_nodes for p in first] == [p.member_nodes for p in second]
    assert [p.extracted for p in first] == [p.extracted for p in second]


def test_partition_returns_fresh_list():
    c = BENCHMARKS["add8u"]()
    config = PartitionConfig()
    first = partition(c, config)
    expected = list(first)
    first.reverse()
    first.pop()
    second = partition(c, config)
    assert second == expected
    assert second is not first


def test_substitution_with_exact_replacement():
    rng = random.Random(41)
    c = random_circuit(rng, 5, 30, 3)
    parts = partition(c, PartitionConfig(max_inputs=6, max_outputs=3,
                                         initial_parts=3))
    # replacing one cell with its own extraction is a no-op functionally
    target = parts[len(parts) // 2]
    rebuilt = compose(cleanup(c), parts, {target.id: target.extracted})
    vecs = list(itertools.product((0, 1), repeat=5))
    assert simulate(rebuilt, vecs) == simulate(c, vecs)


def test_replacement_interface_checked():
    rng = random.Random(43)
    c = random_circuit(rng, 4, 12, 2)
    parts = partition(c, PartitionConfig(max_inputs=5, max_outputs=3))
    from treesynth.aig import AigBuilder
    wrong = AigBuilder(17).build()
    with pytest.raises(AigError):
        compose(cleanup(c), parts, {parts[0].id: wrong})


def test_unknown_part_id_rejected():
    c = cleanup(BENCHMARKS["add8u"]())
    parts = partition(c, PartitionConfig())
    for pid in (99, -1):
        with pytest.raises(AigError, match="unknown part id"):
            compose(c, parts, {pid: parts[-1].extracted})


def test_cells_out_of_flow_order_rejected():
    c = cleanup(BENCHMARKS["add8u"]())
    parts = partition(c, PartitionConfig())
    assert len(parts) > 1
    with pytest.raises(AigError, match="before it is built"):
        compose(c, parts[::-1], {})


def test_non_boundary_member_read_outside_rejected():
    # drop a boundary output from a cell: its reader cannot see the node
    c = cleanup(BENCHMARKS["add8u"]())
    parts = partition(c, PartitionConfig())
    cell = parts[0]
    hidden = Aig(cell.extracted.num_inputs, cell.extracted.ands,
                 cell.extracted.outputs[1:])
    parts[0] = dataclasses.replace(
        cell, boundary_outputs=cell.boundary_outputs[1:], extracted=hidden)
    for replacements in ({}, {cell.id: hidden}):
        with pytest.raises(AigError, match="before it is built"):
            compose(c, parts, replacements)


def test_partition_report():
    c = BENCHMARKS["c17"]()
    parts = partition(c, PartitionConfig(initial_parts=2))
    report = partition_report(cleanup(c), parts)
    assert report["num_parts"] == len(parts)
    assert len(report["parts"]) == len(parts)
    assert all(p["size"] > 0 for p in report["parts"])
    total = sum(p["size"] for p in report["parts"])
    assert total == and_count(c)
