"""Bounded-interface decomposition."""

import dataclasses
import hashlib
import importlib
import itertools
import random

import pytest

from treesynth.aig import (Aig, AigError, and_count, cleanup, compose,
                           extend_words, simulate_words,
                           truth_table_input_words)
from treesynth.partition import (BALANCE, MAX_FM_PASSES, PartitionConfig,
                                 _fm_bipartition, _fm_passes, _member_nets,
                                 _Netlist, partition, partition_report)
from treesynth.qor import qor_exhaustive, qor_monte_carlo

from conftest import clear_memos, random_circuit
from reference import BENCHMARKS, simulate

# the package binds ``treesynth.partition`` to the function of that name
partition_module = importlib.import_module("treesynth.partition")


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

    # a cell's extraction is its member nodes, every one live, so its node
    # count is its area (the explorer reads it so)
    for p in parts:
        assert len(p.extracted.ands) == and_count(p.extracted) == len(
            p.member_nodes)

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
    # a wrong type is bad input: "3" raised TypeError, 3.5 was accepted
    for value in ("3", 3.5):
        with pytest.raises(AigError, match="max_inputs"):
            PartitionConfig(max_inputs=value)


def test_extract_is_functional():
    # each cell's extraction computes, from the words of its boundary
    # inputs, the words its boundary outputs carry in the whole circuit
    rng = random.Random(29)
    c = cleanup(random_circuit(rng, 4, 12, 2))
    parts = partition(c, PartitionConfig(max_inputs=3, max_outputs=2,
                                         initial_parts=2))
    assert len(parts) > 1
    mask = (1 << (1 << c.num_inputs)) - 1
    words = [0, *truth_table_input_words(c.num_inputs)]
    extend_words(words, c.ands, c.num_inputs + 1, mask)
    for sub in parts:
        assert sub.extracted.num_inputs == len(sub.boundary_inputs)
        assert sub.extracted.num_outputs == len(sub.boundary_outputs)
        assert set(sub.boundary_outputs) <= sub.member_nodes
        assert simulate_words(sub.extracted,
                              [words[n] for n in sub.boundary_inputs],
                              mask) == [words[n]
                                        for n in sub.boundary_outputs]


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
    with pytest.raises(AigError, match="not an Aig"):  # was AttributeError
        compose(cleanup(c), parts, {parts[0].id: "x"})


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


# the configs of the pinned digest and of the FM oracle
PINNED_CONFIGS = (
    PartitionConfig(),
    PartitionConfig(initial_parts=10),
    PartitionConfig(initial_parts=10, max_inputs=8),
    PartitionConfig(max_inputs=6, max_outputs=2, initial_parts=3),
)
PINNED_CELLS_SHA256 = (
    "e17916740cc012dca1b4fdcc51fb13ee0a4c4c2b0d9eb01194b1a2e846df3be5")


def test_partition_cells_pinned():
    # every cell of every benchmark under the pinned configs, as the
    # quadratic FM loop computed them
    digest = hashlib.sha256()
    for config in PINNED_CONFIGS:
        for name, build in BENCHMARKS.items():
            for p in partition(build(), config):
                digest.update(repr((name, sorted(p.member_nodes),
                                    p.boundary_inputs,
                                    p.boundary_outputs)).encode())
    assert digest.hexdigest() == PINNED_CELLS_SHA256


def quadratic_fm_passes(members, nets, vertex_nets):
    """Reference FM passes: every gain recomputed from the pin lists before
    every move, O(n^2 * pins) per pass."""
    n = len(members)
    side = {v: (0 if i < n // 2 else 1) for i, v in enumerate(members)}
    lo = max(1, int((0.5 - BALANCE) * n))
    hi = n - lo

    def gain(v):
        g = 0
        s = side[v]
        for ni in vertex_nets[v]:
            same = sum(1 for p in nets[ni] if side[p] == s)
            other = len(nets[ni]) - same
            if same == 1:
                g += 1
            if other == 0:
                g -= 1
        return g

    for _ in range(MAX_FM_PASSES):
        locked = set()
        moves, gains = [], []
        sizes = [n - sum(side.values()), sum(side.values())]
        saved = dict(side)
        while len(locked) < n:
            best_v, best_g = None, None
            for v in members:
                if v in locked:
                    continue
                s = side[v]
                if sizes[s] - 1 < lo or sizes[1 - s] + 1 > hi:
                    continue
                g = gain(v)
                if best_g is None or g > best_g:
                    best_v, best_g = v, g
            if best_v is None:
                break
            locked.add(best_v)
            moves.append(best_v)
            gains.append(best_g)
            sizes[side[best_v]] -= 1
            side[best_v] ^= 1
            sizes[side[best_v]] += 1
        best_prefix, best_total, total = 0, 0, 0
        for i, g in enumerate(gains):
            total += g
            if total > best_total:
                best_total, best_prefix = total, i + 1
        side = saved
        if best_total <= 0:
            break
        for v in moves[:best_prefix]:
            side[v] ^= 1
    return side


def oracle_member_sets():
    """(netlist, member set) pairs: random member sets of seeded random
    circuits, and benchmark cells and unions of neighbouring cells."""
    rng = random.Random(53)
    for _ in range(60):
        c = cleanup(random_circuit(rng, rng.randint(3, 10),
                                   rng.randint(10, 200), rng.randint(1, 20)))
        net = _Netlist(c)
        if len(net.nodes) < 2:
            continue
        for _ in range(3):
            size = rng.randint(2, len(net.nodes))
            yield net, rng.sample(net.nodes, size)
        yield net, list(net.nodes)
    for name in ("c17", "add8u", "c432", "c880", "c1908"):
        c = cleanup(BENCHMARKS[name]())
        net = _Netlist(c)
        if len(net.nodes) <= 128:
            yield net, list(net.nodes)
        for config in PINNED_CONFIGS[1:3]:
            parts = partition(c, config)
            for a, b in zip(parts, parts[1:]):
                yield net, sorted(a.member_nodes)
                yield net, sorted(a.member_nodes | b.member_nodes)


def test_fm_matches_quadratic_oracle(monkeypatch):
    cases = list(oracle_member_sets())
    for net, members in cases:
        members = sorted(members)
        nets, vertex_nets = _member_nets(net, members)
        assert (_fm_passes(members, nets, vertex_nets)
                == quadratic_fm_passes(members, nets, vertex_nets))
    fast = [_fm_bipartition(net, members) for net, members in cases]
    monkeypatch.setattr(partition_module, "_fm_passes", quadratic_fm_passes)
    assert [_fm_bipartition(net, members) for net, members in cases] == fast
