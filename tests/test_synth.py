"""Tree-to-circuit resynthesis and circuit approximation."""

import dataclasses
import itertools
import random

import pytest

from treesynth.aig import AigBuilder, and_count, simulate
from treesynth.dataset import Dataset
from treesynth.explore import ExplorationConfig, explore
from treesynth.odt import (Branch, DecisionTree, Leaf, OdtError, SearchBudget,
                           fit_optimal, predict)
from treesynth.partition import PartitionConfig, extract, partition
from treesynth.synth import approx_sub_circuit, tree_to_aig, trees_to_aig

from conftest import clear_memos, random_circuit


def make_tree(root) -> DecisionTree:
    return DecisionTree(root=root, train_error=0)


def test_leaf_trees_are_constants():
    for label in (0, 1):
        c = tree_to_aig(make_tree(Leaf(label)), 3)
        assert and_count(c) == 0
        assert simulate(c, [(0, 0, 0), (1, 1, 1)]) == [(label,), (label,)]


def test_single_split_is_a_wire():
    c = tree_to_aig(make_tree(Branch(1, Leaf(0), Leaf(1))), 3)
    assert and_count(c) == 0  # mux(x, 1, 0) folds to the selector itself
    assert simulate(c, [(0, 1, 0), (0, 0, 0)]) == [(1,), (0,)]


def test_tree_circuit_agrees_with_predict():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 5)
        d = Dataset(num_rows=1 << n,
                    features=tuple(rng.getrandbits(1 << n) for _ in range(n)),
                    labels=rng.getrandbits(1 << n))
        tree = fit_optimal(d, SearchBudget(max_depth=rng.randint(1, 3)))
        c = tree_to_aig(tree, n)
        for vec in itertools.product((0, 1), repeat=n):
            assert simulate(c, [vec])[0] == (predict(tree, vec),)


def test_trees_share_structure():
    t = make_tree(Branch(0, Leaf(0), Branch(1, Leaf(0), Leaf(1))))
    together = trees_to_aig([t, t], 2)
    assert and_count(together) == and_count(tree_to_aig(t, 2))
    assert together.num_outputs == 2


def test_feature_out_of_range():
    with pytest.raises(OdtError):
        tree_to_aig(make_tree(Branch(5, Leaf(0), Leaf(1))), 2)


def test_exact_approximation_of_small_cell(rng):
    c = random_circuit(rng, 4, 12, 2)
    first_and = c.num_inputs + 1
    sub = extract(c, range(first_and, first_and + len(c.ands)))
    approx = approx_sub_circuit(sub.extracted, md=4)
    assert approx.exact
    assert approx.md <= 4  # records the realized depth when exact
    n = sub.extracted.num_inputs
    vecs = list(itertools.product((0, 1), repeat=n))
    assert simulate(approx.circuit, vecs) == simulate(sub.extracted, vecs)


def xor4():
    b = AigBuilder(4)
    x = b.input_lit(0)
    for i in range(1, 4):
        x = b.xor_(x, b.input_lit(i))
    b.add_output(x)
    return b.build()


def test_inexact_approximation_reports_requested_depth(rng):
    # XOR of 4 inputs is not depth-1 learnable
    c = xor4()
    sub = extract(c, range(5, 5 + len(c.ands)))
    approx = approx_sub_circuit(sub.extracted, md=1)
    assert not approx.exact
    assert approx.md == 1


def test_node_limit_leaves_unproven_result():
    # an exhausted search is not an error: its best tree is used, unproven
    c = xor4()
    assert approx_sub_circuit(c, md=2).proven
    approx = approx_sub_circuit(c, md=2, node_limit=1)
    assert not approx.proven
    assert not approx.per_output_trees[0].proven_optimal
    vecs = list(itertools.product((0, 1), repeat=4))
    mismatches = sum(g != w for g, w in zip(simulate(approx.circuit, vecs),
                                            simulate(c, vecs)))
    assert mismatches == approx.per_output_trees[0].train_error


def test_approximation_error_matches_tree_error(rng):
    c = random_circuit(rng, 5, 18, 3)
    parts = partition(c, PartitionConfig(initial_parts=2))
    sub = parts[0]
    approx = approx_sub_circuit(sub.extracted, md=2)
    n = sub.extracted.num_inputs
    vecs = list(itertools.product((0, 1), repeat=n))
    got = simulate(approx.circuit, vecs)
    want = simulate(sub.extracted, vecs)
    mismatches = sum(a != b for row_g, row_w in zip(got, want)
                     for a, b in zip(row_g, row_w))
    assert mismatches == sum(t.train_error for t in approx.per_output_trees)


def test_jobs_do_not_change_the_result(rng):
    # ``jobs`` is accepted and ignored; callers passing it get the same run
    c = random_circuit(rng, 5, 20, 3)
    config = ExplorationConfig(error_threshold=0.15,
                               partition=PartitionConfig(initial_parts=2))
    serial = explore(c, dataclasses.replace(config, jobs=1))
    clear_memos()
    threaded = explore(c, dataclasses.replace(config, jobs=4))
    assert serial.trace
    assert serial == threaded


def test_whole_circuit_approximation(rng):
    c = random_circuit(rng, 4, 15, 2)
    approx = approx_sub_circuit(c, md=4)
    assert approx.exact
    vecs = list(itertools.product((0, 1), repeat=4))
    assert simulate(approx.circuit, vecs) == simulate(c, vecs)


def test_depth_zero_rejected(rng):
    c = random_circuit(rng, 3, 5, 1)
    with pytest.raises(OdtError):
        approx_sub_circuit(c, md=0)
