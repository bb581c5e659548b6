"""Tree-to-circuit resynthesis and circuit approximation."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treesynth.aig import and_count
from treesynth.dataset import Dataset
from treesynth.explore import ExplorationConfig, explore
from treesynth.odt import DecisionTree, OdtError, SearchBudget, fit_optimal, predict
from treesynth.partition import PartitionConfig, partition
from treesynth import odt, synth
from treesynth.synth import approx_sub_circuit, tree_to_aig, trees_to_aig

from conftest import clear_memos, random_circuit
from reference import c17, mul7u, simulate, xor4


def make_tree(root) -> DecisionTree:
    return DecisionTree(root=root, train_error=0)


def test_leaf_trees_are_constants():
    for label in (0, 1):
        c = tree_to_aig(make_tree(label), 3)
        assert and_count(c) == 0
        assert simulate(c, [(0, 0, 0), (1, 1, 1)]) == [(label,), (label,)]


def test_single_split_is_a_wire():
    c = tree_to_aig(make_tree((1, 0, 1)), 3)
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
    t = make_tree((0, 0, (1, 0, 1)))
    together = trees_to_aig([t, t], 2)
    assert and_count(together) == and_count(tree_to_aig(t, 2))
    assert together.num_outputs == 2


def test_tree_form_with_a_shared_subtree():
    # a tree is the search's own nodes: a label, or (feature, low, high)
    # with the feature-0 child first; a subtree may appear twice
    s = (1, 0, 1)
    t = make_tree((0, s, (2, s, 1)))
    assert t.realized_depth == 3  # x0 = 1, x2 = 0, then x1
    vecs = list(itertools.product((0, 1), repeat=3))
    assert [predict(t, v) for v in vecs] == \
        [x1 | (x0 & x2) for x0, x1, x2 in vecs]
    c = tree_to_aig(t, 3)
    assert simulate(c, vecs) == [(predict(t, v),) for v in vecs]
    assert and_count(trees_to_aig([t, t], 3)) == and_count(c)


def test_each_distinct_node_is_lowered_once(monkeypatch):
    # the 14 depth-6 trees of mul7u share subtrees; lowering walked each
    # once per path, 1 468 node checks for 581 distinct branch nodes, and
    # 571 since the search shares equal values at every depth: equal
    # subtrees are one object, so lowering checks fewer of them and builds
    # the same AIG
    checked = []
    monkeypatch.setattr(synth, "check_node", lambda node, width: (
        checked.append(node), odt.check_node(node, width)))
    approx = approx_sub_circuit(mul7u(), 6)
    distinct = {}  # id -> node, over every tree
    stack = [t.root for t in approx.per_output_trees]
    while stack:
        node = stack.pop()
        if id(node) not in distinct:
            distinct[id(node)] = node
            if not isinstance(node, int):
                stack += node[1:]
    assert len(approx.per_output_trees) == 14
    assert sum(not isinstance(n, int) for n in distinct.values()) == 571
    assert len(checked) == len(distinct)  # 571 branches, leaves 0 and 1
    assert {id(n) for n in checked} == distinct.keys()


@st.composite
def lowered_trees(draw):
    """One to four arbitrary trees, lowered together or (one) alone: each
    branch tests any feature, repeats along a path included, and its
    children are drawn from the constants and the earlier branches, so
    subtrees are shared and both children may be the same node."""
    num_inputs = draw(st.integers(1, 4))
    nodes = [0, 1]
    for _ in range(draw(st.integers(0, 24))):
        pick = st.sampled_from(nodes)
        nodes.append((draw(st.integers(0, num_inputs - 1)), draw(pick),
                      draw(pick)))
    roots = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
    trees = [make_tree(root) for root in roots]
    if len(trees) == 1 and draw(st.booleans()):
        return tree_to_aig(trees[0], num_inputs)
    return trees_to_aig(trees, num_inputs)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(lowered_trees())
def test_lowering_builds_no_dead_node(circuit):
    # the synth module's invariant: an approximation's area is its node count
    assert len(circuit.ands) == and_count(circuit)


def test_feature_out_of_range():
    with pytest.raises(OdtError):
        tree_to_aig(make_tree((5, 0, 1)), 2)


def test_negative_feature_rejected():
    # predict used to read the last feature, and lowering raised AigError
    tree = make_tree((0, 0, (-1, 0, 1)))
    with pytest.raises(OdtError):
        predict(tree, (1, 1))
    with pytest.raises(OdtError):
        tree_to_aig(tree, 2)


def test_malformed_node_rejected():
    # predict returned the label 7 while lowering built the constant 1;
    # the other nodes leaked ValueError or TypeError
    for root in ((0, 7, 0), (1, 0, (0, -2, 1)), (0, 1), ("0", 0, 1), "1"):
        tree = make_tree(root)
        with pytest.raises(OdtError):
            predict(tree, (0, 1))  # the path ends at the bad node
        with pytest.raises(OdtError):
            tree_to_aig(tree, 2)


def test_exact_approximation_of_small_cell():
    # a cell of at most 4 inputs is exact at depth 4
    parts = partition(c17(), PartitionConfig(max_inputs=4, initial_parts=2))
    assert len(parts) > 1
    for sub in parts:
        approx = approx_sub_circuit(sub.extracted, md=4)
        assert approx.exact
        n = sub.extracted.num_inputs
        vecs = list(itertools.product((0, 1), repeat=n))
        assert simulate(approx.circuit, vecs) == simulate(sub.extracted,
                                                          vecs)


def test_xor4_is_inexact_at_depth_one(rng):
    # XOR of 4 inputs is not depth-1 learnable
    approx = approx_sub_circuit(xor4(), md=1)
    assert not approx.exact


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


def test_depth_zero_gives_majority_constants(rng):
    c = random_circuit(rng, 3, 5, 2)
    approx = approx_sub_circuit(c, md=0)
    assert and_count(approx.circuit) == 0
    vecs = list(itertools.product((0, 1), repeat=3))
    majorities = tuple(int(2 * sum(column) > len(column))  # ties to 0
                       for column in zip(*simulate(c, vecs)))
    assert tuple(t.root for t in approx.per_output_trees) == majorities
    assert simulate(approx.circuit, vecs) == [majorities] * len(vecs)
    with pytest.raises(OdtError):
        approx_sub_circuit(c, md=-1)
