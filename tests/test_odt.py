"""Optimal decision tree learning."""

import random

import pytest

from treesynth.dataset import Dataset
from treesynth.odt import (Branch, DecisionTree, Leaf, OdtError, SearchBudget,
                           _Search, collapse, count_errors, fit_bruteforce,
                           fit_optimal, predict, to_sexpr)


def make_dataset(rng: random.Random, num_features: int, num_rows: int,
                 weighted: bool = False) -> Dataset:
    features = tuple(rng.getrandbits(num_rows) for _ in range(num_features))
    labels = rng.getrandbits(num_rows)
    weights = (tuple(rng.randint(1, 4) for _ in range(num_rows))
               if weighted else None)
    return Dataset(num_rows=num_rows, features=features, labels=labels,
                   weights=weights)


def xor_dataset():
    return Dataset(num_rows=4, features=(0b1010, 0b1100), labels=0b0110)


def test_predict():
    tree = type("T", (), {})()  # predict only reads .root
    tree.root = Branch(0, Leaf(0), Branch(1, Leaf(1), Leaf(0)))
    assert predict(tree, (0, 0)) == 0
    assert predict(tree, (1, 0)) == 1
    assert predict(tree, (1, 1)) == 0


def test_depth_zero_majority_leaf():
    d = xor_dataset()
    t = fit_optimal(d, SearchBudget(max_depth=0))
    assert isinstance(t.root, Leaf)
    assert t.train_error == 2
    assert t.realized_depth == 0


def test_xor_needs_depth_two():
    d = xor_dataset()
    t1 = fit_optimal(d, SearchBudget(max_depth=1))
    assert t1.train_error == 2  # no single split separates XOR
    t2 = fit_optimal(d, SearchBudget(max_depth=2))
    assert t2.train_error == 0
    assert t2.realized_depth == 2
    assert count_errors(t2, d) == 0


def test_train_error_is_consistent():
    rng = random.Random(7)
    for _ in range(50):
        d = make_dataset(rng, rng.randint(2, 6), rng.randint(4, 24))
        t = fit_optimal(d, SearchBudget(max_depth=rng.randint(0, 3)))
        assert count_errors(t, d) == t.train_error
        assert t.realized_depth <= 3
        assert t.proven_optimal


def test_matches_bruteforce_oracle():
    rng = random.Random(11)
    for _ in range(100):
        d = make_dataset(rng, rng.randint(2, 6), rng.randint(3, 20),
                         weighted=rng.random() < 0.3)
        depth = rng.randint(0, 3)
        fast = fit_optimal(d, SearchBudget(max_depth=depth))
        slow = fit_bruteforce(d, SearchBudget(max_depth=depth))
        assert fast.train_error == slow.train_error


def test_depth_monotone():
    rng = random.Random(13)
    for _ in range(20):
        d = make_dataset(rng, 5, 20)
        errs = [fit_optimal(d, SearchBudget(max_depth=k)).train_error
                for k in range(5)]
        assert errs == sorted(errs, reverse=True)


def test_weighted_errors():
    # one heavy disagreeing row should dominate the majority choice
    d = Dataset(num_rows=3, features=(0b000,),
                labels=0b100, weights=(1, 1, 5))
    t = fit_optimal(d, SearchBudget(max_depth=0))
    assert t.root == Leaf(1)
    assert t.train_error == 2


def test_collapse():
    node = Branch(0, Leaf(1), Branch(1, Leaf(1), Leaf(1)))
    assert collapse(node) == Leaf(1)


def test_fitted_trees_are_irreducible():
    # a split replaces the majority leaf only when strictly better, so no
    # fitted branch has two equal leaves and collapse changes no fitted tree
    rng = random.Random(37)
    for _ in range(300):
        d = make_dataset(rng, rng.randint(1, 6), rng.randint(1, 24),
                         weighted=rng.random() < 0.3)
        depth = rng.randint(0, 3)
        node_limit = rng.choice((None, rng.randint(0, 20)))
        for tree in (fit_optimal(d, SearchBudget(depth, node_limit)),
                     fit_bruteforce(d, SearchBudget(depth))):
            assert collapse(tree.root) == tree.root, to_sexpr(tree.root)


def test_to_sexpr():
    assert to_sexpr(Branch(2, Leaf(0), Leaf(1))) == "(x2 (leaf 0) (leaf 1))"


def test_empty_dataset_rejected():
    d = Dataset(num_rows=0, features=(0,), labels=0)
    with pytest.raises(OdtError):
        fit_optimal(d, SearchBudget(max_depth=1))


def test_negative_budget_rejected():
    for limits in ({"node_limit": -5}, {"time_limit": -1.0},
                   {"time_limit": float("nan")}):
        with pytest.raises(OdtError):
            SearchBudget(max_depth=1, **limits)
    SearchBudget(max_depth=1, node_limit=0, time_limit=0.0)  # zero is valid


def test_node_limit_returns_unproven_tree():
    rng = random.Random(17)
    d = make_dataset(rng, 8, 64)
    partial = fit_optimal(d, SearchBudget(max_depth=6, node_limit=3))
    assert not partial.proven_optimal
    assert count_errors(partial, d) == partial.train_error


def test_budgeted_fit_bypasses_memo():
    # an earlier unbudgeted fit of the same data must not answer a budgeted one
    rng = random.Random(17)
    d = make_dataset(rng, 8, 64)
    assert fit_optimal(d, SearchBudget(max_depth=6)).proven_optimal
    partial = fit_optimal(d, SearchBudget(max_depth=6, node_limit=3))
    assert not partial.proven_optimal
    assert count_errors(partial, d) == partial.train_error


def test_memo_hit_matches_fresh_search():
    rng = random.Random(23)
    for _ in range(50):
        d = make_dataset(rng, rng.randint(2, 6), rng.randint(3, 20),
                         weighted=rng.random() < 0.3)
        budget = SearchBudget(max_depth=rng.randint(0, 3))
        first = fit_optimal(d, budget)
        # an equal dataset built anew is answered from the memo
        twin = Dataset(num_rows=d.num_rows, features=d.features,
                       labels=d.labels, weights=d.weights)
        hit = fit_optimal(twin, budget)
        assert hit is first
        # a node limit bypasses the memo, so this is a fresh search
        fresh = fit_optimal(d, SearchBudget(max_depth=budget.max_depth,
                                            node_limit=10**9))
        assert hit == fresh
        assert hit == fit_bruteforce(d, budget)


def test_depth_one_fit_respects_node_limit():
    # the closed-form depth-1 step still checks the budget before a feature
    d = Dataset(num_rows=4, features=(0b1010, 0b1100), labels=0b1010)
    assert fit_optimal(d, SearchBudget(max_depth=1)).root == \
        Branch(0, Leaf(0), Leaf(1))
    partial = fit_optimal(d, SearchBudget(max_depth=1, node_limit=1))
    assert partial.root == Leaf(0)  # majority leaf, ties to 0
    assert partial.train_error == 2
    assert not partial.proven_optimal


def test_trees_match_bruteforce_oracle():
    # the whole tree, not only its error: same features, same tie-breaks
    rng = random.Random(29)
    for weighted in (False, True):
        for depth in (1, 2, 3):
            for _ in range(15):
                d = make_dataset(rng, rng.randint(1, 7), rng.randint(1, 40),
                                 weighted=weighted)
                budget = SearchBudget(max_depth=depth)
                fast = fit_optimal(d, budget)
                slow = fit_bruteforce(d, budget)
                assert to_sexpr(fast.root) == to_sexpr(slow.root)
                assert fast == slow


def test_expansions_pinned():
    # closed-form depth-1 nodes still count one expansion each
    d = make_dataset(random.Random(29), 10, 200)
    search = _Search(d, SearchBudget(max_depth=6))
    err, _ = search.solve(d.row_mask, 6)
    assert err == 11
    assert search.expansions == 11225


def random_tree(rng: random.Random, num_features: int, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return Leaf(rng.randint(0, 1))
    return Branch(rng.randrange(num_features),
                  random_tree(rng, num_features, depth - 1),
                  random_tree(rng, num_features, depth - 1))


def test_count_errors_matches_row_by_row():
    rng = random.Random(31)
    for _ in range(100):
        d = make_dataset(rng, rng.randint(1, 6), rng.randint(1, 50),
                         weighted=rng.random() < 0.5)
        tree = DecisionTree(root=random_tree(rng, d.num_features, 5),
                            train_error=0)
        expected = sum(d.weights[r] if d.weights else 1
                       for r, (bits, label) in enumerate(d.rows())
                       if predict(tree, bits) != label)
        assert count_errors(tree, d) == expected


def test_count_errors_rejects_out_of_range_feature():
    d = xor_dataset()
    tree = DecisionTree(root=Branch(2, Leaf(0), Leaf(1)), train_error=0)
    with pytest.raises(OdtError):
        count_errors(tree, d)


def test_bruteforce_guard():
    rng = random.Random(19)
    d = make_dataset(rng, 11, 8)
    with pytest.raises(OdtError):
        fit_bruteforce(d, SearchBudget(max_depth=2))
    with pytest.raises(OdtError):
        fit_bruteforce(make_dataset(rng, 3, 8), SearchBudget(max_depth=4))
