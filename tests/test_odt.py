"""Optimal decision tree learning."""

import random
from pathlib import Path

import pytest

from treesynth.aig import truth_table_input_words
from treesynth.bench import BENCHMARKS, add8u, c17, mul7u
from treesynth.dataset import Dataset, parse_pla, truth_tables
from treesynth.odt import (LEAF_0, LEAF_1, Branch, DecisionTree, Leaf,
                           OdtError, SearchBudget, _Search, _tree, collapse,
                           fit_bruteforce, fit_optimal, predict)
from treesynth.partition import PartitionConfig, partition

from conftest import random_circuit

PLA = Path(__file__).resolve().parents[1] / "benchmarks" / "pla"


def make_dataset(rng: random.Random, num_features: int, num_rows: int,
                 weighted: bool = False) -> Dataset:
    features = tuple(rng.getrandbits(num_rows) for _ in range(num_features))
    labels = rng.getrandbits(num_rows)
    weights = (tuple(rng.randint(1, 4) for _ in range(num_rows))
               if weighted else None)
    return Dataset(num_rows=num_rows, features=features, labels=labels,
                   weights=weights)


def row_errors(tree: DecisionTree, data: Dataset) -> int:
    """Weighted count of the rows that ``predict`` gets wrong."""
    return sum(data.weights[r] if data.weights else 1
               for r, (bits, label) in enumerate(data.rows())
               if predict(tree, bits) != label)


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
    assert row_errors(t2, d) == 0


def test_train_error_is_consistent():
    rng = random.Random(7)
    for _ in range(50):
        d = make_dataset(rng, rng.randint(2, 6), rng.randint(4, 24))
        t = fit_optimal(d, SearchBudget(max_depth=rng.randint(0, 3)))
        assert row_errors(t, d) == t.train_error
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
            assert collapse(tree.root) == tree.root, tree.root


def test_empty_dataset_rejected():
    d = Dataset(num_rows=0, features=(0,), labels=0)
    for fit in (fit_optimal, fit_bruteforce):
        with pytest.raises(OdtError):
            fit(d, SearchBudget(max_depth=1))


def test_negative_budget_rejected():
    for limits in ({"max_depth": -1}, {"node_limit": -5},
                   {"time_limit": -1.0}, {"time_limit": float("nan")}):
        with pytest.raises(OdtError):
            SearchBudget(**{"max_depth": 1, **limits})
    SearchBudget(max_depth=1, node_limit=0, time_limit=0.0)  # zero is valid


def test_node_limit_returns_unproven_tree():
    rng = random.Random(17)
    d = make_dataset(rng, 8, 64)
    partial = fit_optimal(d, SearchBudget(max_depth=6, node_limit=3))
    assert not partial.proven_optimal
    assert row_errors(partial, d) == partial.train_error
    # a time limit of zero has passed by the first check of the deadline
    for data in truth_tables(c17()):
        partial = fit_optimal(data, SearchBudget(max_depth=3, time_limit=0.0))
        assert not partial.proven_optimal
        assert row_errors(partial, data) == partial.train_error


def test_budgeted_fit_bypasses_memo():
    # an earlier unbudgeted fit of the same data must not answer a budgeted one
    rng = random.Random(17)
    d = make_dataset(rng, 8, 64)
    assert fit_optimal(d, SearchBudget(max_depth=6)).proven_optimal
    partial = fit_optimal(d, SearchBudget(max_depth=6, node_limit=3))
    assert not partial.proven_optimal
    assert row_errors(partial, d) == partial.train_error


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
                assert fast == slow


def test_expansions_pinned():
    # closed-form depth-1 nodes still count one expansion each
    d = make_dataset(random.Random(29), 10, 200)
    search = _Search(d, SearchBudget(max_depth=6))
    err, _ = search.solve(d.row_mask, 6)
    assert err == 11
    assert search.expansions == 11225


def test_memo_holds_only_expanded_subproblems():
    # a pure or depth-0 subproblem is its majority leaf and gets no entry,
    # so an unbudgeted search ends with one memo entry per expansion
    fits = []
    for make in (c17, add8u, mul7u):
        for part in partition(make(), PartitionConfig(initial_parts=10)):
            fits += [(data, depth) for data in truth_tables(part.extracted)
                     for depth in (1, 2, 3)]
    for name in ("add8u_cout", "mul7u_p12"):
        data = parse_pla((PLA / f"{name}_train.pla").read_text())
        fits += [(data, depth) for depth in (2, 3, 4)]
    for data, depth in fits:
        search = _Search(data, SearchBudget(max_depth=depth))
        search.solve(data.row_mask, depth)
        assert len(search.memos) == depth + 1
        assert not search.memos[0]
        assert memo_size(search) == search.expansions, depth


def memo_size(search: _Search) -> int:
    return sum(map(len, search.memos))


def memos_within(partial: _Search, full: _Search) -> bool:
    """Each memo of ``partial`` is a subset of the full search's memo of
    the same depth."""
    return (len(partial.memos) == len(full.memos)
            and all(p.items() <= f.items()
                    for p, f in zip(partial.memos, full.memos)))


class MaskKeyedSearch(_Search):
    """The search keyed on the row mask on every dataset: the reference
    for the cofactor key of complete truth tables."""

    def __init__(self, data: Dataset, budget: SearchBudget):
        super().__init__(data, budget)
        self.cube = False


def cell_tables(circuit) -> list[Dataset]:
    """The truth table of every cell output at ``initial_parts=10``."""
    return [data for part in partition(circuit,
                                       PartitionConfig(initial_parts=10))
            for data in truth_tables(part.extracted)]


def assert_keys_agree(data: Dataset, depth: int) -> tuple[int, int]:
    """The cofactor and the mask key give one result, and each search ends
    with one memo entry per expansion; returns both expansion counts."""
    cofactor = _Search(data, SearchBudget(max_depth=depth))
    masked = MaskKeyedSearch(data, SearchBudget(max_depth=depth))
    assert cofactor.cube
    assert (cofactor.solve(data.row_mask, depth)
            == masked.solve(data.row_mask, depth))
    for search in (cofactor, masked):
        assert not search.memos[0]
        assert memo_size(search) == search.expansions
    assert_row_keys(masked, data)
    # a cube key is (cofactor, fixed): the path to a subproblem with d
    # levels left fixes depth - d features, and the cofactor lies in the
    # cube where every fixed feature is 0
    for d, memo in enumerate(cofactor.memos):
        for cof, fixed in memo:
            assert fixed >> data.num_features == 0
            assert fixed.bit_count() == depth - d
            taken = 0  # the rows that set a fixed feature to 1
            for f, word in enumerate(data.features):
                if fixed >> f & 1:
                    taken |= word
            assert cof & taken == 0
    return cofactor.expansions, masked.expansions


def assert_row_keys(search: _Search, data: Dataset) -> None:
    """Every memo key of a row-keyed search is a nonempty submask of the
    data's rows."""
    assert not search.cube
    for memo in search.memos:
        for key in memo:
            assert isinstance(key, int)
            assert key and key & ~data.row_mask == 0


def test_cofactor_key_matches_mask_key_on_random_tables():
    rng = random.Random(41)
    totals = [0, 0]
    for _ in range(1000):
        n = rng.randint(1, 9)
        if rng.random() < 0.5:
            data = truth_tables(random_circuit(rng, n, rng.randint(1, 4 * n),
                                               1))[0]
        else:
            data = Dataset(num_rows=1 << n,
                           features=tuple(truth_table_input_words(n)),
                           labels=rng.getrandbits(1 << n))
        for i, count in enumerate(assert_keys_agree(data, rng.randint(0, 5))):
            totals[i] += count
    assert totals[0] < totals[1]  # equal cofactors share work


def test_cofactor_key_matches_mask_key_on_benchmark_cells():
    for build in BENCHMARKS.values():
        for data in cell_tables(build()):
            for depth in (1, 2, 3, 4):
                assert_keys_agree(data, depth)


def test_only_complete_unweighted_tables_take_cofactor_key():
    # the cofactor key shifts by the row offset of a cube, which is right
    # only when row r sets feature i to bit i of r and every row weighs 1
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = 1 << n
        words = truth_table_input_words(n)
        labels = rng.getrandbits(rows)
        order = list(range(n))
        while order == sorted(order):
            rng.shuffle(order)
        keep = (1 << (rows - 1)) - 1
        r = rng.randrange(rows)
        tables = [
            Dataset(num_rows=rows, features=tuple(words[i] for i in order),
                    labels=labels),
            Dataset(num_rows=rows, features=tuple(words), labels=labels,
                    weights=tuple(rng.randint(1, 3) for _ in range(rows))),
            Dataset(num_rows=rows - 1,
                    features=tuple(w & keep for w in words),
                    labels=labels & keep),
            Dataset(num_rows=rows + 1,
                    features=tuple(w | ((w >> r) & 1) << rows for w in words),
                    labels=labels | ((labels >> r) & 1) << rows),
        ]
        for data in tables:
            for depth in (1, 2, 3):
                budget = SearchBudget(max_depth=depth)
                search = _Search(data, budget)
                assert not search.cube
                err, root = search.solve(data.row_mask, depth)
                assert (DecisionTree(root=_tree(root), train_error=err)
                        == fit_bruteforce(data, budget))


def test_cofactor_expansions_pinned():
    # the mask key expands 7 373 subproblems on the same 237 fits
    total = 0
    for data in cell_tables(mul7u()):
        for depth in (1, 2, 3):
            search = _Search(data, SearchBudget(max_depth=depth))
            search.solve(data.row_mask, depth)
            total += search.expansions
    assert total == 5858


def test_budgeted_fit_on_complete_table():
    # a node limit cuts the cofactor-keyed search of mul7u's hardest cell
    # table short: the tree is unproven and no better, and the memo keeps
    # only subproblems it solved to optimality
    depth = 4
    runs = []
    for data in cell_tables(mul7u()):
        full = _Search(data, SearchBudget(max_depth=depth))
        runs.append((full.solve(data.row_mask, depth)[0], full, data))
    best_err, full, data = max(runs, key=lambda run: run[1].expansions)
    budget = SearchBudget(max_depth=depth, node_limit=full.expansions // 2)
    tree = fit_optimal(data, budget)
    assert not tree.proven_optimal
    assert tree.train_error >= best_err
    assert row_errors(tree, data) == tree.train_error
    partial = _Search(data, budget)
    partial.solve(data.row_mask, depth)
    assert partial.cube and partial.exhausted
    assert memo_size(partial) < partial.expansions
    assert memos_within(partial, full)


def take_rows(features, labels: int, keep: list[int]) -> Dataset:
    """The rows ``keep`` of the data given by its feature and label words."""
    def take(word):
        return sum(((word >> r) & 1) << i for i, r in enumerate(keep))

    return Dataset(num_rows=len(keep), features=tuple(map(take, features)),
                   labels=take(labels))


def pla_like(rng: random.Random) -> Dataset:
    """40 sampled rows of a PLA training set, cut to its first 8 features
    so that ``fit_bruteforce`` accepts them."""
    data = parse_pla((PLA / "add8u_cout_train.pla").read_text())
    return take_rows(data.features[:8], data.labels,
                     rng.sample(range(data.num_rows), 40))


def incomplete_table(rng: random.Random, n: int) -> Dataset:
    """A random truth table of n inputs with one row dropped."""
    dropped = rng.randrange(1 << n)
    return take_rows(truth_table_input_words(n), rng.getrandbits(1 << n),
                     [r for r in range(1 << n) if r != dropped])


def mask_keyed_datasets(rng: random.Random) -> list[Dataset]:
    """Weighted, PLA-like and incomplete data: each takes the row-mask key."""
    return [make_dataset(rng, rng.randint(1, 7), rng.randint(1, 40),
                         weighted=True),
            pla_like(rng), incomplete_table(rng, rng.randint(2, 5))]


def search_nodes(node):
    """Every node of a search tree, shared ones once per reference."""
    yield node
    if isinstance(node, tuple):
        for child in node[1:]:
            yield from search_nodes(child)


def test_row_mask_key_matches_bruteforce_at_every_depth():
    # one memo per depth 0..max_depth, keyed on the row mask alone
    rng = random.Random(47)
    for _ in range(10):
        for data in mask_keyed_datasets(rng):
            for depth in (0, 1, 2, 3):
                budget = SearchBudget(max_depth=depth)
                search = _Search(data, budget)
                assert len(search.memos) == depth + 1
                err, root = search.solve(data.row_mask, depth)
                assert (DecisionTree(root=_tree(root), train_error=err)
                        == fit_optimal(data, budget)
                        == fit_bruteforce(data, budget))
                assert not search.memos[0]
                assert memo_size(search) == search.expansions
                assert_row_keys(search, data)


def test_memo_holds_plain_values_and_shared_stumps():
    # a memo value is (error, node); a node is a label or a tuple
    # (feature, low, high), and every fitted depth-1 split is one of the
    # search's 2F stumps, the same object wherever it is used
    rng = random.Random(53)
    datasets = [*mask_keyed_datasets(rng),
                parse_pla((PLA / "mul7u_p12_train.pla").read_text()),
                *cell_tables(add8u())[:20]]
    for data in datasets:
        search = _Search(data, SearchBudget(max_depth=4))
        search.solve(data.row_mask, 4)
        stumps = {id(s) for _, pair in search.stumps for s in pair}
        assert len(stumps) == 2 * data.num_features
        assert memo_size(search)
        for _, node in search.memos[1].values():
            assert node in (0, 1) or id(node) in stumps
        for memo in search.memos:
            for _, node in memo.values():
                for sub in search_nodes(node):  # never a Leaf or a Branch
                    assert sub in (0, 1) or (isinstance(sub, tuple)
                                             and len(sub) == 3)


def test_depth_one_values_are_shared():
    # equal depth-1 values are one object each, as equal ROBDD nodes share
    # one unique-table entry; their nodes are labels or the search's stumps
    fits = [(parse_pla((PLA / "mul7u_p12_train.pla").read_text()), 4),
            *((data, 4) for data in cell_tables(add8u()))]
    shared = 0
    for data, depth in fits:
        search = _Search(data, SearchBudget(max_depth=depth))
        search.solve(data.row_mask, depth)
        values = list(search.memos[1].values())
        distinct = set(values)
        assert len({id(v) for v in values}) == len(distinct)
        shared += len(values) - len(distinct)
        stumps = {id(s) for _, pair in search.stumps for s in pair}
        for err, node in distinct:
            assert node in (0, 1) or id(node) in stumps
    assert shared > 0


def test_tree_converts_shared_subtrees_once():
    stump = (1, 0, 1)
    root = _tree((0, stump, (2, stump, 1)))
    assert root == Branch(0, Branch(1, Leaf(0), Leaf(1)),
                          Branch(2, Branch(1, Leaf(0), Leaf(1)), Leaf(1)))
    assert root.low is root.high.low
    assert _tree(0) is LEAF_0 and _tree(1) is LEAF_1


def test_solve_rejects_depth_over_budget():
    # a search has one memo per depth up to max_depth, so a deeper call is
    # refused with OdtError, not an IndexError from the memo list
    data = xor_dataset()
    with pytest.raises(OdtError):
        _Search(data, SearchBudget(max_depth=1)).solve(data.row_mask, 2)


def test_budgeted_fit_on_pla_data():
    # a node limit cuts the row-mask-keyed search short; the memo keeps
    # only subproblems solved to optimality, equal to the full search's
    data = parse_pla((PLA / "add8u_cout_train.pla").read_text())
    depth = 4
    full = _Search(data, SearchBudget(max_depth=depth))
    best_err, _ = full.solve(data.row_mask, depth)
    budget = SearchBudget(max_depth=depth, node_limit=full.expansions // 2)
    partial = _Search(data, budget)
    err, _ = partial.solve(data.row_mask, depth)
    assert not partial.cube and partial.exhausted
    assert err >= best_err
    assert 0 < memo_size(partial) < partial.expansions
    assert memos_within(partial, full)


def test_predict_rejects_out_of_range_feature():
    tree = DecisionTree(root=Branch(2, Leaf(0), Leaf(1)), train_error=0)
    with pytest.raises(OdtError):
        predict(tree, (0, 1))


def test_bruteforce_guard():
    rng = random.Random(19)
    d = make_dataset(rng, 11, 8)
    with pytest.raises(OdtError):
        fit_bruteforce(d, SearchBudget(max_depth=2))
    with pytest.raises(OdtError):
        fit_bruteforce(make_dataset(rng, 3, 8), SearchBudget(max_depth=4))
