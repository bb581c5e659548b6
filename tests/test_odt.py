"""Optimal decision tree learning."""

import hashlib
import random
from pathlib import Path

import pytest

from treesynth.aig import truth_table_input_words
from treesynth.dataset import Dataset, parse_pla, truth_tables
from treesynth.odt import (DecisionTree, OdtError, SearchBudget, _Search,
                           fit_optimal, predict)
from treesynth.partition import PartitionConfig, partition

from conftest import random_circuit
from reference import (BENCHMARKS, add8u, c17, collapse, fit_bruteforce,
                       mul7u)

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
    tree.root = (0, 0, (1, 1, 0))
    assert predict(tree, (0, 0)) == 0
    assert predict(tree, (1, 0)) == 1
    assert predict(tree, (1, 1)) == 0


def test_depth_zero_majority_leaf():
    d = xor_dataset()
    t = fit_optimal(d, SearchBudget(max_depth=0))
    assert t.root in (0, 1)
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
    assert t.root == 1
    assert t.train_error == 2


def test_collapse():
    assert collapse((0, 1, (1, 1, 1))) == 1


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
    for limits in ({"max_depth": -1}, {"node_limit": -5}):
        with pytest.raises(OdtError):
            SearchBudget(**{"max_depth": 1, **limits})
    SearchBudget(max_depth=1, node_limit=0)  # zero is valid


def test_non_int_budget_rejected():
    # max_depth=1.5 used to fail in range() at fit time, and "3" in the
    # comparison with 0, both with a TypeError
    for limits in ({"max_depth": 1.5}, {"max_depth": "3"},
                   {"node_limit": 2.0}, {"node_limit": "3"}):
        with pytest.raises(OdtError):
            SearchBudget(**{"max_depth": 1, **limits})


def test_node_limit_returns_unproven_tree():
    rng = random.Random(17)
    d = make_dataset(rng, 8, 64)
    partial = fit_optimal(d, SearchBudget(max_depth=6, node_limit=3))
    assert not partial.proven_optimal
    assert row_errors(partial, d) == partial.train_error


def test_node_limit_bounds_expansions():
    # a budgeted search runs out exactly when it has made at least one
    # expansion and at least node_limit; a split solves its high side
    # without a check of its own, so each level below the check that last
    # passed may expand one more subproblem, and some fits reach that bound
    rng = random.Random(31)
    fits = [(make_dataset(rng, rng.randint(1, 7), rng.randint(1, 40),
                          weighted=rng.random() < 0.5), rng.randint(0, 6))
            for _ in range(300)]
    for make in (add8u, mul7u):
        for part in partition(make(), PartitionConfig(initial_parts=10)):
            fits += [(data, depth) for data in truth_tables(part.extracted)
                     for depth in (2, 4, 6)]
    at_bound = 0
    for data, depth in fits:
        depth = min(depth, data.num_features)  # as fit_optimal clamps it
        for limit in (0, 1, 2, 3, 5, 8, 13, 50, 200):
            search = _Search(data, SearchBudget(depth, node_limit=limit))
            search.run()
            n = search.expansions
            assert search.exhausted == (0 < n >= limit), (limit, n)
            bound = max(limit, 1) + depth - 1
            assert n <= bound, (limit, depth, n)
            at_bound += n == bound and depth > 1
    assert at_bound


@pytest.fixture
def searches(monkeypatch) -> list:
    """Every ``_Search`` that ``fit_optimal`` builds, in order."""
    built = []

    class CountingSearch(_Search):
        def __init__(self, data: Dataset, budget: SearchBudget):
            super().__init__(data, budget)
            built.append(self)

    monkeypatch.setattr("treesynth.odt._Search", CountingSearch)
    return built


def test_equal_budgeted_fits_share_one_search(searches):
    # a budgeted fit is a pure function of (data, budget), so the memo
    # answers an equal call, built anew, with the tree it already has
    rng = random.Random(17)
    d = make_dataset(rng, 8, 64)
    first = fit_optimal(d, SearchBudget(max_depth=6, node_limit=3))
    twin = Dataset(num_rows=d.num_rows, features=d.features, labels=d.labels)
    assert fit_optimal(twin, SearchBudget(max_depth=6, node_limit=3)) is first
    assert len(searches) == 1
    assert not first.proven_optimal


def test_unbudgeted_fit_never_answers_budgeted_one(searches):
    # the memo key holds the node limit: an earlier unbudgeted fit of the
    # same data and depth must not answer a budgeted one
    rng = random.Random(17)
    d = make_dataset(rng, 8, 64)
    assert fit_optimal(d, SearchBudget(max_depth=6)).proven_optimal
    partial = fit_optimal(d, SearchBudget(max_depth=6, node_limit=3))
    assert len(searches) == 2
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
        # another node limit is another memo key, so this is a fresh search
        fresh = fit_optimal(d, SearchBudget(max_depth=budget.max_depth,
                                            node_limit=10**9))
        assert hit == fresh
        assert hit == fit_bruteforce(d, budget)


def test_depth_one_fit_respects_node_limit():
    # the closed-form depth-1 step still checks the budget before a feature
    d = Dataset(num_rows=4, features=(0b1010, 0b1100), labels=0b1010)
    assert fit_optimal(d, SearchBudget(max_depth=1)).root == (0, 0, 1)
    partial = fit_optimal(d, SearchBudget(max_depth=1, node_limit=1))
    assert partial.root == 0  # majority leaf, ties to 0
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
    # closed-form depth-1 nodes still count one expansion each; keyed on the
    # row mask the search expanded 11 225 subproblems, and keyed on the path
    # 11 366, since two paths that select the same rows no longer share one
    d = make_dataset(random.Random(29), 10, 200)
    search = _Search(d, SearchBudget(max_depth=6))
    err, _ = search.run()
    assert err == 11
    assert search.expansions == 11366


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
        search.run()
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


class RowKeyedSearch(_Search):
    """The search on rows, keyed on the split path, on every dataset: the
    reference for the cofactor key of complete truth tables."""

    def __init__(self, data: Dataset, budget: SearchBudget):
        super().__init__(data, budget)
        self.cube = False


def cell_tables(circuit) -> list[Dataset]:
    """The truth table of every cell output at ``initial_parts=10``."""
    return [data for part in partition(circuit,
                                       PartitionConfig(initial_parts=10))
            for data in truth_tables(part.extracted)]


def assert_keys_agree(data: Dataset, depth: int) -> tuple[int, int]:
    """The table and the path key give one result, and each search ends
    with one memo entry per expansion; returns both expansion counts."""
    table = _Search(data, SearchBudget(max_depth=depth))
    rows = RowKeyedSearch(data, SearchBudget(max_depth=depth))
    assert table.cube
    assert table.run() == rows.run()
    for search in (table, rows):
        assert not search.memos[0]
        assert memo_size(search) == search.expansions
    assert_row_keys(rows, data)
    # a table key is the cofactor's truth table over the free inputs: the
    # path to a subproblem with d levels left fixes depth - d inputs, so
    # k = n - depth + d are free and the key is an int below 2^(2^k)
    for d, memo in enumerate(table.memos):
        k = data.num_features - depth + d
        for key in memo:
            assert isinstance(key, int) and 0 <= key < 1 << (1 << k)
    return table.expansions, rows.expansions


def path_rows(data: Dataset, key: int) -> int:
    """The rows that the conditions of a path key select: bit 2f of the key
    asks for feature f = 0, bit 2f+1 for f = 1."""
    rows = data.row_mask
    for f, column in enumerate(data.features):
        if key >> 2 * f & 1:
            rows &= ~column
        if key >> 2 * f + 1 & 1:
            rows &= column
    return rows


def assert_row_keys(search: _Search, data: Dataset) -> None:
    """Every memo key of a row-keyed search is a path: in ``memos[d]`` an
    int below 4^F that holds exactly max_depth - d conditions, on distinct
    features, whose rows are not empty."""
    assert not search.cube
    for d, memo in enumerate(search.memos):
        for key in memo:
            assert isinstance(key, int) and 0 <= key < 4 ** data.num_features
            conditions = [key >> 2 * f & 3 for f in range(data.num_features)]
            assert 3 not in conditions  # no feature is fixed both ways
            assert (len(conditions) - conditions.count(0)
                    == search.budget.max_depth - d)
            assert path_rows(data, key)


def test_cofactor_key_matches_mask_key_on_random_tables():
    # every depth 0..n of seeded random tables, n = 1..9; fewer tables as
    # n grows, since the path key's search grows as 3^n
    rng = random.Random(41)
    totals = [0, 0]
    for n in range(1, 10):
        for _ in range(max(2, 1024 >> n)):
            if rng.random() < 0.5:
                circuit = random_circuit(rng, n, rng.randint(1, 4 * n), 1)
                data = truth_tables(circuit)[0]
            else:
                data = Dataset(num_rows=1 << n,
                               features=tuple(truth_table_input_words(n)),
                               labels=rng.getrandbits(1 << n))
            for depth in range(n + 1):
                for i, count in enumerate(assert_keys_agree(data, depth)):
                    totals[i] += count
                if n <= 6 and depth <= 3:
                    budget = SearchBudget(max_depth=depth)
                    assert fit_optimal(data, budget) == fit_bruteforce(data,
                                                                       budget)
    assert totals[0] < totals[1]  # equal cofactors share work


def benchmark_cell_tables() -> list[Dataset]:
    """The distinct cell tables of every committed circuit, in order."""
    return list(dict.fromkeys(data for build in BENCHMARKS.values()
                              for data in cell_tables(build())))


def test_cofactor_key_matches_mask_key_on_benchmark_cells():
    # every depth 1..9 where the path key's search is quick, 1..4 above
    # 9 inputs; the test below pins depths 1..9 on the rest
    for data in benchmark_cell_tables():
        for depth in range(1, 10 if data.num_features <= 9 else 5):
            assert_keys_agree(data, depth)


def tree_digest(search_class, tables: list[Dataset], depths) -> str:
    """SHA-256 over the (error, root) of each table at each depth."""
    digest = hashlib.sha256()
    for data in tables:
        for depth in depths:
            run = search_class(data, SearchBudget(max_depth=depth)).run()
            digest.update(repr(run).encode())
    return digest.hexdigest()


def test_benchmark_cell_trees_pinned_at_depths_1_to_9():
    # the pin is the row search's digest (RowKeyedSearch in place of
    # _Search, keyed on the row mask or on the path alike), which takes
    # 32-64 s on a 2-vCPU Xeon: too slow to recompute on every run; the
    # table search gives it in under 2 s
    assert tree_digest(_Search, benchmark_cell_tables(), range(1, 10)) == (
        "a5351a42aa00864f29051e691c6b8d37709ac4198f6ca4976f8f7935111c249f")


def test_only_complete_unweighted_tables_take_cofactor_key():
    # the table search reads row r as setting input i to bit i of r, which
    # holds only when the features are in that order and every row weighs 1
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
                err, root = search.run()
                assert (DecisionTree(root=root, train_error=err)
                        == fit_bruteforce(data, budget))


def test_cofactor_expansions_pinned():
    # on the same 237 fits the row search expands 7 373 subproblems (keyed
    # on the row mask or on the path alike: on a complete table each path
    # selects its own cube), and a cube key that also held the fixed
    # inputs 5 858
    total = 0
    for data in cell_tables(mul7u()):
        for depth in (1, 2, 3):
            search = _Search(data, SearchBudget(max_depth=depth))
            search.run()
            total += search.expansions
    assert total == 4282


def test_budgeted_fit_on_complete_table():
    # a node limit cuts the cofactor-keyed search of mul7u's hardest cell
    # table short: the tree is unproven and no better, and the memo keeps
    # only subproblems it solved to optimality
    depth = 4
    runs = []
    for data in cell_tables(mul7u()):
        full = _Search(data, SearchBudget(max_depth=depth))
        runs.append((full.run()[0], full, data))
    best_err, full, data = max(runs, key=lambda run: run[1].expansions)
    budget = SearchBudget(max_depth=depth, node_limit=full.expansions // 2)
    tree = fit_optimal(data, budget)
    assert not tree.proven_optimal
    assert tree.train_error >= best_err
    assert row_errors(tree, data) == tree.train_error
    partial = _Search(data, budget)
    partial.run()
    assert partial.cube and partial.exhausted
    assert memo_size(partial) < partial.expansions
    assert memos_within(partial, full)


def take_rows(features, labels: int, keep: list[int],
              weights: tuple[int, ...] | None = None) -> Dataset:
    """The rows ``keep`` of the data given by its feature and label words
    and its row weights, if any."""
    def take(word):
        return sum(((word >> r) & 1) << i for i, r in enumerate(keep))

    return Dataset(num_rows=len(keep), features=tuple(map(take, features)),
                   labels=take(labels),
                   weights=weights and tuple(weights[r] for r in keep))


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


def row_keyed_datasets(rng: random.Random) -> list[Dataset]:
    """Weighted, PLA-like and incomplete data: each takes the path key."""
    return [make_dataset(rng, rng.randint(1, 7), rng.randint(1, 40),
                         weighted=True),
            pla_like(rng), incomplete_table(rng, rng.randint(2, 5))]


def search_nodes(node):
    """Every node of a search tree, shared ones once per reference."""
    yield node
    if isinstance(node, tuple):
        for child in node[1:]:
            yield from search_nodes(child)


def test_row_key_matches_bruteforce_at_every_depth():
    # one memo per depth 0..max_depth, keyed on the split path alone
    rng = random.Random(47)
    for _ in range(10):
        for data in row_keyed_datasets(rng):
            for depth in (0, 1, 2, 3):
                budget = SearchBudget(max_depth=depth)
                search = _Search(data, budget)
                assert len(search.memos) == depth + 1
                err, root = search.run()
                assert (DecisionTree(root=root, train_error=err)
                        == fit_optimal(data, budget)
                        == fit_bruteforce(data, budget))
                assert not search.memos[0]
                assert memo_size(search) == search.expansions
                assert_row_keys(search, data)


def test_path_memo_entries_are_the_fits_of_their_rows():
    # a path selects its rows and a memo value depends only on them and the
    # depth: decoded into its rows, each entry is the oracle's tree of
    # those rows at the entry's depth
    rng = random.Random(59)
    entries = 0
    for weighted in (False, True):
        for _ in range(40):
            data = make_dataset(rng, rng.randint(2, 6), rng.randint(3, 40),
                                weighted=weighted)
            depth = rng.randint(1, 3)
            search = _Search(data, SearchBudget(max_depth=depth))
            search.run()
            assert_row_keys(search, data)
            for d, memo in enumerate(search.memos):
                for key, (err, node) in memo.items():
                    rows = path_rows(data, key)
                    keep = [r for r in range(data.num_rows) if rows >> r & 1]
                    sub = take_rows(data.features, data.labels, keep,
                                    data.weights)
                    assert (DecisionTree(root=node, train_error=err)
                            == fit_bruteforce(sub, SearchBudget(max_depth=d)))
                    entries += 1
    assert entries > 900


def test_pla_path_keys_stay_small():
    # a path key holds two bits per feature, so it stays below 4^F however
    # many rows the data has; the row mask it replaced had 640 bits here
    for name in ("add8u_cout", "mul7u_p12"):
        data = parse_pla((PLA / f"{name}_train.pla").read_text())
        search = _Search(data, SearchBudget(max_depth=5))
        search.run()
        assert not search.cube
        assert memo_size(search) == search.expansions
        bound = 4 ** data.num_features
        assert all(key < bound for memo in search.memos for key in memo)


def test_memo_holds_plain_values_and_shared_stumps():
    # a memo value is (error, node); a node is a label or a tuple
    # (feature, low, high), and every fitted depth-1 split is one of the
    # search's 2F stumps, the same object wherever it is used
    rng = random.Random(53)
    datasets = [*row_keyed_datasets(rng),
                parse_pla((PLA / "mul7u_p12_train.pla").read_text()),
                *cell_tables(add8u())[:20]]
    for data in datasets:
        search = _Search(data, SearchBudget(max_depth=4))
        search.run()
        stumps = {id(s) for _, pair in search.stumps for s in pair}
        assert len(stumps) == 2 * data.num_features
        assert memo_size(search)
        for _, node in search.memos[1].values():
            assert node in (0, 1) or id(node) in stumps
        for memo in search.memos:
            for _, node in memo.values():
                for sub in search_nodes(node):
                    assert sub in (0, 1) or (isinstance(sub, tuple)
                                             and len(sub) == 3)


def test_values_are_shared_at_every_depth():
    # at every depth, equal values are one object each, as equal ROBDD
    # nodes share one unique-table entry; depth-1 nodes are labels or the
    # search's stumps.  The row search of mul7u_p12 at depth 5 stores 1 721
    # value objects for its 18 432 entries (3 634 when only depth-1 values
    # were shared), and the table searches of mul7u's cells repeat values
    # below the root at depths 1 to 3
    rows = parse_pla((PLA / "mul7u_p12_train.pla").read_text())
    fits = [(rows, 5), *((data, 4) for data in cell_tables(mul7u()))]
    objects = []
    shared = [0] * 6
    for data, depth in fits:
        search = _Search(data, SearchBudget(max_depth=depth))
        search.run()
        for d, memo in enumerate(search.memos):
            values = list(memo.values())
            distinct = set(values)
            assert len({id(v) for v in values}) == len(distinct), d
            shared[d] += len(values) - len(distinct)
        objects.append(len({id(v) for memo in search.memos
                            for v in memo.values()}))
        stumps = {id(s) for _, pair in search.stumps for s in pair}
        for err, node in search.memos[1].values():
            assert node in (0, 1) or id(node) in stumps
    assert objects[0] == 1721
    assert all(shared[1:4])


def test_solve_rejects_depth_over_budget():
    # a search has one memo per depth up to max_depth, so a deeper call is
    # refused with OdtError, not an IndexError from the memo list
    # on a complete table, keyed on its cofactor, and on rows, on the path
    table = xor_dataset()
    rows = Dataset(num_rows=3, features=(0b010, 0b100), labels=0b110)
    for data, key in ((table, table.labels), (rows, 0)):
        search = _Search(data, SearchBudget(max_depth=1))
        assert search.cube == (data is table)
        with pytest.raises(OdtError):
            search.solve(data.labels, data.row_mask, key, 2)


def test_budgeted_fit_on_pla_data():
    # a node limit cuts the path-keyed search short; the memo keeps
    # only subproblems solved to optimality, equal to the full search's
    data = parse_pla((PLA / "add8u_cout_train.pla").read_text())
    depth = 4
    full = _Search(data, SearchBudget(max_depth=depth))
    best_err, _ = full.run()
    budget = SearchBudget(max_depth=depth, node_limit=full.expansions // 2)
    partial = _Search(data, budget)
    err, _ = partial.run()
    assert not partial.cube and partial.exhausted
    assert err >= best_err
    assert 0 < memo_size(partial) < partial.expansions
    assert memos_within(partial, full)


def test_fit_deeper_than_features_is_the_fit_at_features(searches):
    # a split on a fixed feature is constant and skipped, so no tree is
    # deeper than its F features: a deeper request is the fit at F, and
    # its search needs one memo per depth up to F
    for data in (truth_tables(c17())[0],
                 parse_pla((PLA / "mul7u_p12_train.pla").read_text())):
        for node_limit in (None, 10**9):
            searches.clear()
            deep = fit_optimal(data, SearchBudget(10**5, node_limit))
            assert len(searches) == 1
            assert len(searches[0].memos) <= data.num_features + 1
            assert deep == fit_optimal(data, SearchBudget(data.num_features,
                                                          node_limit))


def test_predict_rejects_out_of_range_feature():
    tree = DecisionTree(root=(2, 0, 1), train_error=0)
    with pytest.raises(OdtError):
        predict(tree, (0, 1))


def test_bruteforce_guard():
    rng = random.Random(19)
    d = make_dataset(rng, 11, 8)
    with pytest.raises(OdtError):
        fit_bruteforce(d, SearchBudget(max_depth=2))
    with pytest.raises(OdtError):
        fit_bruteforce(make_dataset(rng, 3, 8), SearchBudget(max_depth=4))
