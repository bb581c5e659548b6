"""Depth-constrained optimal decision trees.

``fit_optimal`` is a dynamic-programming branch-and-bound learner in the
DL8.5 style: subproblems are row subsets reached by a path of feature
conditions, memoized so that equivalent paths share work.  A search keeps
one memo per remaining depth, ``memos[d]`` for 1 <= d <= max_depth, so a
key need not hold the depth, and a call deeper than ``max_depth`` is
refused.  A split on a feature already fixed on the path is constant and
skipped, so no tree is deeper than its F features, and ``fit_optimal``
clamps the depth to F: a deeper request gives the same tree and would
only allocate more memos.  On a complete unweighted truth table, whose
row r sets feature i to bit i of r, every subproblem is a cube: its path
fixes some inputs, and its answer depends only on its cofactor, the
function of the k inputs left free.  So the search works on that function
itself, a 2^k-bit table whose row r sets the free input of rank j (its
place among the free inputs, lowest index first) to bit j of r.  A split
on rank j moves j to the top by delta swaps that keep the other ranks in
order, and its two sides are the table's low and high halves.  k is fixed
at each depth, so ``memos[d]`` is keyed on the table alone, and
subproblems with equal cofactors share one entry wherever their free
inputs lie, as ROBDD nodes do (Bryant 1986).  Other data (PLA rows,
weighted or incomplete tables) is keyed, as in DL8.5, on its path: the
feature conditions that lead to it, as an int with bit 2f for f = 0 and
bit 2f+1 for f = 1, so the root's key is 0 and a split ORs in the bit of
each side.  The row mask still travels down for the counts.  A path
fixes each feature at most once and selects its rows, and a value
depends only on the rows and the depth, so the key is sound; it stays
below 4^F however many rows there are, but two paths that select the
same rows no longer share an entry.
The memos hold exactly the subproblems the search expanded and solved to
proven optimality, which keeps them sound regardless of bounding; a pure
or depth-0 subproblem is its majority leaf, which two counts recompute,
so it gets no entry and ``memos[0]`` stays empty.  After an unbudgeted
search, memo entries equal expansions.  A leaf is split only when that is
strictly better, so no fitted branch has two equal leaves.

A tree has one form, ``Node``, in the search and once fitted alike: a
node is a label (0 or 1) or a tuple ``(feature, low, high)``, where ``low``
is the child for feature = 0.  A memo value is ``(error, node)``.  A table
search names each feature by its rank, and the fit renames ranks to input
indices once, with a memo, so subtrees it shares under the same free inputs
stay shared; on other data a fitted tree's root is the search's own node.
Renaming keeps the order of the inputs, so the lowest-index tie rule picks
the same split on both forms.  A depth-1 split in a memo has two different
leaves, so it is one of 2F stumps ``(f, 1, 0)`` and ``(f, 0, 1)``, built
once per search and shared by every entry that holds one.  Values repeat
at every depth, so each distinct value of ``memos[d]`` is stored once per
search and shared by the entries of that depth that equal it.  The rule is
per depth: a deeper split into two leaves equals a stump's value but is a
tuple of its own, and the depth-1 entries hold only the search's stumps.

The bottom of the search is solved in closed form, as in MurTree: at depth 1
both children are leaves, so each candidate split needs only the weight and
the positive weight of its high side; the low side follows by subtraction
from the totals of the subproblem.  Each side of a table's split holds half
its rows, so there a split costs one AND and one popcount.  No depth-0
subproblem is created below the root.  Unweighted data is counted with
``int.bit_count``.

A node limit, a cap on expansions, makes the search anytime: once it is
reached the search returns the best tree found so far with
``proven_optimal`` false, so the caller gets a worse tree, not an error.
Only a search with a node limit checks it: once before each depth-1 loop,
whose stumps expand nothing, and before each split of a deeper loop.  So
a budgeted fit is a pure function of ``(data, budget)``.  It runs out
exactly when it has made at least one expansion and at least
``node_limit`` of them.  A split solves its high side without a check of
its own, so each level below the check that last passed may expand one
more subproblem: a fit makes at most
``max(node_limit, 1) + max_depth - 1`` expansions.  Since every fit is
a pure function of ``(data, budget)``, finished trees are memoized per
process in a bounded LRU cache keyed on both, so a hit returns the tree a
fresh search would, ``proven_optimal`` included, and a fit never answers
a call with another node limit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from .aig import check_int, truth_table_input_words
from .dataset import Dataset


class OdtError(Exception):
    """Invalid learning request (empty data, guard violation, ...)."""


Node = int | tuple  # a label, or (feature, low, high)


@dataclass(frozen=True)
class SearchBudget:
    """Limits of one fit.  ``max_depth`` is an int >= 0; ``node_limit``, a
    cap on expansions, is None or an int >= 0.  Any other value is an
    ``OdtError``."""

    max_depth: int
    node_limit: int | None = None

    def __post_init__(self):
        check_int("max_depth", self.max_depth, 0, OdtError)
        if self.node_limit is not None:
            check_int("node_limit", self.node_limit, 0, OdtError)


@dataclass(frozen=True)
class DecisionTree:
    """A fitted tree and its weighted training error.  ``root`` is a
    ``Node``: a label 0 or 1, or a tuple ``(feature, low, high)`` whose
    ``low`` child is taken when the feature is 0, and subtrees may be
    shared; it is checked where a tree is read.  ``train_error`` is an int
    >= 0 and ``proven_optimal`` a bool (else ``OdtError``); and
    ``realized_depth``, the splits on the longest path, is derived."""

    root: Node
    train_error: int
    proven_optimal: bool = True

    def __post_init__(self):
        check_int("train_error", self.train_error, 0, OdtError)
        if not isinstance(self.proven_optimal, bool):
            raise OdtError("proven_optimal must be a bool")

    @property
    def realized_depth(self) -> int:
        return _depth(self.root)


def _depth(node: Node) -> int:
    return 0 if isinstance(node, int) else 1 + max(map(_depth, node[1:]))


def check_node(node: Node, width: int) -> None:
    """``OdtError`` unless ``node`` is a label 0 or 1 or a tuple
    ``(feature, low, high)`` with an int feature in [0, width).  The one
    node check of ``predict`` and of lowering, so both read a tree alike."""
    if isinstance(node, int):
        if node not in (0, 1):
            raise OdtError(f"tree label {node} is not 0 or 1")
    elif not (type(node) is tuple and len(node) == 3):
        raise OdtError("tree node is neither a label nor (feature, low, high)")
    elif not (isinstance(node[0], int) and 0 <= node[0] < width):
        raise OdtError(f"tree tests feature {node[0]!r}, not in [0, {width})")


def predict(tree: DecisionTree, features: tuple[int, ...]) -> int:
    """The label ``tree`` gives the row ``features``, a tuple of bits 0 or
    1; other features are an ``OdtError``."""
    if not (isinstance(features, tuple) and all(
            isinstance(b, int) and b in (0, 1) for b in features)):
        raise OdtError("features must be a tuple of bits 0 or 1")
    node = tree.root
    check_node(node, len(features))
    while not isinstance(node, int):
        f, low, high = node
        node = high if features[f] else low
        check_node(node, len(features))
    return node


def _weighted_count(mask: int, weights: tuple[int, ...]) -> int:
    """Total weight of the rows in mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


@functools.cache
def _rank_moves(k: int) -> tuple[tuple[int, int], ...]:
    """Delta swaps ``(mask, shift)`` on a 2^k-bit table, swapping rank j
    with rank k-1 for j = k-2 down to 0.  Applied in turn from the table as
    it is, the first m of them leave rank k-1-m on top and the other ranks
    in order."""
    words = truth_table_input_words(k)
    return tuple((words[j] & ~words[k - 1], (1 << (k - 1)) - (1 << j))
                 for j in range(k - 2, -1, -1))


def _by_input(root: Node, num_inputs: int) -> Node:
    """A table search's tree with each rank among the free inputs replaced
    by the input it names; a subtree shared under the same free inputs
    stays shared."""
    named: dict[tuple[int, tuple[int, ...]], Node] = {}

    def name(node: Node, free: tuple[int, ...]) -> Node:
        if isinstance(node, int):
            return node
        key = id(node), free
        hit = named.get(key)
        if hit is None:
            j, low, high = node
            rest = free[:j] + free[j + 1:]
            hit = named[key] = (free[j], name(low, rest), name(high, rest))
        return hit

    return name(root, tuple(range(num_inputs)))


class _Search:
    def __init__(self, data: Dataset, budget: SearchBudget):
        # each feature's column and the path-key bits of its low and high
        # sides: bit 2f for f = 0, bit 2f+1 for f = 1
        self.splits = tuple((f, column, 1 << 2 * f, 2 << 2 * f)
                            for f, column in enumerate(data.features))
        # a fitted depth-1 split has unequal leaves, so it is one of these,
        # indexed by the high side's label; on a table, f is a rank and its
        # column is the table input word of that rank
        self.stumps = tuple((column, ((f, 1, 0), (f, 0, 1)))
                            for f, column in enumerate(data.features))
        self.labels = data.labels
        self.rows = data.row_mask
        self.budget = budget
        self.weight_of = (int.bit_count if data.weights is None
                          else functools.partial(_weighted_count,
                                                 weights=data.weights))
        self.limited = budget.node_limit is not None
        n = len(data.features)
        self.cube = (data.weights is None and data.num_rows == 1 << n
                     and list(data.features) == truth_table_input_words(n))
        if self.cube:
            # a table with d levels left has d + spare free inputs
            self.spare = n - budget.max_depth
            self.moves = tuple(map(_rank_moves, range(n + 1)))
        # memos[d] holds the subproblems solved with d levels left; no
        # subproblem is expanded at depth 0, so memos[0] stays empty
        self.memos: list[dict[int, tuple[int, Node]]] = [
            {} for _ in range(budget.max_depth + 1)]
        # values[d] holds each distinct value of memos[d], shared by equals
        self.values: list[dict[tuple[int, Node], tuple[int, Node]]] = [
            {} for _ in range(budget.max_depth + 1)]
        self.expansions = 0
        self.exhausted = False

    def run(self) -> tuple[int, Node]:
        """The error and root of the whole data's tree at ``max_depth``,
        features named by input index."""
        depth = self.budget.max_depth
        if not self.cube:
            return self.solve(self.rows, depth)
        err, root = self.solve_table(self.labels, depth)
        return err, _by_input(root, len(self.splits))

    def out_of_budget(self) -> bool:
        """Whether a budgeted search has reached its node limit; expansions
        only grow, so once true it stays true."""
        self.exhausted = self.expansions >= self.budget.node_limit
        return self.exhausted

    def solve(self, mask: int, depth: int, path: int = 0) -> tuple[int, Node]:
        """Minimum-error tree of depth <= depth for the rows in mask, which
        the conditions of ``path`` select (the root's path is 0)."""
        try:
            memo = self.memos[depth]
        except IndexError:
            # only a root call can be deeper than max_depth, and it stops
            # here before any memo holds an entry
            raise OdtError("solve depth exceeds the budget's max_depth") \
                from None
        hit = memo.get(path)
        if hit is not None:
            return hit
        weight_of = self.weight_of
        total = weight_of(mask)
        ones = weight_of(mask & self.labels)
        # majority class, ties to 0
        if ones > total - ones:
            best_err, best = total - ones, 1
        else:
            best_err, best = ones, 0
        if depth == 0 or best_err == 0:
            return best_err, best
        self.expansions += 1
        limited = self.limited
        if depth == 1:
            # Both children are leaves: their errors follow from the counts
            # of the high side and the totals of mask, without recursion,
            # so the loop expands nothing and one budget check covers it.
            if limited and self.out_of_budget():
                return best_err, best
            labels = self.labels
            for column, stumps in self.stumps:
                m1 = mask & column
                if m1 == 0 or m1 == mask:
                    continue  # constant feature here; split can never improve
                w1 = weight_of(m1)
                o1 = weight_of(m1 & labels)
                o0 = ones - o1
                z0 = total - w1 - o0
                err0 = z0 if o0 > z0 else o0
                if err0 >= best_err:
                    continue
                z1 = w1 - o1
                err1 = z1 if o1 > z1 else o1
                if err0 + err1 < best_err:
                    best_err = err0 + err1
                    best = stumps[o1 > z1]
                    if best_err == 0:
                        break
        else:
            solve = self.solve
            for f, column, low_bit, high_bit in self.splits:
                if limited and self.out_of_budget():
                    break
                m1 = mask & column
                if m1 == 0 or m1 == mask:
                    continue  # constant feature here; split can never improve
                err0, t0 = solve(mask ^ m1, depth - 1, path | low_bit)
                if err0 >= best_err:
                    continue
                err1, t1 = solve(m1, depth - 1, path | high_bit)
                if err0 + err1 < best_err:
                    best_err = err0 + err1
                    best = (f, t0, t1)
                    if best_err == 0:
                        break
        value = best_err, best
        if not self.exhausted:
            value = memo[path] = self.values[depth].setdefault(value, value)
        return value

    def solve_table(self, table: int, depth: int) -> tuple[int, Node]:
        """Minimum-error tree of depth <= depth for a complete table over
        its free inputs, features named by rank."""
        try:
            memo = self.memos[depth]
        except IndexError:
            raise OdtError("solve depth exceeds the budget's max_depth") \
                from None
        hit = memo.get(table)
        if hit is not None:
            return hit
        k = depth + self.spare
        total = 1 << k
        ones = table.bit_count()
        if ones > total - ones:
            best_err, best = total - ones, 1
        else:
            best_err, best = ones, 0
        if depth == 0 or best_err == 0:
            return best_err, best
        self.expansions += 1
        limited = self.limited
        half = total >> 1  # the rows on either side of every split
        if depth == 1:
            if limited and self.out_of_budget():  # as in solve
                return best_err, best
            for column, stumps in self.stumps[:k]:
                o1 = (table & column).bit_count()
                o0 = ones - o1
                z0 = half - o0
                err0 = z0 if o0 > z0 else o0
                if err0 >= best_err:
                    continue
                z1 = half - o1
                err1 = z1 if o1 > z1 else o1
                if err0 + err1 < best_err:
                    best_err = err0 + err1
                    best = stumps[o1 > z1]
                    if best_err == 0:
                        break
        else:
            # tops[k-1-j] is the table with rank j moved to the top, so its
            # low and high halves are the two sides of the split on j
            tops = [table]
            moved = table
            for mask, shift in self.moves[k]:
                x = ((moved >> shift) ^ moved) & mask
                moved ^= x ^ (x << shift)
                tops.append(moved)
            low_rows = (1 << half) - 1
            solve = self.solve_table
            for j, moved in enumerate(reversed(tops)):
                if limited and self.out_of_budget():
                    break
                err0, t0 = solve(moved & low_rows, depth - 1)
                if err0 >= best_err:
                    continue
                err1, t1 = solve(moved >> half, depth - 1)
                if err0 + err1 < best_err:
                    best_err = err0 + err1
                    best = (j, t0, t1)
                    if best_err == 0:
                        break
        value = best_err, best
        if not self.exhausted:
            value = memo[table] = self.values[depth].setdefault(value, value)
        return value


def fit_optimal(data: Dataset, budget: SearchBudget) -> DecisionTree:
    """Tree with provably minimal weighted training error at the depth cap.

    When the node limit preempts the proof, the best tree found so far is
    returned with ``proven_optimal`` false.  Calls are memoized on
    ``(data, budget)``.
    """
    if data.num_rows < 1:
        raise OdtError("cannot fit a tree on an empty dataset")
    if budget.max_depth > data.num_features:  # no tree is deeper than F
        budget = replace(budget, max_depth=data.num_features)
    return _fit(data, budget)


@functools.lru_cache(maxsize=512)
def _fit(data: Dataset, budget: SearchBudget) -> DecisionTree:
    search = _Search(data, budget)
    err, root = search.run()
    return DecisionTree(root=root, train_error=err,
                        proven_optimal=not search.exhausted)
