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
fixes the features S, and V sums 2^i over those fixed to 1.  Its answer
depends only on its cofactor, so the key is ``((mask & labels) >> V, S)``
and cubes with equal cofactors share one entry, as ROBDD nodes do (Bryant
1986).  Other data (PLA rows, weighted or incomplete tables) is keyed on
the row mask alone.
The memos hold exactly the subproblems the search expanded and solved to
proven optimality, which keeps them sound regardless of bounding; a pure
or depth-0 subproblem is its majority leaf, which two counts recompute,
so it gets no entry and ``memos[0]`` stays empty.  After an unbudgeted
search, memo entries equal expansions.  A leaf is split only when that is
strictly better, so no fitted branch has two equal leaves.

A tree has one form, ``Node``, in the search and once fitted alike: a
node is a label (0 or 1) or a tuple ``(feature, low, high)``, where ``low``
is the child for feature = 0.  A memo value is ``(error, node)``, and a
fitted tree's root is the search's own node, so subtrees the search shares
stay shared.  A fitted depth-1 split has two different leaves, so it is
one of 2F stumps ``(f, 1, 0)`` and ``(f, 0, 1)``, built once per search
and shared by every entry that holds one.  Depth-1 values repeat far more
than deeper ones, so each distinct one is also stored once per search and
shared by all depth-1 entries that equal it.

The bottom of the search is solved in closed form, as in MurTree: at depth 1
both children are leaves, so each candidate split needs only the weight and
the positive weight of its high side; the low side follows by subtraction
from the totals of the subproblem.  No depth-0 subproblem is created below
the root.  Only a search with a node or time limit checks its budget inside
the feature loops; an unbudgeted search never can run out, so it skips
those checks, and unweighted data is counted with ``int.bit_count``.

A node or time limit makes the search anytime: when the budget runs out it
returns the best tree found so far with ``proven_optimal`` false, so the
caller gets a worse tree, not an error.  Unbudgeted fits are pure functions
of ``(data, max_depth)``, so finished trees are memoized per process in a
bounded LRU cache.  Fits with a node or time limit never touch that cache:
their outcome depends on the budget.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

from .aig import truth_table_input_words
from .dataset import Dataset


class OdtError(Exception):
    """Invalid learning request (empty data, guard violation, ...)."""


Node = int | tuple  # a label, or (feature, low, high)


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int
    node_limit: int | None = None
    time_limit: float | None = None  # seconds

    def __post_init__(self):
        if self.max_depth < 0:
            raise OdtError("max_depth must be >= 0")
        if self.node_limit is not None and self.node_limit < 0:
            raise OdtError("node_limit must be >= 0")
        if self.time_limit is not None and not self.time_limit >= 0:
            raise OdtError("time_limit must be >= 0")  # NaN fails too


@dataclass(frozen=True)
class DecisionTree:
    """A fitted tree and its weighted training error.  ``root`` is a
    ``Node``: a label 0 or 1, or a tuple ``(feature, low, high)`` whose
    ``low`` child is taken when the feature is 0, and subtrees may be
    shared.  ``realized_depth``, the splits on the longest path, is derived.
    """

    root: Node
    train_error: int
    proven_optimal: bool = True

    @property
    def realized_depth(self) -> int:
        return _depth(self.root)


def _depth(node: Node) -> int:
    return 0 if isinstance(node, int) else 1 + max(map(_depth, node[1:]))


def predict(tree: DecisionTree, features: tuple[int, ...]) -> int:
    node = tree.root
    while not isinstance(node, int):
        f, low, high = node
        if f >= len(features):
            raise OdtError(f"feature {f} out of range for width {len(features)}")
        node = high if features[f] else low
    return node


def _weighted_count(mask: int, weights: tuple[int, ...]) -> int:
    """Total weight of the rows in mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


class _Search:
    def __init__(self, data: Dataset, budget: SearchBudget):
        self.splits = tuple((f, column, 1 << f)
                            for f, column in enumerate(data.features))
        # a fitted depth-1 split has unequal leaves, so it is one of these,
        # indexed by the high side's label
        self.stumps = tuple((column, ((f, 1, 0), (f, 0, 1)))
                            for f, column in enumerate(data.features))
        self.labels = data.labels
        self.budget = budget
        self.weight_of = (int.bit_count if data.weights is None
                          else functools.partial(_weighted_count,
                                                 weights=data.weights))
        self.limited = (budget.node_limit is not None
                        or budget.time_limit is not None)
        n = len(data.features)
        self.cube = (data.weights is None and data.num_rows == 1 << n
                     and list(data.features) == truth_table_input_words(n))
        # memos[d] holds the subproblems solved with d levels left; no
        # subproblem is expanded at depth 0, so memos[0] stays empty
        self.memos: list[dict[int | tuple[int, int], tuple[int, Node]]] = [
            {} for _ in range(budget.max_depth + 1)]
        # each distinct depth-1 value, stored once and shared by its entries
        self.values: dict[tuple[int, Node], tuple[int, Node]] = {}
        self.expansions = 0
        self.deadline = (time.monotonic() + budget.time_limit
                         if budget.time_limit is not None else None)
        self.exhausted = False

    def out_of_budget(self) -> bool:
        if self.exhausted:
            return True
        b = self.budget
        if b.node_limit is not None and self.expansions >= b.node_limit:
            self.exhausted = True
        elif self.deadline is not None and time.monotonic() > self.deadline:
            self.exhausted = True
        return self.exhausted

    def solve(self, mask: int, depth: int, high: int = 0,
              fixed: int = 0) -> tuple[int, Node]:
        """Minimum-error tree of depth <= depth for the rows in mask; ``fixed``
        marks the features split on the way here, ``high`` those taken high."""
        try:
            memo = self.memos[depth]
        except IndexError:
            # only a root call can be deeper than max_depth, and it stops
            # here before any memo holds an entry
            raise OdtError("solve depth exceeds the budget's max_depth") \
                from None
        key = ((mask & self.labels) >> high, fixed) if self.cube else mask
        hit = memo.get(key)
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
            # of the high side and the totals of mask, without recursion.
            labels = self.labels
            for column, stumps in self.stumps:
                if limited and self.out_of_budget():
                    break
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
            for f, column, bit in self.splits:
                if limited and self.out_of_budget():
                    break
                m1 = mask & column
                if m1 == 0 or m1 == mask:
                    continue  # constant feature here; split can never improve
                err0, t0 = solve(mask ^ m1, depth - 1, high, fixed | bit)
                if err0 >= best_err:
                    continue
                err1, t1 = solve(m1, depth - 1, high | bit, fixed | bit)
                if err0 + err1 < best_err:
                    best_err = err0 + err1
                    best = (f, t0, t1)
                    if best_err == 0:
                        break
        value = best_err, best
        if not self.exhausted:
            if depth == 1:
                value = self.values.setdefault(value, value)
            memo[key] = value
        return value


def fit_optimal(data: Dataset, budget: SearchBudget) -> DecisionTree:
    """Tree with provably minimal weighted training error at the depth cap.

    When a node or time limit preempts the proof, the best tree found so
    far is returned with ``proven_optimal`` false.  Calls without such a
    limit are memoized.
    """
    if data.num_rows < 1:
        raise OdtError("cannot fit a tree on an empty dataset")
    if budget.max_depth > data.num_features:  # no tree is deeper than F
        budget = replace(budget, max_depth=data.num_features)
    if budget.node_limit is None and budget.time_limit is None:
        return _fit_unbudgeted(data, budget.max_depth)
    return _fit(data, budget)


@functools.lru_cache(maxsize=512)
def _fit_unbudgeted(data: Dataset, max_depth: int) -> DecisionTree:
    return _fit(data, SearchBudget(max_depth=max_depth))


def _fit(data: Dataset, budget: SearchBudget) -> DecisionTree:
    search = _Search(data, budget)
    err, root = search.solve(data.row_mask, budget.max_depth)
    return DecisionTree(root=root, train_error=err,
                        proven_optimal=not search.exhausted)
