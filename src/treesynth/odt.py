"""Depth-constrained optimal decision trees.

``fit_optimal`` is a dynamic-programming branch-and-bound learner in the
DL8.5 style: subproblems are row subsets reached by a path of feature
conditions, memoized so that equivalent paths share work.  A search keeps
one memo per remaining depth, ``memos[d]`` for 1 <= d <= max_depth, so a
key need not hold the depth, and a call deeper than ``max_depth`` is
refused.  On a complete unweighted truth table, whose row r sets feature i
to bit i of r, every subproblem is a cube: its path fixes the features S,
and V sums 2^i over those fixed to 1.  Its answer depends only on its
cofactor, so the key is ``((mask & labels) >> V, S)`` and cubes with equal
cofactors share one entry, as ROBDD nodes do (Bryant 1986).  Other data
(PLA rows, weighted or incomplete tables) is keyed on the row mask alone.
The memos hold exactly the subproblems the search expanded and solved to
proven optimality, which keeps them sound regardless of bounding; a pure
or depth-0 subproblem is its majority leaf, which two counts recompute,
so it gets no entry and ``memos[0]`` stays empty.  After an unbudgeted
search, memo entries equal expansions.  ``fit_bruteforce`` is a
deliberately naive enumerator kept as an independent oracle.  Both split
a leaf only when that is strictly better, so no fitted branch has two
equal leaves.

A memo value is ``(error, node)``, and the search builds no tree objects:
a node is a label (0 or 1) or a tuple ``(feature, low, high)``, and
``_fit`` turns the root into ``Leaf``/``Branch`` once, converting each
shared subtree once.  Its two leaves differ, so a fitted depth-1 split is
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
from dataclasses import dataclass

from .aig import truth_table_input_words
from .dataset import Dataset


class OdtError(Exception):
    """Invalid learning request (empty data, guard violation, ...)."""


@dataclass(frozen=True, slots=True)
class Leaf:
    label: int

    @property
    def depth(self) -> int:
        return 0


@dataclass(frozen=True, slots=True)
class Branch:
    feature: int
    low: "TreeNode"   # feature = 0 child
    high: "TreeNode"  # feature = 1 child

    @property
    def depth(self) -> int:
        return 1 + max(self.low.depth, self.high.depth)


TreeNode = Leaf | Branch

LEAF_0 = Leaf(0)
LEAF_1 = Leaf(1)


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
    """A fitted tree and its weighted training error.

    The depth is derived: ``realized_depth`` is ``root.depth``.
    """

    root: TreeNode
    train_error: int
    proven_optimal: bool = True

    @property
    def realized_depth(self) -> int:
        return self.root.depth


def predict(tree: DecisionTree, features: tuple[int, ...]) -> int:
    node = tree.root
    while isinstance(node, Branch):
        if node.feature >= len(features):
            raise OdtError(
                f"feature {node.feature} out of range for width {len(features)}")
        node = node.high if features[node.feature] else node.low
    return node.label


def _weighted_count(mask: int, weights: tuple[int, ...]) -> int:
    """Total weight of the rows in mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def collapse(node: TreeNode) -> TreeNode:
    """Merge equal sibling leaves bottom-up; a test oracle (fits have none)."""
    if isinstance(node, Leaf):
        return node
    low = collapse(node.low)
    high = collapse(node.high)
    if isinstance(low, Leaf) and isinstance(high, Leaf) and low.label == high.label:
        return low
    return Branch(node.feature, low, high)


Node = int | tuple  # a search node: a label or (feature, low, high)


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


def _tree(node: Node, built: dict[int, Branch] | None = None) -> TreeNode:
    """The ``Leaf``/``Branch`` form of a search node; ``built`` maps the id
    of each tuple converted so far to its branch, so a shared subtree is
    converted once and stays shared."""
    if isinstance(node, int):
        return LEAF_1 if node else LEAF_0
    if built is None:
        built = {}
    branch = built.get(id(node))
    if branch is None:
        f, low, high = node
        branch = built[id(node)] = Branch(f, _tree(low, built),
                                          _tree(high, built))
    return branch


def fit_optimal(data: Dataset, budget: SearchBudget) -> DecisionTree:
    """Tree with provably minimal weighted training error at the depth cap.

    When a node or time limit preempts the proof, the best tree found so
    far is returned with ``proven_optimal`` false.  Calls without such a
    limit are memoized.
    """
    if data.num_rows < 1:
        raise OdtError("cannot fit a tree on an empty dataset")
    if budget.node_limit is None and budget.time_limit is None:
        return _fit_unbudgeted(data, budget.max_depth)
    return _fit(data, budget)


@functools.lru_cache(maxsize=512)
def _fit_unbudgeted(data: Dataset, max_depth: int) -> DecisionTree:
    return _fit(data, SearchBudget(max_depth=max_depth))


def _fit(data: Dataset, budget: SearchBudget) -> DecisionTree:
    search = _Search(data, budget)
    err, root = search.solve(data.row_mask, budget.max_depth)
    return DecisionTree(root=_tree(root), train_error=err,
                        proven_optimal=not search.exhausted)


def fit_bruteforce(data: Dataset, budget: SearchBudget) -> DecisionTree:
    """Exhaustive reference learner (no memoization, no bounding, no bitsets)."""
    if data.num_features > 10 or budget.max_depth > 3:
        raise OdtError("brute-force guard: <=10 features and depth <=3 only")
    if data.num_rows < 1:
        raise OdtError("cannot fit a tree on an empty dataset")
    rows = [(bits, label, data.weights[r] if data.weights else 1)
            for r, (bits, label) in enumerate(data.rows())]

    def best_tree(subset, depth):
        ones = sum(w for _, label, w in subset if label == 1)
        zeros = sum(w for _, label, w in subset if label == 0)
        if ones > zeros:
            err, node = zeros, Leaf(1)
        else:
            err, node = ones, Leaf(0)
        if depth == 0 or err == 0:
            return err, node
        for f in range(data.num_features):
            low = [row for row in subset if row[0][f] == 0]
            high = [row for row in subset if row[0][f] == 1]
            if not low or not high:
                continue
            err0, t0 = best_tree(low, depth - 1)
            err1, t1 = best_tree(high, depth - 1)
            if err0 + err1 < err:
                err, node = err0 + err1, Branch(f, t0, t1)
        return err, node

    err, root = best_tree(rows, budget.max_depth)
    return DecisionTree(root=root, train_error=err)
