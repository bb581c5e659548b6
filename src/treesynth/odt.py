"""Depth-constrained optimal decision trees.

``fit_optimal`` is a dynamic-programming branch-and-bound learner in the
DL8.5 style: subproblems are row subsets reached by a path of feature
conditions, memoized so that equivalent paths share work.  Subproblem
results are cached only when solved to proven optimality, which keeps the
cache sound regardless of bounding.  ``fit_bruteforce`` is a deliberately
naive enumerator kept as an independent oracle.  Both split a leaf only when
that is strictly better, so no fitted branch has two equal leaves.

The bottom of the search is solved in closed form, as in MurTree: at depth 1
both children are leaves, so each candidate split needs only the weight and
the positive weight of its high side; the low side follows by subtraction
from the totals of the subproblem.  No depth-0 subproblem is created or
memoized below the root.  Only a search with a node or time limit checks
its budget inside the feature loops; an unbudgeted search never can run
out, so it skips those checks, and unweighted data is counted with
``int.bit_count``.

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

from .dataset import Dataset


class OdtError(Exception):
    """Invalid learning request (empty data, guard violation, ...)."""


@dataclass(frozen=True)
class Leaf:
    label: int

    @property
    def depth(self) -> int:
        return 0


@dataclass(frozen=True)
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


def _weighted_count(mask: int, weights: tuple[int, ...] | None) -> int:
    """Total weight of the rows in mask (their number when unweighted)."""
    if weights is None:
        return mask.bit_count()
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _predicted_ones(node: TreeNode, mask: int,
                    features: tuple[int, ...]) -> int:
    """Rows of mask that the subtree at node labels 1."""
    if not mask:
        return 0
    if isinstance(node, Leaf):
        return mask if node.label else 0
    if node.feature >= len(features):
        raise OdtError(
            f"feature {node.feature} out of range for width {len(features)}")
    column = features[node.feature]
    return (_predicted_ones(node.low, mask & ~column, features)
            | _predicted_ones(node.high, mask & column, features))


def count_errors(tree: DecisionTree, data: Dataset) -> int:
    """Weighted misclassification count of the tree on the dataset.

    Bit-parallel: each root-to-leaf path selects its rows by ANDing the
    column bitsets along it, so the whole dataset is evaluated at once.
    """
    predicted = _predicted_ones(tree.root, data.row_mask, data.features)
    return _weighted_count((predicted ^ data.labels) & data.row_mask,
                           data.weights)


def collapse(node: TreeNode) -> TreeNode:
    """Merge equal sibling leaves bottom-up; a test oracle (fits have none)."""
    if isinstance(node, Leaf):
        return node
    low = collapse(node.low)
    high = collapse(node.high)
    if isinstance(low, Leaf) and isinstance(high, Leaf) and low.label == high.label:
        return low
    return Branch(node.feature, low, high)


def to_sexpr(node: TreeNode) -> str:
    if isinstance(node, Leaf):
        return f"(leaf {node.label})"
    return f"(x{node.feature} {to_sexpr(node.low)} {to_sexpr(node.high)})"


class _Search:
    def __init__(self, data: Dataset, budget: SearchBudget):
        self.features = data.features
        self.labels = data.labels
        self.budget = budget
        self.weight_of = (int.bit_count if data.weights is None
                          else functools.partial(_weighted_count,
                                                 weights=data.weights))
        self.limited = (budget.node_limit is not None
                        or budget.time_limit is not None)
        self.cache: dict[tuple[int, int], tuple[int, TreeNode]] = {}
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

    def solve(self, mask: int, depth: int) -> tuple[int, TreeNode]:
        """Minimum-error tree of depth <= depth for the rows in mask."""
        key = (mask, depth)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        weight_of = self.weight_of
        total = weight_of(mask)
        ones = weight_of(mask & self.labels)
        # majority class, ties to 0
        if ones > total - ones:
            best_err, best = total - ones, LEAF_1
        else:
            best_err, best = ones, LEAF_0
        if depth == 0 or best_err == 0:
            self.cache[key] = (best_err, best)
            return best_err, best
        self.expansions += 1
        limited = self.limited
        if depth == 1:
            # Both children are leaves: their errors follow from the counts
            # of the high side and the totals of mask, without recursion.
            labels = self.labels
            for f, column in enumerate(self.features):
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
                    best = Branch(f, LEAF_1 if o0 > z0 else LEAF_0,
                                  LEAF_1 if o1 > z1 else LEAF_0)
                    if best_err == 0:
                        break
        else:
            solve = self.solve
            for f, column in enumerate(self.features):
                if limited and self.out_of_budget():
                    break
                m1 = mask & column
                if m1 == 0 or m1 == mask:
                    continue  # constant feature here; split can never improve
                err0, t0 = solve(mask ^ m1, depth - 1)
                if err0 >= best_err:
                    continue
                err1, t1 = solve(m1, depth - 1)
                if err0 + err1 < best_err:
                    best_err = err0 + err1
                    best = Branch(f, t0, t1)
                    if best_err == 0:
                        break
        if not self.exhausted:
            self.cache[key] = (best_err, best)
        return best_err, best


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
    return DecisionTree(root=root, train_error=err,
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
