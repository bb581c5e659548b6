"""Resynthesis of decision trees into AIG logic and circuit approximation.

Lowering any tree builds only nodes its outputs read, so a lowered
circuit's area is ``len(circuit.ands)``, with no reachability walk.  A
branch is ``mux(s, h, l)`` on an input literal ``s`` and its children's
literals; ``h == l`` builds nothing.  Otherwise ``and_(s, h)`` folds only
when ``h`` is 0, 1, ``s`` or ``¬s``, and then builds nothing; the same
holds for ``and_(¬s, l)``.  When both are nodes, the OR (the AND of their
complements) cannot fold: both literals are even, and they differ, since
their keys differ (equal keys need ``h = ¬s``, which folds).  When one
folded, the OR is the other node, or the AND of it and ``s`` or ``¬s``,
which cannot fold either.  So every node a mux builds feeds its result,
and a child's node feeds ``and_(s, h)`` or ``and_(¬s, l)``, or is the
result; a strash hit or a shared subtree reuses only nodes that are
already live.  This holds for every tree, optimal or not, node-limited
or not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aig import Aig, AigBuilder, CONST0, CONST1
from .dataset import truth_tables
from .odt import DecisionTree, Node, SearchBudget, check_node, fit_optimal


def _tree_cone(builder: AigBuilder, node: Node, lowered: dict) -> int:
    """The builder literal of ``node``.  ``lowered`` maps the id of each node
    already lowered on ``builder`` to its literal: a node many paths share
    is checked and built once, as structural hashing would reuse it."""
    literal = lowered.get(id(node))
    if literal is None:
        check_node(node, builder.num_inputs)
        if isinstance(node, int):
            literal = CONST1 if node else CONST0
        else:
            f, low, high = node
            literal = builder.mux(builder.input_lit(f),
                                  _tree_cone(builder, high, lowered),
                                  _tree_cone(builder, low, lowered))
        lowered[id(node)] = literal
    return literal


def tree_to_aig(tree: DecisionTree, num_inputs: int) -> Aig:
    """Single-output AIG computing exactly the tree's prediction function."""
    builder = AigBuilder(num_inputs)
    builder.add_output(_tree_cone(builder, tree.root, {}))
    return builder.build()


def trees_to_aig(trees: list[DecisionTree], num_inputs: int) -> Aig:
    """Multi-output AIG; identical subtrees dedupe through shared hashing."""
    builder = AigBuilder(num_inputs)
    lowered: dict[int, int] = {}
    for tree in trees:
        builder.add_output(_tree_cone(builder, tree.root, lowered))
    return builder.build()


@dataclass(frozen=True)
class ApproxSubCircuit:
    circuit: Aig
    per_output_trees: tuple[DecisionTree, ...]

    @property
    def exact(self) -> bool:
        """Every tree fits its output's truth table without error."""
        return all(t.train_error == 0 for t in self.per_output_trees)

    @property
    def proven(self) -> bool:
        """Every tree was proven optimal (no search ran out of budget)."""
        return all(t.proven_optimal for t in self.per_output_trees)


def approx_sub_circuit(circuit: Aig, md: int,
                       node_limit: int | None = None) -> ApproxSubCircuit:
    """Learn one depth-bounded optimal tree per output of ``circuit`` (a
    partition cell's extracted circuit, or a whole netlist) and reassemble
    them into a replacement circuit.  At ``md`` 0 each output is its
    majority constant; a negative ``md`` is an ``OdtError``.  A node
    limit that is reached leaves the best tree found so far for that
    output, and ``proven`` false.
    """
    budget = SearchBudget(max_depth=md, node_limit=node_limit)
    trees = [fit_optimal(d, budget) for d in truth_tables(circuit)]
    return ApproxSubCircuit(circuit=trees_to_aig(trees, circuit.num_inputs),
                            per_output_trees=tuple(trees))
