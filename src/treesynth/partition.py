"""Recursive min-cut decomposition of an AIG into bounded-interface cells.

Cells are kept in a global order such that every signal between cells
flows forward, so the cell quotient graph is acyclic by construction and
substitution can never create a combinational loop.  FM is deterministic,
so ``partition`` is a pure function of its arguments.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

from .aig import Aig, AigBuilder, check_int, cleanup, lit_node

# FM keeps each side of a bipartition within (0.5 +- BALANCE) of the cells,
# and stops after MAX_FM_PASSES improvement passes.
BALANCE = 0.1
MAX_FM_PASSES = 8


@dataclass(frozen=True)
class PartitionConfig:
    max_inputs: int = 14   # k
    max_outputs: int = 5   # m
    initial_parts: int = 5

    def __post_init__(self):
        check_int("max_inputs", self.max_inputs, 2)  # a lone AND has 2
        check_int("max_outputs", self.max_outputs, 1)
        check_int("initial_parts", self.initial_parts, 2)


@dataclass(frozen=True)
class SubCircuit:
    id: int
    member_nodes: frozenset[int]
    boundary_inputs: tuple[int, ...]   # parent node ids feeding the cell
    boundary_outputs: tuple[int, ...]  # member node ids read outside
    extracted: Aig


class _Netlist:
    """Fanin/fanout view of the AND nodes of a cleaned circuit.

    ``consumers`` maps every primary input and AND node to the AND nodes
    that read it, in increasing order.
    """

    def __init__(self, circuit: Aig):
        self.circuit = circuit
        first_and = circuit.num_inputs + 1
        self.first_and = first_and
        self.nodes = list(range(first_and, first_and + len(circuit.ands)))
        self.fanins: dict[int, tuple[int, int]] = {}
        self.consumers: dict[int, list[int]] = {
            n: [] for n in range(1, first_and + len(circuit.ands))}
        for n in self.nodes:
            a, b = circuit.ands[n - first_and]
            self.fanins[n] = (lit_node(a), lit_node(b))
            for src in set((lit_node(a), lit_node(b))):
                if src != 0:
                    self.consumers[src].append(n)
        self.po_nodes = {lit_node(o) for o in circuit.outputs
                         if lit_node(o) >= first_and}

    def boundary(self, members) -> tuple[list[int], list[int]]:
        members = set(members)
        ins: set[int] = set()
        outs: set[int] = set()
        for n in members:
            for src in self.fanins[n]:
                if src != 0 and src not in members:
                    ins.add(src)
            if n in self.po_nodes or any(c not in members
                                         for c in self.consumers[n]):
                outs.add(n)
        return sorted(ins), sorted(outs)


def _extract(net: _Netlist, members, part_id: int) -> SubCircuit:
    """Cone-copy a set of AND nodes into a standalone Aig over its inputs."""
    member_set = frozenset(members)
    ins, outs = net.boundary(member_set)
    builder = AigBuilder(len(ins))
    mapping = {0: 0}
    for slot, src in enumerate(ins):
        mapping[src] = builder.input_lit(slot)
    builder.copy(net.circuit, member_set, mapping)
    for n in outs:
        builder.add_output(mapping[n])
    return SubCircuit(id=part_id, member_nodes=member_set,
                      boundary_inputs=tuple(ins), boundary_outputs=tuple(outs),
                      extracted=builder.build())


def _fm_bipartition(net: _Netlist,
                    members: list[int]) -> tuple[list[int], list[int]]:
    """Balanced min-cut bipartition of a member set.

    Starts from the topological (node-id) halving and improves it with
    Fiduccia-Mattheyses passes; fully deterministic.  Neither side is ever
    empty: no move takes a side below one vertex.
    """
    members = sorted(members)
    side = _fm_passes(members, *_member_nets(net, members))
    part_a = [v for v in members if side[v] == 0]
    part_b = [v for v in members if side[v] == 1]
    return _acyclic_repair(net, part_a, part_b)


def _member_nets(net: _Netlist, members: list[int]
                 ) -> tuple[list[list[int]], dict[int, list[int]]]:
    """The nets of a sorted member set and the nets of each member.

    Nets are driver signals with at least two member pins; each pin list is
    sorted.
    """
    member_set = set(members)
    nets: list[list[int]] = []
    vertex_nets: dict[int, list[int]] = {v: [] for v in members}

    def add_net(pins: list[int]) -> None:
        if len(pins) >= 2:
            for p in pins:
                vertex_nets[p].append(len(nets))
            nets.append(pins)

    # consumers come in increasing order and after their driver, so every
    # pin list is sorted
    for v in members:
        add_net([v] + [c for c in net.consumers[v] if c in member_set])
    # nets driven by signals outside the member set
    seen_drivers = set(members)
    for v in members:
        for src in net.fanins[v]:
            if src == 0 or src in seen_drivers:
                continue
            seen_drivers.add(src)
            add_net([c for c in net.consumers[src] if c in member_set])
    return nets, vertex_nets


def _fm_passes(members: list[int], nets: list[list[int]],
               vertex_nets: dict[int, list[int]]) -> dict[int, int]:
    """Side (0 or 1) of each member after the FM passes.

    Starts from the halving of the sorted members.  A pass moves and locks
    the lowest-id balance-feasible vertex of maximum gain until none is
    left, then keeps the prefix of moves with the largest positive total
    gain (the shortest such prefix); passes stop when no prefix gains.

    Each pass counts the pins of every net on each side and scores every
    gain once, then keeps the gains by the classic FM delta updates: a move
    changes a gain only on a net whose destination side had no pin (+1 to
    each pin) or one (-1 to that pin), or whose source side is left with
    none (-1 to each pin) or one (+1 to that pin).  The deltas of one move
    are summed, so each changed unlocked pin is pushed once.  Moves come
    from one max-gain heap per side, so a pass costs O(pins log n) on nets
    of bounded fanout.
    """
    n = len(members)
    side = {v: (0 if i < n // 2 else 1) for i, v in enumerate(members)}
    lo = max(1, int((0.5 - BALANCE) * n))
    hi = n - lo

    for _ in range(MAX_FM_PASSES):
        # pins of each net on side 0 and side 1
        count = [[0, 0] for _ in nets]
        for v in members:
            for ni in vertex_nets[v]:
                count[ni][side[v]] += 1

        def gain(v: int) -> int:
            # +1 for each net v is alone on its side of, -1 for each net
            # with no pin on the other side
            s = side[v]
            return sum((c[s] == 1) - (c[1 - s] == 0)
                       for c in map(count.__getitem__, vertex_nets[v]))

        # one heap of (-gain, node) per side; an entry is stale once its
        # node is locked or its gain has changed
        gains_now = {v: gain(v) for v in members}
        heaps: list[list[tuple[int, int]]] = [[], []]
        for v in members:
            heaps[side[v]].append((-gains_now[v], v))
        for heap in heaps:
            heapq.heapify(heap)

        locked: set[int] = set()
        moves: list[int] = []
        gains: list[int] = []
        sizes = [n - sum(side.values()), sum(side.values())]
        saved = dict(side)
        while True:
            # balance feasibility depends only on the side
            best = None
            for s in (0, 1):
                if sizes[s] - 1 < lo or sizes[1 - s] + 1 > hi:
                    continue
                heap = heaps[s]
                while heap and (heap[0][1] in locked
                                or gains_now[heap[0][1]] != -heap[0][0]):
                    heapq.heappop(heap)
                if heap and (best is None or heap[0] < best):
                    best = heap[0]
            if best is None:
                break
            best_v = best[1]
            locked.add(best_v)
            moves.append(best_v)
            gains.append(-best[0])
            src = side[best_v]
            dst = side[best_v] = 1 - src
            sizes[src] -= 1
            sizes[dst] += 1
            # summed FM delta updates of this move's nets, by pin
            delta: defaultdict[int, int] = defaultdict(int)
            for ni in vertex_nets[best_v]:
                c = count[ni]
                if c[dst] == 0:  # the net is cut now
                    for p in nets[ni]:
                        delta[p] += 1
                elif c[dst] == 1:  # its lone destination pin has company
                    for p in nets[ni]:
                        if side[p] == dst:
                            delta[p] -= 1
                c[src] -= 1
                c[dst] += 1
                if c[src] == 0:  # the net is uncut now
                    for p in nets[ni]:
                        delta[p] -= 1
                elif c[src] == 1:  # its last source pin is alone
                    for p in nets[ni]:
                        if side[p] == src:
                            delta[p] += 1
            for p, d in delta.items():
                if d and p not in locked:
                    g = gains_now[p] = gains_now[p] + d
                    heapq.heappush(heaps[side[p]], (-g, p))
        # keep the best prefix of the move sequence
        best_prefix, best_total, total = 0, 0, 0
        for i, g in enumerate(gains):
            total += g
            if total > best_total:
                best_total, best_prefix = total, i + 1
        side = saved
        if best_total <= 0:
            break
        for v in moves[:best_prefix]:
            side[v] ^= 1
    return side


def _acyclic_repair(net: _Netlist, part_a: list[int],
                    part_b: list[int]) -> tuple[list[int], list[int]]:
    """Move nodes so that no signal flows from part_b back into part_a.

    Returns (A, B) with all internal edges A->B; falls back to topological
    halving if the repair would empty a side.
    """
    set_a, set_b = set(part_a), set(part_b)
    union = set_a | set_b

    def closure(seeds: set[int], forward: bool) -> set[int]:
        out = set(seeds)
        stack = list(seeds)
        while stack:
            v = stack.pop()
            nxt = (net.consumers[v] if forward else net.fanins[v])
            for u in nxt:
                if u in union and u not in out:
                    out.add(u)
                    stack.append(u)
        return out

    # sources in B feeding A: either move everything in B that reaches A
    # into A, or everything in A reachable from B into B; pick the smaller.
    b_to_a_tails = {v for v in set_b
                    if any(c in set_a for c in net.consumers[v])}
    reach_a = {v for v in closure(b_to_a_tails, forward=False) if v in set_b}
    from_b = {v for v in closure(b_to_a_tails, forward=True) if v in set_a}
    if len(reach_a) <= len(from_b):
        set_a |= reach_a
        set_b -= reach_a
    else:
        set_b |= from_b
        set_a -= from_b
    if not set_a or not set_b:
        ordered = sorted(union)
        half = len(ordered) // 2
        return ordered[:half], ordered[half:]
    return sorted(set_a), sorted(set_b)


def partition(circuit: Aig, config: PartitionConfig) -> list[SubCircuit]:
    """Decompose into cells with <= k boundary inputs and <= m outputs.

    The returned list is ordered so that all inter-cell signals flow from
    earlier to later cells.  Node ids in the cells refer to
    ``cleanup(circuit)``, not to ``circuit``: compose and measure against
    the cleaned circuit.  Each call returns a new list.
    """
    circuit = cleanup(circuit)
    net = _Netlist(circuit)
    if not net.nodes:
        return []
    parts: list[list[int]] = [list(net.nodes)]

    def split(index: int) -> bool:
        group = parts[index]
        if len(group) < 2:
            return False
        a, b = _fm_bipartition(net, group)
        parts[index:index + 1] = [a, b]
        return True

    # initial split into roughly initial_parts cells
    while len(parts) < config.initial_parts:
        largest = max(range(len(parts)), key=lambda i: (len(parts[i]), -i))
        if not split(largest):
            break

    def within_limits(group: list[int]) -> bool:
        ins, outs = net.boundary(group)
        return (len(ins) <= config.max_inputs
                and len(outs) <= config.max_outputs)

    # recursive bipartitioning until every cell fits the interface budget;
    # a split leaves the cells before it unchanged, so the scan goes on at
    # the first half
    i = 0
    while i < len(parts):
        if within_limits(parts[i]) or not split(i):
            i += 1

    return [_extract(net, group, pid) for pid, group in enumerate(parts)]


def partition_report(circuit: Aig, parts: list[SubCircuit]) -> dict:
    # cut size = distinct AND-node signals crossing a cell boundary
    cut_signals: set[int] = set()
    for p in parts:
        cut_signals.update(s for s in p.boundary_inputs
                           if s > circuit.num_inputs)
    return {
        "num_parts": len(parts),
        "cut_size": len(cut_signals),
        "parts": [
            {
                "id": p.id,
                "size": len(p.member_nodes),
                "inputs": len(p.boundary_inputs),
                "outputs": len(p.boundary_outputs),
            }
            for p in parts
        ],
    }
