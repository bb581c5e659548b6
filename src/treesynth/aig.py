"""And-Inverter Graph circuit representation and bit-parallel simulation.

Nodes are numbered densely: node 0 is the constant-false node, nodes
1..num_inputs are primary inputs, and AND nodes follow in topological
order.  Edges are encoded as integer literals ``2 * node + negated``,
so literal 0 is constant false and literal 1 is constant true.
"""

from __future__ import annotations

from dataclasses import dataclass


class AigError(Exception):
    """Malformed circuit, netlist file, or simulation request."""


def lit(node: int, negated: bool = False) -> int:
    return 2 * node + (1 if negated else 0)


def lit_node(literal: int) -> int:
    return literal >> 1


def lit_negated(literal: int) -> bool:
    return bool(literal & 1)


def lit_not(literal: int) -> int:
    return literal ^ 1

CONST0 = 0
CONST1 = 1


@dataclass(frozen=True)
class Aig:
    """Immutable combinational AIG.

    ``ands[i]`` holds the fanin literal pair of node ``num_inputs + 1 + i``;
    both fanins must reference strictly earlier nodes.
    """

    num_inputs: int
    ands: tuple[tuple[int, int], ...]
    outputs: tuple[int, ...]
    input_names: tuple[str, ...] | None = None
    output_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.num_inputs < 0:
            raise AigError("num_inputs must be >= 0")
        first_and = self.num_inputs + 1
        for i, (a, b) in enumerate(self.ands):
            end = 2 * (first_and + i)  # first literal of this node
            if not (0 <= a < end and 0 <= b < end):
                raise AigError(f"AND node {first_and + i} has a negative or "
                               "non-topological fanin")
        end = 2 * (first_and + len(self.ands))
        for o in self.outputs:
            if not 0 <= o < end:
                raise AigError(f"output literal {o} references no node")
        if self.input_names is not None and \
                len(self.input_names) != self.num_inputs:
            raise AigError("input name count does not match input count")
        if self.output_names is not None and \
                len(self.output_names) != len(self.outputs):
            raise AigError("output name count does not match output count")

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)


def simulate_words(circuit: Aig, input_words: list[int], mask: int) -> list[int]:
    """Evaluate the circuit on bit-packed vectors.

    ``input_words[i]`` carries one bit per vector for input ``i``; ``mask``
    has a 1 for every valid vector position.  Returns one packed word per
    output.
    """
    if len(input_words) != circuit.num_inputs:
        raise AigError("input word count does not match circuit inputs")
    values = [0] + [w & mask for w in input_words]
    extend_words(values, circuit.ands, circuit.num_inputs + 1, mask)
    return literal_words(values, circuit.outputs, mask)


def extend_words(values: list[int], ands, first_and: int, mask: int) -> None:
    """Append the packed word of every AND node that ``values`` lacks.

    ``values[n]`` is the word of node ``n``; it covers the constant, the
    inputs and a prefix of ``ands``, whose entry ``i`` is the fanin pair of
    node ``first_and + i``.  Calling it again after more nodes were built
    simulates only those.
    """
    append = values.append
    for a, b in ands[len(values) - first_and:]:
        wa = values[a >> 1]
        if a & 1:
            wa ^= mask
        wb = values[b >> 1]
        if b & 1:
            wb ^= mask
        append(wa & wb)


def literal_words(values: list[int], literals, mask: int) -> list[int]:
    """The packed word of each literal, given the word of every node."""
    return [values[x >> 1] ^ mask if x & 1 else values[x >> 1]
            for x in literals]


def pack_vectors(vectors: list[tuple[int, ...]], num_inputs: int) -> list[int]:
    """Pack per-vector bit tuples into one word per input (bit r = vector r)."""
    words = [0] * num_inputs
    for r, vec in enumerate(vectors):
        if len(vec) != num_inputs:
            raise AigError(
                f"vector {r} has {len(vec)} bits, expected {num_inputs}")
        for i, bit in enumerate(vec):
            if bit:
                words[i] |= 1 << r
    return words


def simulate(circuit: Aig, vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Per-vector exact simulation; vectors are tuples of 0/1 bits."""
    n = len(vectors)
    mask = (1 << n) - 1
    words = pack_vectors(vectors, circuit.num_inputs)
    out_words = simulate_words(circuit, words, mask)
    return [tuple((w >> r) & 1 for w in out_words) for r in range(n)]


def truth_table_input_words(num_inputs: int, base: int = 0,
                            count: int | None = None) -> list[int]:
    """Packed input words for rows base..base+count-1 of the full truth table.

    Row r assigns bit i of r to input i (input 0 is the LSB).  ``count``
    must be a power of two and ``base`` a multiple of it.
    """
    if count is None:
        count = 1 << num_inputs
    if count & (count - 1) or base % count:
        raise AigError("truth table chunk must be an aligned power of two")
    words = []
    for i in range(num_inputs):
        period = 1 << i
        if period >= count:
            words.append(((1 << count) - 1) if ((base >> i) & 1) else 0)
        else:
            # one 0^period 1^period block, doubled until it fills count bits
            pattern = ((1 << period) - 1) << period
            width = 2 * period
            while width < count:
                pattern |= pattern << width
                width *= 2
            words.append(pattern)
    return words


def reachable_nodes(circuit: Aig) -> set[int]:
    """AND nodes reachable from the outputs (constants/PIs excluded)."""
    return _reachable(circuit.ands, circuit.num_inputs + 1, circuit.outputs)


def _reachable(ands, first_and: int, literals) -> set[int]:
    """AND nodes reachable from ``literals``; ``ands[i]`` is node
    ``first_and + i``."""
    seen = {x >> 1 for x in literals if x >> 1 >= first_and}
    stack = list(seen)
    push, mark = stack.append, seen.add
    while stack:
        a, b = ands[stack.pop() - first_and]
        a >>= 1
        if a >= first_and and a not in seen:
            mark(a)
            push(a)
        b >>= 1
        if b >= first_and and b not in seen:
            mark(b)
            push(b)
    return seen


def and_count(circuit: Aig) -> int:
    return len(reachable_nodes(circuit))


class AigBuilder:
    """Mutable AIG constructor with structural hashing and constant folding."""

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self.ands: list[tuple[int, int]] = []
        self.outputs: list[int] = []
        self._strash: dict[tuple[int, int], int] = {}

    def input_lit(self, index: int) -> int:
        if not 0 <= index < self.num_inputs:
            raise AigError(f"input index {index} out of range")
        return lit(1 + index)

    def and_(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        # Constant and trivial cases fold away.
        if a == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if a == b:
            return a
        if a == lit_not(b):
            return CONST0
        key = (a, b)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        node = self.num_inputs + 1 + len(self.ands)
        self.ands.append(key)
        out = lit(node)
        self._strash[key] = out
        return out

    def or_(self, a: int, b: int) -> int:
        return lit_not(self.and_(lit_not(a), lit_not(b)))

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, lit_not(b)), self.and_(lit_not(a), b))

    def mux(self, sel: int, high: int, low: int) -> int:
        """If sel then high else low; ``and_`` folds constant operands."""
        if high == low:
            return high
        return self.or_(self.and_(sel, high), self.and_(lit_not(sel), low))

    def inline(self, cell: Aig, inputs: list[int]) -> list[int]:
        """Build ``cell`` on the builder literals ``inputs`` of its inputs.

        Returns the builder literal of each cell output.  Structural
        hashing reuses every node the builder already holds.
        """
        local = [CONST0, *inputs]  # builder literal of the cell's node n
        for a, b in cell.ands:
            local.append(self.and_(local[a >> 1] ^ (a & 1),
                                   local[b >> 1] ^ (b & 1)))
        return [local[o >> 1] ^ (o & 1) for o in cell.outputs]

    def reachable(self, literals) -> set[int]:
        """AND nodes reachable from ``literals``."""
        return _reachable(self.ands, self.num_inputs + 1, literals)

    def rollback(self, size: int) -> None:
        """Forget the AND nodes built after the first ``size``.

        The builder is then as it was when it held ``size`` AND nodes;
        outputs must not reference the forgotten nodes.
        """
        for key in self.ands[size:]:
            del self._strash[key]
        del self.ands[size:]

    def add_output(self, literal: int) -> None:
        self.outputs.append(literal)

    def build(self, input_names=None, output_names=None) -> Aig:
        return Aig(
            num_inputs=self.num_inputs,
            ands=tuple(self.ands),
            outputs=tuple(self.outputs),
            input_names=tuple(input_names) if input_names else None,
            output_names=tuple(output_names) if output_names else None,
        )


def _rebuild(circuit: Aig) -> Aig:
    """Rebuild the nodes reachable from the outputs on a fresh builder."""
    builder = AigBuilder(circuit.num_inputs)
    keep = reachable_nodes(circuit)
    first_and = circuit.num_inputs + 1
    mapping: dict[int, int] = {0: CONST0}
    for i in range(circuit.num_inputs):
        mapping[1 + i] = builder.input_lit(i)

    def mapped(literal: int) -> int:
        m = mapping[lit_node(literal)]
        return lit_not(m) if lit_negated(literal) else m

    for i, (a, b) in enumerate(circuit.ands):
        node = first_and + i
        if node not in keep:
            continue
        mapping[node] = builder.and_(mapped(a), mapped(b))
    for o in circuit.outputs:
        builder.add_output(mapped(o))
    return builder.build(circuit.input_names, circuit.output_names)


def cleanup(circuit: Aig) -> Aig:
    """Drop AND nodes unreachable from the outputs, structurally hash and
    constant-fold the rest; the result is simulation-equivalent.

    Constant folding can orphan a kept node (``n6 = n5 & !n5`` leaves
    ``n5`` unread); a second pass then drops it, so that cleaning a
    cleaned circuit returns it unchanged.
    """
    cleaned = _rebuild(circuit)
    if and_count(cleaned) < len(cleaned.ands):
        cleaned = _rebuild(cleaned)
    return cleaned


def compose_builder(circuit: Aig, parts,
                    replacements: dict[int, Aig]) -> tuple[AigBuilder,
                                                           dict[int, int]]:
    """The uncleaned composition behind ``compose``.

    Returns the builder, whose outputs are the circuit's, and the builder
    literal of node 0, of every primary input and of every boundary output
    node.  Its nodes follow cell order; AND nodes no output reaches are
    kept.
    """
    ids = {p.id for p in parts}
    for pid in replacements:
        if pid not in ids:
            raise AigError(f"replacement for unknown part id {pid!r}")

    builder = AigBuilder(circuit.num_inputs)
    mapping: dict[int, int] = {0: CONST0}
    for i in range(circuit.num_inputs):
        mapping[1 + i] = builder.input_lit(i)

    def built(node: int, reader: str) -> int:
        if node not in mapping:
            raise AigError(
                f"{reader} reads node {node} before it is built: parts must "
                "be the partition of the circuit in flow order, read outside "
                "a cell only through its boundary outputs")
        return mapping[node]

    for part in parts:
        cell = replacements.get(part.id, part.extracted)
        shape = (len(part.boundary_inputs), len(part.boundary_outputs))
        if (cell.num_inputs, cell.num_outputs) != shape:
            raise AigError(
                f"part {part.id}: replacement has {cell.num_inputs} inputs "
                f"and {cell.num_outputs} outputs, boundary has {shape[0]} "
                f"and {shape[1]}")
        inputs = [built(src, f"part {part.id}")
                  for src in part.boundary_inputs]
        for node, out in zip(part.boundary_outputs,
                             builder.inline(cell, inputs)):
            mapping[node] = out

    for o in circuit.outputs:
        builder.add_output(built(lit_node(o), "an output") ^ (o & 1))
    return builder, mapping


def compose(circuit: Aig, parts, replacements: dict[int, Aig]) -> Aig:
    """Substitute several partition cells at once.

    ``parts`` must be the partition of ``circuit`` (SubCircuit values, see
    the partition module) in its flow order: every boundary input of a cell
    is a primary input or a boundary output of an earlier cell.
    ``replacements`` maps part id -> replacement Aig over the part's
    boundary interface.  One pass over the cells inlines every cell, its
    replacement or else its own extraction, on its already-built boundary
    inputs.  The result is cleaned and structurally hashed; its nodes
    follow cell order.
    """
    builder, _ = compose_builder(circuit, parts, replacements)
    return cleanup(builder.build(circuit.input_names, circuit.output_names))
