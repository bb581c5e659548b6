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


def check_int(name: str, value, low: int,
              error: type[Exception] = AigError) -> None:
    """``error`` unless ``value`` is an int >= ``low``; a bool counts as an
    int, as it does in Python."""
    if not isinstance(value, int) or value < low:
        raise error(f"{name} must be an int >= {low}")


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
    both fanins must reference strictly earlier nodes.  A ``num_inputs``
    that is no int >= 0, ``ands`` or ``outputs`` that are not tuples, a
    fanin pair that is not a tuple, a fanin or output that is no literal
    of an existing node, or names that are not a tuple of one str per
    input or output, is an AigError.
    """

    num_inputs: int
    ands: tuple[tuple[int, int], ...]
    outputs: tuple[int, ...]
    input_names: tuple[str, ...] | None = None
    output_names: tuple[str, ...] | None = None

    def __post_init__(self):
        check_int("num_inputs", self.num_inputs, 0)
        if not all(isinstance(x, tuple) for x in (self.ands, self.outputs)):
            raise AigError("ands and outputs must be tuples")
        # one pass in C over the pair types, no per-node check: a list,
        # bytes or range pair would unpack, but compare unequal to a tuple
        if not set(map(type, self.ands)) <= {tuple}:
            raise AigError("ands must be tuple pairs of int literals")
        first_and = self.num_inputs + 1
        # ``>> 1`` raises TypeError on a literal that is not an int
        try:
            for node, (a, b) in enumerate(self.ands, first_and):
                if not (0 <= a >> 1 < node and 0 <= b >> 1 < node):
                    raise AigError(f"AND node {node} has a negative or "
                                   "non-topological fanin")
            end = first_and + len(self.ands)
            for o in self.outputs:
                if not 0 <= o >> 1 < end:
                    raise AigError(f"output literal {o} references no node")
        except (TypeError, ValueError) as exc:
            raise AigError("ands must be tuple pairs of int literals and "
                           "outputs int literals") from exc
        for names, count in ((self.input_names, self.num_inputs),
                             (self.output_names, len(self.outputs))):
            if names is not None and not (
                    isinstance(names, tuple) and len(names) == count
                    and all(isinstance(n, str) for n in names)):
                raise AigError("names must be None or a tuple of one str "
                               "per input or output")

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)


def simulate_words(circuit: Aig, input_words: list[int], mask: int) -> list[int]:
    """Evaluate the circuit on bit-packed vectors.

    ``input_words[i]`` carries one bit per vector for input ``i``; ``mask``
    has a 1 for every valid vector position.  Returns one packed word per
    output.  A non-int word or mask, or a negative mask, is an AigError.
    """
    check_int("mask", mask, 0)
    try:
        values = [0, *(w & mask for w in input_words)]
    except TypeError:
        raise AigError("input words must be ints") from None
    if len(values) != circuit.num_inputs + 1:
        raise AigError("input word count does not match circuit inputs")
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


def truth_table_input_words(num_inputs: int) -> list[int]:
    """Packed input words of the full truth table, one bit per row.

    Row r assigns bit i of r to input i (input 0 is the LSB).
    """
    rows = 1 << num_inputs
    words = []
    for i in range(num_inputs):
        period = 1 << i
        # one 0^period 1^period block, doubled until it fills every row
        pattern = ((1 << period) - 1) << period
        width = 2 * period
        while width < rows:
            pattern |= pattern << width
            width *= 2
        words.append(pattern)
    return words


def reachable_nodes(circuit: Aig) -> set[int]:
    """AND nodes reachable from the outputs (constants/PIs excluded)."""
    ands, first_and = circuit.ands, circuit.num_inputs + 1
    seen = {x >> 1 for x in circuit.outputs if x >> 1 >= first_and}
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


def definition_order(definitions, roots, known) -> list:
    """The definitions that the sequence ``roots`` reaches, each after
    the names it reads.

    ``definitions`` maps a name to the names it reads; a name in ``known``
    (a constant or an input) needs no definition.  The walk is depth-first
    from each root in turn and follows a definition's names last to first.
    Raises AigError on a reference to an undefined name and on a loop.
    """
    order = []
    state = {}  # name -> 1 while on the walk's path, 2 once ordered
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        name, finished = stack.pop()
        if finished:
            state[name] = 2
            order.append(name)
        elif name not in known and state.get(name) != 2:
            if name not in definitions:
                raise AigError(f"reference to undefined signal {name}")
            if name in state:
                raise AigError(f"combinational loop through signal {name}")
            state[name] = 1
            stack.append((name, True))
            stack.extend((dep, False) for dep in definitions[name])
    return order


class AigBuilder:
    """Mutable AIG constructor with structural hashing and constant folding."""

    def __init__(self, num_inputs: int):
        check_int("num_inputs", num_inputs, 0)
        self.num_inputs = num_inputs
        self.ands: list[tuple[int, int]] = []
        self.outputs: list[int] = []
        self._strash: dict[tuple[int, int], int] = {}

    def input_lit(self, index: int) -> int:
        check_int("input index", index, 0)
        if index >= self.num_inputs:
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
        if a == b ^ 1:
            return CONST0
        key = (a, b)
        cached = self._strash.get(key)
        if cached is not None:
            return cached
        node = self.num_inputs + 1 + len(self.ands)
        self.ands.append(key)
        out = 2 * node
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

    def copy(self, circuit: Aig, nodes, mapping: dict[int, int]) -> None:
        """Build the AND nodes ``nodes`` of ``circuit``, in node order.

        ``mapping`` holds the builder literal of every node they read from
        outside the set; it gains the builder literal of each copied node.
        """
        ands, first_and = circuit.ands, circuit.num_inputs + 1
        for node in sorted(nodes):
            a, b = ands[node - first_and]
            mapping[node] = self.and_(mapping[a >> 1] ^ (a & 1),
                                      mapping[b >> 1] ^ (b & 1))

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
    mapping = {n: lit(n) for n in range(circuit.num_inputs + 1)}
    builder.copy(circuit, reachable_nodes(circuit), mapping)
    for o in circuit.outputs:
        builder.add_output(mapping[o >> 1] ^ (o & 1))
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
    ids = {p.id for p in parts}
    for pid, cell in replacements.items():
        if not isinstance(pid, int) or pid not in ids:
            raise AigError(f"replacement for unknown part id {pid!r}")
        if not isinstance(cell, Aig):
            raise AigError(f"replacement for part {pid} is not an Aig")

    builder = AigBuilder(circuit.num_inputs)
    mapping = {n: lit(n) for n in range(circuit.num_inputs + 1)}

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
    return cleanup(builder.build(circuit.input_names, circuit.output_names))
