"""ASCII AIGER ("aag") reader and writer, combinational subset.

AND lines may come in any order: ``aig.definition_order`` walks from the
ANDs in variable order, so the node order depends on the variables alone,
and rejects an undefined literal or a loop whether an output reads it or
not.  The writer rejects a name the reader could not read back.
"""

from __future__ import annotations

from .aig import (Aig, AigError, cleanup, definition_order, lit,
                  lit_negated)


def parse_aiger(text: str) -> Aig:
    if not isinstance(text, str):
        raise AigError("AIGER text must be a str")
    lines = text.splitlines()
    if not lines:
        raise AigError("empty AIGER input")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "aag":
        raise AigError(f"malformed AIGER header: {lines[0]!r}")
    try:
        m, i, l, o, a = (int(x) for x in header[1:])
    except ValueError as exc:
        raise AigError(f"malformed AIGER header: {lines[0]!r}") from exc
    if l != 0:
        raise AigError("sequential AIGER (latches) is not supported")
    if m < i + a:
        raise AigError("AIGER header: M < I + A")

    pos = 1

    def next_line(kind: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise AigError(f"unexpected end of file in {kind} section")
        line = lines[pos].strip()
        pos += 1
        return line

    # Input literals may be arbitrary even variables; remap by order.
    var_to_input: dict[int, int] = {}
    for idx in range(i):
        line = next_line("input")
        try:
            literal = int(line)
        except ValueError as exc:
            raise AigError(f"bad input literal: {line!r}") from exc
        var = literal >> 1
        if literal & 1 or not 0 < var <= m:
            raise AigError(f"input literal {literal} must be even in 2..2M")
        if var in var_to_input:
            raise AigError(f"duplicate input definition for variable {var}")
        var_to_input[var] = idx

    output_literals = []
    for _ in range(o):
        line = next_line("output")
        try:
            output_literals.append(int(line))
        except ValueError as exc:
            raise AigError(f"bad output literal: {line!r}") from exc

    and_defs: dict[int, tuple[int, int]] = {}
    for _ in range(a):
        fields = next_line("and").split()
        try:
            lhs, rhs0, rhs1 = (int(x) for x in fields)
        except ValueError as exc:
            raise AigError(f"bad AND line: {' '.join(fields)!r}") from exc
        var = lhs >> 1
        if lhs & 1 or not 0 < var <= m:
            raise AigError(f"AND lhs {lhs} must be even in 2..2M")
        if var in var_to_input or var in and_defs:
            raise AigError(f"duplicate definition for variable {var}")
        and_defs[var] = (rhs0, rhs1)

    input_names: list[str | None] = [None] * i
    output_names: list[str | None] = [None] * o
    while pos < len(lines):
        line = lines[pos].strip()
        pos += 1
        if line == "c":
            break
        if not line:
            continue
        kind, rest = line[0], line[1:]
        if kind not in "io":
            raise AigError(f"unexpected line in symbol table: {line!r}")
        try:
            idx_str, name = rest.split(" ", 1)
            idx = int(idx_str)
        except ValueError as exc:
            raise AigError(f"bad symbol table entry: {line!r}") from exc
        table = input_names if kind == "i" else output_names
        if not 0 <= idx < len(table):
            raise AigError(f"symbol index out of range: {line!r}")
        table[idx] = name

    # a file whose ANDs ascend keeps its order; a shuffle of it reads equal
    order = definition_order(
        {var: (a >> 1, b >> 1) for var, (a, b) in and_defs.items()},
        [*sorted(and_defs), *(x >> 1 for x in output_literals)],
        {0, *var_to_input})

    node_of_var = {0: 0}
    for var, idx in var_to_input.items():
        node_of_var[var] = 1 + idx

    def remap(literal: int) -> int:
        return lit(node_of_var[literal >> 1], lit_negated(literal))

    ands = []
    for rank, var in enumerate(order):
        node_of_var[var] = 1 + i + rank
        rhs0, rhs1 = and_defs[var]
        ands.append((remap(rhs0), remap(rhs1)))

    return Aig(
        num_inputs=i,
        ands=tuple(ands),
        outputs=tuple(remap(x) for x in output_literals),
        input_names=tuple(n or f"i{k}" for k, n in enumerate(input_names))
        if any(input_names) else None,
        output_names=tuple(n or f"o{k}" for k, n in enumerate(output_names))
        if any(output_names) else None,
    )


def write_aiger(circuit: Aig, comment: str | None = None) -> str:
    """Serialize the cleaned circuit; parse(write(c)) == cleanup(c).  A name
    the reader would reject or strip is an AigError, as is a comment that
    is neither a str nor None."""
    if comment is not None and not isinstance(comment, str):
        raise AigError("comment must be a str or None")
    c = cleanup(circuit)
    for name in (*(c.input_names or ()), *(c.output_names or ())):
        if name.splitlines() != [name] or name != name.rstrip():
            raise AigError(f"name {name!r} is empty, ends in whitespace or "
                           "holds a line break, which AIGER cannot express")
    i, a = c.num_inputs, len(c.ands)
    lines = [f"aag {i + a} {i} 0 {c.num_outputs} {a}"]
    for k in range(i):
        lines.append(str(lit(1 + k)))
    for o in c.outputs:
        lines.append(str(o))
    first_and = i + 1
    for k, (x, y) in enumerate(c.ands):
        lines.append(f"{lit(first_and + k)} {x} {y}")
    if c.input_names:
        for k, name in enumerate(c.input_names):
            lines.append(f"i{k} {name}")
    if c.output_names:
        for k, name in enumerate(c.output_names):
            lines.append(f"o{k} {name}")
    if comment:
        lines.append("c")
        lines.extend(comment.splitlines())
    return "\n".join(lines) + "\n"
