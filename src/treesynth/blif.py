"""BLIF reader/writer for combinational .names netlists.

Tables may come in any order, sorted by ``aig.definition_order``.  An
undefined signal, a loop or a malformed cover is an AigError also in a
table no output reads.  The writer rejects a name BLIF cannot express.
"""

from __future__ import annotations

from .aig import (Aig, AigBuilder, AigError, CONST0, CONST1, cleanup,
                  definition_order, lit_negated, lit_node, lit_not)


def parse_blif(text: str) -> Aig:
    if not isinstance(text, str):
        raise AigError("BLIF text must be a str")
    statements = _logical_lines(text)
    model = None
    inputs: list[str] = []
    outputs: list[str] = []
    tables: dict[str, tuple[list[str], list[str]]] = {}  # out: fanins, cubes

    idx = 0
    while idx < len(statements):
        tokens = statements[idx].split()
        idx += 1
        key = tokens[0]
        if key == ".model":
            if model is not None:
                raise AigError("multiple .model statements")
            model = tokens[1] if len(tokens) > 1 else ""
        elif key == ".inputs":
            inputs.extend(tokens[1:])
        elif key == ".outputs":
            outputs.extend(tokens[1:])
        elif key == ".latch":
            raise AigError("sequential BLIF (.latch) is not supported")
        elif key == ".names":
            if len(tokens) < 2:
                raise AigError(".names needs at least an output signal")
            fanins, out = tokens[1:-1], tokens[-1]
            if out in tables:
                raise AigError(f"duplicate definition for signal {out}")
            cubes = []
            while idx < len(statements) and not statements[idx].startswith("."):
                cubes.append(statements[idx])
                idx += 1
            tables[out] = (fanins, cubes)
        elif key == ".end":
            break
        else:
            raise AigError(f"unsupported BLIF construct: {key}")

    known: set[str] = set()
    for name in inputs:
        if name in known or name in tables:
            raise AigError(f"duplicate definition for signal {name}")
        known.add(name)
    # Outputs first, so their cones keep their node order; then every
    # table, so that logic no output reads is checked as well.
    order = definition_order(
        {out: fanins for out, (fanins, _) in tables.items()},
        [*outputs, *tables], known)

    builder = AigBuilder(len(inputs))
    signal: dict[str, int] = {
        name: builder.input_lit(k) for k, name in enumerate(inputs)}
    for name in order:
        fanins, cubes = tables[name]
        signal[name] = _cover_to_aig(
            builder, [signal[f] for f in fanins], cubes)
    for name in outputs:
        builder.add_output(signal[name])
    return cleanup(builder.build(inputs, outputs))


def _cover_to_aig(builder: AigBuilder, fanins: list[int],
                  cubes: list[str]) -> int:
    """Sum-of-cubes (or complemented offset cover) over AIG literals."""
    if not cubes:
        return CONST0  # empty cover is constant 0 by convention
    on_value = None
    total = CONST0
    for cube in cubes:
        fields = cube.split()
        if len(fanins) == 0:
            if len(fields) != 1 or fields[0] not in ("0", "1"):
                raise AigError(f"bad constant cube: {cube!r}")
            mask_part, out_part = "", fields[0]
        else:
            if len(fields) != 2:
                raise AigError(f"bad cube: {cube!r}")
            mask_part, out_part = fields
        if len(mask_part) != len(fanins):
            raise AigError(f"cube width mismatch: {cube!r}")
        if out_part not in ("0", "1"):
            raise AigError(f"bad cube output value: {cube!r}")
        if on_value is None:
            on_value = out_part
        elif out_part != on_value:
            raise AigError("mixed on-set/off-set cubes in one cover")
        term = CONST1
        for ch, f in zip(mask_part, fanins):
            if ch == "1":
                term = builder.and_(term, f)
            elif ch == "0":
                term = builder.and_(term, lit_not(f))
            elif ch != "-":
                raise AigError(f"bad cube character {ch!r} in {cube!r}")
        total = builder.or_(total, term)
    return total if on_value == "1" else lit_not(total)


def _logical_lines(text: str) -> list[str]:
    out = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if line:
            out.append(line)
    return out


def write_blif(circuit: Aig) -> str:
    """Serialize the cleaned circuit; one two-input .names table per AND.

    Internal nodes get names no input or output uses; an output named like
    an input or an earlier output must carry its literal (else AigError).
    Two inputs may not share a name (AigError): BLIF names are signals.
    A name must be one token without ``#`` or a trailing backslash
    (AigError), which the reader would split, cut or join.
    """
    c = cleanup(circuit)
    in_names = list(c.input_names) if c.input_names else [
        f"x{k}" for k in range(c.num_inputs)]
    if len(set(in_names)) < len(in_names):
        raise AigError("two inputs share a name, which BLIF cannot express")
    out_names = list(c.output_names) if c.output_names else [
        f"y{k}" for k in range(c.num_outputs)]
    for name in (*in_names, *out_names):
        if name.split() != [name] or "#" in name or name.endswith("\\"):
            raise AigError(f"name {name!r} is empty or has whitespace, '#' "
                           "or a trailing backslash, which BLIF cannot "
                           "express")
    lines = [".model top"]
    if in_names:
        lines.append(".inputs " + " ".join(in_names))
    lines.append(".outputs " + " ".join(out_names))
    reserved = set(in_names) | set(out_names)

    def fresh(name: str) -> str:
        while name in reserved:
            name += "_"
        return name

    const0 = fresh("const0")
    names = [const0, *in_names]

    def name_of(node: int) -> str:
        return names[node] if node < len(names) else fresh(f"n{node}")

    uses_const = any(lit_node(x) == 0 for pair in c.ands for x in pair) or any(
        lit_node(o) == 0 for o in c.outputs)
    if uses_const:
        lines.append(f".names {const0}")
    first_and = c.num_inputs + 1
    for k, (a, b) in enumerate(c.ands):
        pa = "0" if lit_negated(a) else "1"
        pb = "0" if lit_negated(b) else "1"
        lines.append(
            f".names {name_of(lit_node(a))} {name_of(lit_node(b))} "
            f"{name_of(first_and + k)}")
        lines.append(f"{pa}{pb} 1")
    literal_of = {name: 2 * k for k, name in enumerate(in_names, 1)}
    for o, out_name in zip(c.outputs, out_names):
        if out_name in literal_of:
            if literal_of[out_name] != o:
                raise AigError(f"output {out_name} is named like an input or "
                               "an earlier output but other logic drives it")
            continue
        literal_of[out_name] = o
        lines.append(f".names {name_of(lit_node(o))} {out_name}")
        lines.append(("0 1" if lit_negated(o) else "1 1"))
    lines.append(".end")
    return "\n".join(lines) + "\n"
