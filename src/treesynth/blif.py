"""BLIF reader/writer for combinational .names netlists."""

from __future__ import annotations

from .aig import (Aig, AigBuilder, AigError, CONST0, CONST1, cleanup,
                  lit_negated, lit_node, lit_not)


def parse_blif(text: str) -> Aig:
    statements = _logical_lines(text)
    model = None
    inputs: list[str] = []
    outputs: list[str] = []
    tables: list[tuple[list[str], str, list[str]]] = []  # (fanins, out, cubes)

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
            cubes = []
            while idx < len(statements) and not statements[idx].startswith("."):
                cubes.append(statements[idx])
                idx += 1
            tables.append((fanins, out, cubes))
        elif key == ".end":
            break
        else:
            raise AigError(f"unsupported BLIF construct: {key}")

    defined: set[str] = set()
    for name in [*inputs, *(out for _, out, _ in tables)]:
        if name in defined:
            raise AigError(f"duplicate definition for signal {name}")
        defined.add(name)
    for fanins, _, _ in tables:
        for sig in fanins:
            if sig not in defined:
                raise AigError(f"undefined signal reference: {sig}")
    for sig in outputs:
        if sig not in defined:
            raise AigError(f"undefined output signal: {sig}")

    builder = AigBuilder(len(inputs))
    signal: dict[str, int] = {
        name: builder.input_lit(k) for k, name in enumerate(inputs)}

    table_of = {out: (fanins, cubes) for fanins, out, cubes in tables}
    building: set[str] = set()

    def build_signal(root: str) -> int:
        stack = [root]
        while stack:
            name = stack[-1]
            if name in signal:
                stack.pop()
                continue
            fanins, cubes = table_of[name]
            missing = [f for f in fanins if f not in signal]
            if missing:
                for f in missing:
                    if f in building:
                        raise AigError(f"combinational loop through signal {f}")
                building.add(name)
                stack.extend(missing)
                continue
            signal[name] = _cover_to_aig(
                builder, [signal[f] for f in fanins], cubes)
            building.discard(name)
            stack.pop()
        return signal[root]

    for name in outputs:
        builder.add_output(build_signal(name))
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
            if len(fields) != 1 or fields[0] not in "01":
                raise AigError(f"bad constant cube: {cube!r}")
            mask_part, out_part = "", fields[0]
        else:
            if len(fields) != 2:
                raise AigError(f"bad cube: {cube!r}")
            mask_part, out_part = fields
        if len(mask_part) != len(fanins):
            raise AigError(f"cube width mismatch: {cube!r}")
        if out_part not in "01":
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
    """
    c = cleanup(circuit)
    in_names = list(c.input_names) if c.input_names else [
        f"x{k}" for k in range(c.num_inputs)]
    if len(set(in_names)) < len(in_names):
        raise AigError("two inputs share a name, which BLIF cannot express")
    out_names = list(c.output_names) if c.output_names else [
        f"y{k}" for k in range(c.num_outputs)]
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
