"""Generators of the benchmark circuits committed under ``benchmarks/``.

``make_benchmarks.py`` writes each circuit as ``benchmarks/<name>.aag``
and ``make_pla_cases.py`` samples the PLA cases from two of them; the tool,
its tests and perfbench read the committed files.  ``c17`` is the
published 6-NAND netlist.  ``add8u`` and ``mul7u`` are the exact unsigned
adder/multiplier functions.  The remaining ISCAS85-profile circuits are
functional reconstructions: each generator implements the documented
high-level function of its namesake at the published input/output widths.
Partitioning and error measurements exercise the same structural scale;
gate-for-gate identity with the historical netlists is not claimed.
"""

from __future__ import annotations

from treesynth.aig import Aig, AigBuilder, CONST0, CONST1, cleanup, lit_not


def c17() -> Aig:
    """The ISCAS85 C17 netlist: five inputs, two outputs, six NAND gates."""
    b = AigBuilder(5)
    x1, x2, x3, x6, x7 = (b.input_lit(i) for i in range(5))
    g10 = lit_not(b.and_(x1, x3))
    g11 = lit_not(b.and_(x3, x6))
    g16 = lit_not(b.and_(x2, g11))
    g19 = lit_not(b.and_(g11, x7))
    b.add_output(lit_not(b.and_(g10, g16)))
    b.add_output(lit_not(b.and_(g16, g19)))
    return b.build(["1", "2", "3", "6", "7"], ["22", "23"])


def _ripple_add(b: AigBuilder, xs: list[int], ys: list[int],
                carry: int = CONST0) -> list[int]:
    """Full-adder chain; returns len(xs)+1 sum bits (LSB first)."""
    out = []
    for x, y in zip(xs, ys):
        p = b.xor_(x, y)
        out.append(b.xor_(p, carry))
        carry = b.or_(b.and_(x, y), b.and_(p, carry))
    out.append(carry)
    return out


def add8u() -> Aig:
    """8-bit unsigned adder: 16 inputs, 9 outputs (sum LSB first)."""
    b = AigBuilder(16)
    xs = [b.input_lit(i) for i in range(8)]
    ys = [b.input_lit(8 + i) for i in range(8)]
    for s in _ripple_add(b, xs, ys):
        b.add_output(s)
    names = [f"a{i}" for i in range(8)] + [f"b{i}" for i in range(8)]
    return cleanup(b.build(names, [f"s{i}" for i in range(9)]))


def mul7u() -> Aig:
    """7-bit unsigned array multiplier: 14 inputs, 14 outputs (LSB first)."""
    n = 7
    b = AigBuilder(2 * n)
    xs = [b.input_lit(i) for i in range(n)]
    ys = [b.input_lit(n + i) for i in range(n)]
    acc = [CONST0] * (2 * n)
    for j in range(n):
        row = [CONST0] * j + [b.and_(x, ys[j]) for x in xs]
        row += [CONST0] * (2 * n - len(row))
        acc = _ripple_add(b, acc, row)[:2 * n]
    for s in acc:
        b.add_output(s)
    names = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    return cleanup(b.build(names, [f"p{i}" for i in range(2 * n)]))


def _or_all(b: AigBuilder, xs: list[int]) -> int:
    total = CONST0
    for x in xs:
        total = b.or_(total, x)
    return total


def _binary_encode(b: AigBuilder, flags: list[int], width: int) -> list[int]:
    """Priority-encode the first asserted flag as a binary index."""
    out = [CONST0] * width
    taken = CONST0
    for idx, f in enumerate(flags):
        first = b.and_(f, lit_not(taken))
        for k in range(width):
            if (idx >> k) & 1:
                out[k] = b.or_(out[k], first)
        taken = b.or_(taken, f)
    return out


def c432_profile() -> Aig:
    """27-channel priority interrupt controller, 36 inputs / 7 outputs.

    Three 9-line request banks A > B > C share one 9-bit enable mask;
    outputs are the per-bank grants plus the granted channel index.
    """
    b = AigBuilder(36)
    banks = [[b.and_(b.input_lit(9 * bank + ch), b.input_lit(27 + ch))
              for ch in range(9)] for bank in range(3)]
    any_bank = [_or_all(b, bank) for bank in banks]
    grant = [any_bank[0],
             b.and_(any_bank[1], lit_not(any_bank[0])),
             b.and_(any_bank[2], lit_not(b.or_(any_bank[0], any_bank[1])))]
    # channel index within the granted bank, highest-priority (lowest) first
    chan_flags = []
    for ch in range(9):
        f = CONST0
        for bank in range(3):
            f = b.or_(f, b.and_(grant[bank], banks[bank][ch]))
        chan_flags.append(f)
    for g in grant:
        b.add_output(g)
    for bit in _binary_encode(b, chan_flags, 4):
        b.add_output(bit)
    in_names = [f"r{bank}_{ch}" for bank in range(3) for ch in range(9)]
    in_names += [f"en{ch}" for ch in range(9)]
    out_names = ["pa", "pb", "pc", "ch0", "ch1", "ch2", "ch3"]
    return cleanup(b.build(in_names, out_names))


def _sec_corrector(num_data: int, num_check: int, num_ctl: int,
                   syndrome_out: bool) -> Aig:
    """Single-error corrector skeleton shared by the C499/C1908 profiles.

    Data parities are compared against the check inputs; when the control
    lines enable correction, the data bit addressed by the syndrome flips.
    """
    index_bits = max(1, (num_data - 1).bit_length())
    b = AigBuilder(num_data + num_check + num_ctl)
    data = [b.input_lit(i) for i in range(num_data)]
    check = [b.input_lit(num_data + i) for i in range(num_check)]
    ctl = [b.input_lit(num_data + num_check + i) for i in range(num_ctl)]

    syndrome = []
    for k in range(num_check):
        p = CONST0
        for j in range(num_data):
            if k < index_bits:
                if (j >> k) & 1:
                    p = b.xor_(p, data[j])
            elif (j + k) % 2 == 0:  # extra checks: alternating parities
                p = b.xor_(p, data[j])
        syndrome.append(b.xor_(p, check[k]))
    enable = ctl[0]
    for c in ctl[1:]:
        enable = b.xor_(enable, c)
    extra_ok = CONST1
    for s in syndrome[index_bits:]:
        extra_ok = b.and_(extra_ok, s)
    flip_enable = b.and_(enable, extra_ok)
    for j in range(num_data):
        match = CONST1
        for k in range(index_bits):
            bit = syndrome[k]
            match = b.and_(match, bit if (j >> k) & 1 else lit_not(bit))
        b.add_output(b.xor_(data[j], b.and_(flip_enable, match)))
    if syndrome_out:
        for s in syndrome:
            b.add_output(s)
        b.add_output(flip_enable)
    in_names = ([f"d{i}" for i in range(num_data)]
                + [f"c{i}" for i in range(num_check)]
                + [f"t{i}" for i in range(num_ctl)])
    out_names = [f"q{i}" for i in range(num_data)]
    if syndrome_out:
        out_names += [f"s{i}" for i in range(num_check)] + ["err"]
    return cleanup(b.build(in_names, out_names))


def c499_profile() -> Aig:
    """32-bit single-error corrector, 41 inputs / 32 outputs."""
    return _sec_corrector(num_data=32, num_check=8, num_ctl=1,
                          syndrome_out=False)


def c1908_profile() -> Aig:
    """16-bit SEC/DED-style corrector, 33 inputs / 25 outputs."""
    return _sec_corrector(num_data=16, num_check=8, num_ctl=9,
                          syndrome_out=True)


def c880_profile() -> Aig:
    """8-bit ALU, 60 inputs / 26 outputs.

    Operands A and B with carry-in, a 2-bit opcode (add, and, or, xor),
    plus mask/select buses driving the auxiliary result banks.
    """
    b = AigBuilder(60)
    a = [b.input_lit(i) for i in range(8)]
    bb = [b.input_lit(8 + i) for i in range(8)]
    cin = b.input_lit(16)
    op = [b.input_lit(17 + i) for i in range(2)]
    mask = [b.input_lit(19 + i) for i in range(8)]
    c = [b.input_lit(27 + i) for i in range(8)]
    d = [b.input_lit(35 + i) for i in range(8)]
    en = [b.input_lit(43 + i) for i in range(8)]
    k = [b.input_lit(51 + i) for i in range(8)]
    ge = b.input_lit(59)

    summed = _ripple_add(b, a, bb, cin)
    res = []
    for i in range(8):
        val_and = b.and_(a[i], bb[i])
        val_or = b.or_(a[i], bb[i])
        val_xor = b.xor_(a[i], bb[i])
        lo = b.mux(op[0], val_and, summed[i])
        hi = b.mux(op[0], val_xor, val_or)
        res.append(b.mux(op[1], hi, lo))
    carry = b.and_(summed[8], b.and_(lit_not(op[0]), lit_not(op[1])))
    zero = lit_not(_or_all(b, res))
    for r in res:
        b.add_output(r)
    b.add_output(carry)
    b.add_output(zero)
    for i in range(8):  # masked byte merge of the C and D buses
        b.add_output(b.mux(mask[i], c[i], d[i]))
    for i in range(8):  # gated comparator chain against the K bus
        b.add_output(b.and_(ge, b.and_(en[i], b.xor_(res[i], k[i]))))
    in_names = ([f"a{i}" for i in range(8)] + [f"b{i}" for i in range(8)]
                + ["cin", "op0", "op1"]
                + [f"m{i}" for i in range(8)] + [f"c{i}" for i in range(8)]
                + [f"d{i}" for i in range(8)] + [f"e{i}" for i in range(8)]
                + [f"k{i}" for i in range(8)] + ["ge"])
    out_names = ([f"r{i}" for i in range(8)] + ["cout", "zero"]
                 + [f"g{i}" for i in range(8)] + [f"q{i}" for i in range(8)])
    return cleanup(b.build(in_names, out_names))


BENCHMARKS = {
    "c17": c17,
    "add8u": add8u,
    "mul7u": mul7u,
    "c432": c432_profile,
    "c499": c499_profile,
    "c880": c880_profile,
    "c1908": c1908_profile,
}
