"""BLIF reading and writing (combinational subset)."""

import itertools
import random
from pathlib import Path

import pytest

from treesynth.aig import Aig, AigError
from treesynth.aiger import parse_aiger
from treesynth.blif import parse_blif, write_blif
from treesynth.qor import qor_exhaustive

from conftest import random_circuit
from reference import BENCHMARKS, c17, simulate

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"

FULL_ADDER = """# a one-bit full adder
.model fa
.inputs a b cin
.outputs s cout
.names a b cin s
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
"""


def test_parse_full_adder():
    c = parse_blif(FULL_ADDER)
    assert c.num_inputs == 3
    assert c.num_outputs == 2
    for a, b, cin in itertools.product((0, 1), repeat=3):
        s, cout = simulate(c, [(a, b, cin)])[0]
        assert s == (a + b + cin) % 2
        assert cout == (a + b + cin) // 2


def test_line_continuation_and_comments():
    text = (".model t\n.inputs x \\\n y\n.outputs z\n"
            ".names x y z  # cover follows\n11 1\n.end\n")
    c = parse_blif(text)
    assert simulate(c, [(1, 1), (0, 1)]) == [(1,), (0,)]


def test_offset_cover():
    # cover listed with output value 0: z is the complement of the cubes
    text = ".model t\n.inputs x y\n.outputs z\n.names x y z\n11 0\n.end\n"
    c = parse_blif(text)
    assert simulate(c, [(1, 1), (1, 0), (0, 0)]) == [(0,), (1,), (1,)]


def test_constant_covers():
    text = (".model t\n.inputs x\n.outputs one zero\n"
            ".names one\n1\n.names zero\n.end\n")
    c = parse_blif(text)
    assert simulate(c, [(0,), (1,)]) == [(1, 0), (1, 0)]


def test_roundtrip_random(rng):
    for _ in range(20):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 15),
                           rng.randint(1, 3))
        again = parse_blif(write_blif(c))
        vecs = [tuple(rng.randint(0, 1) for _ in range(c.num_inputs))
                for _ in range(32)]
        assert simulate(again, vecs) == simulate(c, vecs)


def test_roundtrip_c17():
    c = c17()
    again = parse_blif(write_blif(c))
    assert again.input_names == c.input_names
    assert again.output_names == c.output_names
    vecs = list(itertools.product((0, 1), repeat=5))
    assert simulate(again, vecs) == simulate(c, vecs)


def test_roundtrip_names_shared_with_inputs():
    # an output that is an input, an input named like an internal node,
    # and one signal listed twice as an output, used to be written as
    # `.names a a`, `.names n3 b n3` and two `.names ... y` tables
    for text in (".model t\n.inputs a b\n.outputs a y\n"
                 ".names a b y\n11 1\n.end\n",
                 ".model t\n.inputs n3 b const0\n.outputs y n4\n"
                 ".names n3 b y\n10 1\n.names n3 const0 n4\n01 1\n.end\n",
                 ".model t\n.inputs a b\n.outputs y y\n"
                 ".names a b y\n11 1\n.end\n"):
        c = parse_blif(text)
        again = parse_blif(write_blif(c))
        assert again.input_names == c.input_names
        assert again.output_names == c.output_names
        assert qor_exhaustive(c, again).error == 0.0


def test_output_named_like_an_input_but_driven_otherwise_rejected():
    # output `a` is a AND b, not input a
    c = Aig(num_inputs=2, ands=((2, 4),), outputs=(6,),
            input_names=("a", "b"), output_names=("a",))
    with pytest.raises(AigError, match="output a"):
        write_blif(c)


def test_malformed_tables_rejected():
    # each table but the first defines output y; "01" as an output value
    # was read as an off-set cube
    for table in (".names\n",                    # no signal at all
                  ".names y\n1 1\n",             # constant cube with a mask
                  ".names y\n2\n",               # constant cube value
                  ".names y\n01\n",              # constant cube value
                  ".names x y\n1\n",             # no output column
                  ".names x y\n11 1\n",          # cube width
                  ".names x y\n1 2\n",           # cube output value
                  ".names x y\n1 01\n",          # cube output value
                  ".names x y\n1 1\n0 0\n",      # on-set and off-set
                  ".names x y\nx 1\n"):          # cube character
        with pytest.raises(AigError):
            parse_blif(f".model t\n.inputs x\n.outputs y\n{table}.end\n")


def test_latch_rejected():
    with pytest.raises(AigError):
        parse_blif(".model t\n.inputs x\n.outputs y\n"
                   ".latch x y re clk 0\n.end\n")


def test_duplicate_definition_rejected():
    with pytest.raises(AigError):
        parse_blif(".model t\n.inputs x y\n.outputs z\n"
                   ".names x z\n1 1\n.names y z\n1 1\n.end\n")
    # an input declared twice, on one .inputs line or across two
    for inputs in (".inputs a a\n", ".inputs a\n.inputs a\n"):
        with pytest.raises(AigError, match="duplicate definition"):
            parse_blif(f".model t\n{inputs}.outputs y\n"
                       ".names a y\n1 1\n.end\n")


def test_inputs_sharing_a_name_not_written():
    # i0 and i1 are both "a": the written BLIF read one signal for both,
    # and measured error 0.25 against the original
    c = parse_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 5\ni0 a\ni1 a\no0 y\n")
    with pytest.raises(AigError, match="share a name"):
        write_blif(c)


def test_names_blif_cannot_express_not_written():
    # each was written, and parse_blif rejected the file: "a b" as a cube
    # width mismatch, "a#x" as a second definition of a, and "y\" as an
    # unsupported construct
    for symbols in ("i0 a b\ni1 c\no0 y\n", "i0 a#x\ni1 b\no0 y\n",
                    "i0 a\ni1 b\no0 y\\\n"):
        c = parse_aiger(f"aag 3 2 0 1 1\n2\n4\n6\n6 2 5\n{symbols}")
        with pytest.raises(AigError, match="BLIF cannot express"):
            write_blif(c)
    for names in ({"input_names": ("",)}, {"output_names": ("y z",)}):
        with pytest.raises(AigError, match="BLIF cannot express"):
            write_blif(Aig(num_inputs=1, ands=(), outputs=(2,), **names))


def test_combinational_loop_rejected():
    with pytest.raises(AigError):
        parse_blif(".model t\n.inputs x\n.outputs z\n"
                   ".names z w\n1 1\n.names w z\n1 1\n.end\n")


def test_faulty_logic_no_output_reads_rejected():
    # a loop and a mixed on-set/off-set cover, neither read by output y,
    # used to parse: tables outside the output cones went unchecked
    for dead in (".names p q\n1 1\n.names q p\n1 1\n",
                 ".names x p\n1 1\n0 0\n"):
        with pytest.raises(AigError):
            parse_blif(".model t\n.inputs x\n.outputs y\n"
                       f".names x y\n1 1\n{dead}.end\n")


def test_shuffled_tables_parse_equal():
    # .names blocks may come in any order; the output cones are built in
    # the order of a walk from the outputs, so a shuffle reads the same
    texts = [(BENCH / "c17.blif").read_text(),
             *(write_blif(BENCHMARKS[name]()) for name in ("c432", "add8u"))]
    for text in texts:
        lines = text.splitlines()
        head = [x for x in lines if x.startswith((".model", ".inputs",
                                                  ".outputs"))]
        blocks = []
        for line in lines:
            if line.startswith(".names"):
                blocks.append([line])
            elif not line.startswith("."):
                blocks[-1].append(line)
        expected = parse_blif(text)
        for seed in range(3):
            random.Random(seed).shuffle(blocks)
            shuffled = [*head, *(x for block in blocks for x in block), ".end"]
            assert parse_blif("\n".join(shuffled) + "\n") == expected


def test_undefined_signal_rejected():
    with pytest.raises(AigError):
        parse_blif(".model t\n.inputs x\n.outputs z\n.end\n")
