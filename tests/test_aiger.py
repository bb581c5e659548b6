"""ASCII AIGER reading and writing."""

import dataclasses
import itertools
import random
from pathlib import Path

import pytest

from treesynth.aig import AigError, cleanup
from treesynth.aiger import parse_aiger, write_aiger

from conftest import random_circuit
from reference import BENCHMARKS, c17, simulate

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"

AND_GATE = """aag 3 2 0 1 1
2
4
6
6 2 4
i0 a
i1 b
o0 y
c
a simple AND gate
"""


def test_parse_basic():
    c = parse_aiger(AND_GATE)
    assert c.num_inputs == 2
    assert c.ands == ((2, 4),)
    assert c.outputs == (6,)
    assert c.input_names == ("a", "b")
    assert c.output_names == ("y",)


def test_parse_negated_output():
    text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n"
    c = parse_aiger(text)
    assert simulate(c, [(1, 1), (1, 0)]) == [(0,), (1,)]


def test_roundtrip_random(rng):
    for _ in range(25):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(0, 20),
                           rng.randint(1, 3))
        again = parse_aiger(write_aiger(c))
        assert again == cleanup(c)


def test_roundtrip_benchmarks():
    for build in BENCHMARKS.values():
        c = build()
        assert parse_aiger(write_aiger(c)) == cleanup(c)


def test_roundtrip_preserves_function():
    c = c17()
    again = parse_aiger(write_aiger(c))
    vecs = list(itertools.product((0, 1), repeat=5))
    assert simulate(again, vecs) == simulate(c, vecs)


def test_comment_written():
    text = write_aiger(c17(), comment="hello world")
    assert text.rstrip().endswith("hello world")
    parse_aiger(text)  # still parseable


def test_unreadable_names_rejected():
    # the reader would reject each of these names or read it back changed
    gate = parse_aiger(AND_GATE)
    for name in ("", "x ", "x\t", "a\nb", "a\r\nb", "x\x0b", "a\u2028b"):
        for names in ({"input_names": (name, "b")}, {"output_names": (name,)}):
            with pytest.raises(AigError, match="AIGER cannot express"):
                write_aiger(dataclasses.replace(gate, **names))
    # leading and inner whitespace read back as written
    spaced = dataclasses.replace(gate, input_names=(" a", "b\tc d"))
    assert parse_aiger(write_aiger(spaced)) == spaced


def test_latches_rejected():
    with pytest.raises(AigError):
        parse_aiger("aag 3 1 1 1 0\n2\n4 2\n4\n")


def test_cyclic_definitions_rejected():
    # two ANDs defined in terms of each other, read by the output or not
    for output in ("4", "2"):
        with pytest.raises(AigError):
            parse_aiger(f"aag 3 1 0 1 2\n2\n{output}\n4 6 2\n6 4 2\n")


def test_shuffled_and_lines_parse_equal():
    # AND lines may come in any order; the node order follows the
    # variables, so a shuffle of a file reads as the file itself
    for path in sorted(BENCH.glob("*.aag")):
        lines = path.read_text().splitlines()
        _, _, i, _, o, a = lines[0].split()
        first = 1 + int(i) + int(o)
        ands = lines[first:first + int(a)]
        expected = parse_aiger("\n".join(lines) + "\n")
        for seed in range(3):
            random.Random(seed).shuffle(ands)
            text = "\n".join(
                [*lines[:first], *ands, *lines[first + int(a):]]) + "\n"
            assert parse_aiger(text) == expected, (path.name, seed)


def test_undefined_literal_rejected():
    # variable 3 is in range but never defined, read by an AND or an output
    for text in ("aag 3 1 0 1 1\n2\n4\n4 2 6\n",
                 "aag 3 1 0 1 1\n2\n7\n4 2 2\n"):
        with pytest.raises(AigError, match="undefined"):
            parse_aiger(text)


def test_bad_header_rejected():
    with pytest.raises(AigError):
        parse_aiger("aig 1 1 0 1 0\n2\n2\n")
    with pytest.raises(AigError):
        parse_aiger("aag 1 1 0 1\n2\n2\n")
    # the header promises more lines than the file holds
    for text in ("aag 1 1 0 0 0\n", "aag 1 1 0 1 0\n2\n",
                 "aag 3 2 0 1 1\n2\n4\n6\n"):
        with pytest.raises(AigError, match="end of file"):
            parse_aiger(text)


def test_bad_symbol_table_rejected():
    for line in ("l0 q", "i0", "ix a", "i2 a", "o1 y", "i-1 a"):
        with pytest.raises(AigError):
            parse_aiger(AND_GATE.replace("i1 b", line))


def test_blank_symbol_table_lines_skipped():
    spaced = AND_GATE.replace("i1 b\n", "\ni1 b\n\n   \n")
    assert parse_aiger(spaced) == parse_aiger(AND_GATE)
    assert parse_aiger(spaced).input_names == ("a", "b")


def test_non_integer_and_tokens_rejected():
    for line in ("6 2i 4", "6 2 x", "6 2", "6 2 4 4"):
        with pytest.raises(AigError):
            parse_aiger(f"aag 3 2 0 1 1\n2\n4\n6\n{line}\n")


def test_variables_outside_header_range_rejected():
    # M bounds every variable: an AND or an input above it, or a negative
    # input literal, used to parse
    for text in ("aag 2 1 0 1 1\n2\n2\n8 2 3\n", "aag 1 1 0 0 0\n4\n",
                 "aag 1 1 0 0 0\n-2\n"):
        with pytest.raises(AigError, match=r"must be even in 2\.\.2M"):
            parse_aiger(text)
