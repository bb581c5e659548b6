"""Seeded mutation fuzz of the netlist and PLA readers.

Each reader gets its own well-formed seed text, mutated at the character
and line level.  Whatever comes out, a reader may only raise the library's
own error types.
"""

from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treesynth.aig import AigError
from treesynth.aiger import parse_aiger
from treesynth.blif import parse_blif
from treesynth.dataset import DatasetError, parse_pla

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SEEDS = {
    "aiger": (parse_aiger, (BENCH / "c17.aag").read_text()),
    "blif": (parse_blif, (BENCH / "c17.blif").read_text()),
    "pla": (parse_pla, ".i 3\n.o 1\n.ilb a b c\n.ob f\n.p 4\n"
                       "000 0\n011 1\n101 1\n110 0\n.e\n"),
}
# characters and tokens that carry meaning in at least one of the formats
PIECES = list("0123456789-. \n\t#\\ico") + [
    "aag", ".i", ".o", ".e", ".p", ".names", ".inputs", ".outputs",
    ".model", ".end", ".latch", "-1", "99999", "é", "\x00"]

edits = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "replace",
                               "drop_line", "repeat_line", "swap_lines")),
              st.integers(min_value=0, max_value=10**6),
              st.sampled_from(PIECES)),
    min_size=1, max_size=6)


def mutate(text: str, ops) -> str:
    for op, where, piece in ops:
        if op in ("drop_line", "repeat_line", "swap_lines"):
            lines = text.split("\n")
            k = where % len(lines)
            if op == "drop_line":
                del lines[k]
            elif op == "repeat_line":
                lines.insert(k, lines[k])
            else:
                j = (k + 1) % len(lines)
                lines[k], lines[j] = lines[j], lines[k]
            text = "\n".join(lines)
            continue
        k = where % (len(text) + 1)
        if op == "insert":
            text = text[:k] + piece + text[k:]
        elif op == "delete":
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k] + piece + text[k + 1:]
    return text


FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(fmt=st.sampled_from(sorted(SEEDS)), ops=edits)
def test_mutated_inputs_raise_only_library_errors(fmt, ops):
    reader, seed = SEEDS[fmt]
    try:
        reader(mutate(seed, ops))
    except (AigError, DatasetError):
        pass


@FUZZ
@given(fmt=st.sampled_from(sorted(SEEDS)),
       text=st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_random_inputs_raise_only_library_errors(fmt, text):
    reader, _ = SEEDS[fmt]
    try:
        reader(text)
    except (AigError, DatasetError):
        pass
