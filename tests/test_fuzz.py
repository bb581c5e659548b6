"""Seeded fuzz of the netlist and PLA readers and of the command line.

Each reader gets its own well-formed seed text, mutated at the character
and line level.  Whatever comes out, a reader may only raise the library's
own error types.  Every subcommand gets malformed and valid flags on small
inputs; it may only exit 0 or 3, or exit 2 with an ``error:`` line.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treesynth.aig import AigError
from treesynth.aiger import parse_aiger
from treesynth.blif import parse_blif
from treesynth.cli import main
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


# input files of the CLI fuzz; learn reads PLA files, the others netlists
CLI_INPUTS = {
    "c17.aag": (BENCH / "c17.aag").read_text(),
    "empty.blif": ".model empty\n.end\n",
    "no_outputs.aag": "aag 2 2 0 0 0\n2\n4\n",
    "xor.pla": ".i 2\n.o 1\n00 0\n01 1\n10 1\n11 0\n.e\n",
}
POSITIONALS = {"learn": 3, "approximate": 1, "eval": 2, "partition": 1}
CLI_FLAGS = [
    # flags that only learn and approximate take (--seed: not partition)
    ["--format", "blif"], ["--report", "csv"], ["--no-timing"],
    ["--seed", "3"],
    # malformed depth ranges, and two valid ones
    *[[flag, text] for flag in ("--depth", "--depths")
      for text in ("3..1", "-1", "a..b", "1:4", "2", "1..2")],
    # NaN, negative limits and other out-of-range values
    ["--threshold", "nan"], ["--time-limit", "nan"], ["--samples", "nan"],
    ["--node-limit", "-1"], ["--time-limit", "-1"], ["--samples", "-5"],
    ["--beam", "-1"], ["--step", "0"], ["--initial-depth", "-1"],
    ["--max-sub-inputs", "-1"], ["--max-sub-outputs", "0"],
    ["--initial-parts", "1"], ["--seed", "-1"], ["--jobs", "-3"],
    # valid flags, so that malformed ones also meet runs that get far
    ["--whole-circuit"], ["--exhaustive"], ["--samples", "64"],
    ["--node-limit", "0"], ["--initial-depth", "2"], ["--threshold", "0.2"],
    ["--out", "{dir}/out"], ["--trace", "{dir}/trace.jsonl"],
]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_fuzz")
    for name, text in CLI_INPUTS.items():
        (d / name).write_text(text)
    return d


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(POSITIONALS)),
       files=st.lists(st.sampled_from(sorted(CLI_INPUTS)), min_size=3,
                      max_size=3),
       flags=st.lists(st.sampled_from(CLI_FLAGS), max_size=5))
def test_cli_exits_cleanly_on_malformed_args(cli_dir, command, files, flags):
    if command == "learn":
        files[1:] = ["xor.pla", "xor.pla"]  # the first may be a netlist
    argv = [command, *(str(cli_dir / f) for f in files[:POSITIONALS[command]])]
    argv += [arg.format(dir=cli_dir) for flag in flags for arg in flag]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 3) or (code == 2 and "error:" in err), (argv, err)
