"""Seeded fuzz of the public surface, the netlist and PLA readers and the
command line.

Each reader gets its own well-formed seed text, mutated at the character
and line level.  Whatever comes out, a reader may only raise the library's
own error types.  The ``Aig`` constructor gets small arbitrary integers; a
circuit it accepts may only raise ``AigError`` when cleaned, written or
simulated.  Every exported callable that takes a scalar or text gets
arbitrary ``None``, bool, int, float and text values in each such
parameter, the others valid: it may only raise ``AigError``,
``DatasetError`` or ``OdtError``, and must raise one when the value is of
the wrong type (a bool counts as an int, as in Python).  An argument that
is a library object (``Aig``, ``Dataset``, ``DecisionTree``, a config) is
the caller's contract and is not fuzzed.  Every subcommand gets malformed
and valid flags on small inputs; it may only exit 0 or 3, or exit 2 with
an ``error:`` line.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import treesynth
from treesynth import (Aig, AigBuilder, AigError, Dataset, DatasetError,
                       DecisionTree, ExplorationConfig, OdtError,
                       PartitionConfig, SearchBudget, approx_sub_circuit,
                       cleanup, compose, parse_aiger, parse_blif, parse_pla,
                       partition, predict, qor_monte_carlo, replay,
                       simulate_words, tree_to_aig, trees_to_aig, write_aiger,
                       write_blif)
from treesynth.cli import main

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


# negative and out-of-range node counts and literals included
small_ints = st.integers(min_value=-3, max_value=12)


@FUZZ
@given(num_inputs=small_ints,
       ands=st.lists(st.tuples(small_ints, small_ints), max_size=5),
       outputs=st.lists(small_ints, max_size=4))
def test_constructed_circuits_raise_only_aig_errors(num_inputs, ands,
                                                     outputs):
    try:
        circuit = Aig(num_inputs=num_inputs, ands=tuple(ands),
                      outputs=tuple(outputs))
    except AigError:
        return
    for use in (cleanup, write_aiger, write_blif,
                lambda c: simulate_words(c, [0] * c.num_inputs, 0)):
        try:
            use(circuit)
        except AigError:
            pass


LIBRARY_ERRORS = (AigError, DatasetError, OdtError)
C17 = cleanup(parse_aiger((BENCH / "c17.aag").read_text()))
C17_PARTS = partition(C17, PartitionConfig(initial_parts=2))
STUMP = DecisionTree((0, 0, 1), 0)


def is_int(value) -> bool:
    return isinstance(value, int)


def is_number(value) -> bool:
    return isinstance(value, (int, float))


def is_str(value) -> bool:
    return isinstance(value, str)


def or_none(check):
    return lambda value: value is None or check(value)


def never(value) -> bool:
    return False


# exported callable -> {parameter: (call with the value there, check that
# the value is of the documented type)}; the other arguments are valid
SCALAR_PARAMETERS = {
    "Aig": {
        "num_inputs": (lambda v: Aig(v, (), ()), is_int),
        "fanin": (lambda v: Aig(2, ((2, v),), ()), is_int),
        "output": (lambda v: Aig(2, (), (v,)), is_int),
        "input_name": (lambda v: Aig(1, (), (), input_names=(v,)), is_str),
        "ands": (lambda v: Aig(2, v, ()), never),
        "outputs": (lambda v: Aig(2, (), v), never),
    },
    "AigBuilder": {
        "num_inputs": (AigBuilder, is_int),
        "input_lit": (lambda v: AigBuilder(2).input_lit(v), is_int),
    },
    "compose": {"part_id": (lambda v: compose(
        C17, C17_PARTS, {v: C17_PARTS[0].extracted}), is_int)},
    "simulate_words": {
        "mask": (lambda v: simulate_words(C17, [1] * 5, v), is_int),
        "input_word": (lambda v: simulate_words(C17, [v] * 5, 31), is_int),
    },
    "parse_aiger": {"text": (parse_aiger, is_str)},
    "parse_blif": {"text": (parse_blif, is_str)},
    "parse_pla": {"text": (parse_pla, is_str)},
    "write_aiger": {"comment": (lambda v: write_aiger(C17, comment=v),
                                or_none(is_str))},
    "Dataset": {
        "num_rows": (lambda v: Dataset(v, (), 0), is_int),
        "feature": (lambda v: Dataset(2, (v,), 0), is_int),
        "labels": (lambda v: Dataset(2, (1,), v), is_int),
        "weight": (lambda v: Dataset(1, (1,), 0, weights=(v,)), is_int),
        "features": (lambda v: Dataset(2, v, 0), never),
    },
    "ExplorationConfig": {
        name: (lambda v, name=name: ExplorationConfig(**{name: v}), check)
        for name, check in (
            ("error_threshold", is_number), ("initial_max_depth", is_int),
            ("step", is_int), ("beam_width", is_int),
            ("qor_samples", is_int), ("seed", is_int),
            ("node_limit", or_none(is_int)), ("jobs", is_int),
            ("partition", never))},
    "replay": {
        "substitutions": (lambda v: replay(C17, ExplorationConfig(), v),
                          never),
        "part_id": (lambda v: replay(C17, ExplorationConfig(), [(v, 2)]),
                    is_int),
        "depth": (lambda v: replay(C17, ExplorationConfig(), [(0, v)]),
                  is_int),
    },
    "DecisionTree": {
        "train_error": (lambda v: DecisionTree(0, v), is_int),
        "proven_optimal": (lambda v: DecisionTree(0, 0, v),
                           lambda v: isinstance(v, bool)),
    },
    "SearchBudget": {
        "max_depth": (SearchBudget, is_int),
        "node_limit": (lambda v: SearchBudget(2, node_limit=v),
                       or_none(is_int)),
    },
    "predict": {
        "features": (lambda v: predict(STUMP, v), never),
        "feature": (lambda v: predict(STUMP, (v,)), is_int),
    },
    "PartitionConfig": {
        name: (lambda v, name=name: PartitionConfig(**{name: v}), is_int)
        for name in ("max_inputs", "max_outputs", "initial_parts")},
    "qor_monte_carlo": {
        "samples": (lambda v: qor_monte_carlo(C17, C17, v), is_int),
        "seed": (lambda v: qor_monte_carlo(C17, C17, 64, v), is_int),
    },
    "approx_sub_circuit": {
        "md": (lambda v: approx_sub_circuit(C17, v), is_int),
        "node_limit": (lambda v: approx_sub_circuit(C17, 2, node_limit=v),
                       or_none(is_int)),
    },
    "tree_to_aig": {"num_inputs": (lambda v: tree_to_aig(STUMP, v), is_int)},
    "trees_to_aig": {"num_inputs": (lambda v: trees_to_aig([STUMP], v),
                                    is_int)},
}
# exports that take only library objects, and the error types
OBJECT_ONLY = {"AigError", "DatasetError", "OdtError", "and_count", "cleanup",
               "write_blif", "truth_tables", "write_pla", "explore",
               "fit_optimal", "partition", "qor_exhaustive"}

# ints stay small, so that no value sizes a large allocation
scalars = st.one_of(st.none(), st.booleans(), st.integers(-4, 40),
                    st.floats(), st.text(max_size=8))


def test_every_export_is_fuzzed_or_takes_only_objects():
    assert sorted(SCALAR_PARAMETERS.keys() | OBJECT_ONLY) == \
        sorted(treesynth.__all__)
    assert not SCALAR_PARAMETERS.keys() & OBJECT_ONLY


@pytest.mark.parametrize("export", sorted(SCALAR_PARAMETERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_scalar_arguments_raise_only_library_errors(export, data):
    parameter = data.draw(st.sampled_from(sorted(SCALAR_PARAMETERS[export])))
    call, documented = SCALAR_PARAMETERS[export][parameter]
    value = data.draw(scalars, label=parameter)
    try:
        call(value)
    except LIBRARY_ERRORS:
        return
    assert documented(value), f"{export} accepted {parameter}={value!r}"


# each of these leaked a built-in error or was accepted before the
# scalar rule, or, the last five, before it covered ``input_lit`` and
# fanin pairs that are not tuples
@pytest.mark.parametrize("probe", [
    lambda: parse_aiger(None), lambda: parse_blif(None),
    lambda: parse_pla(None), lambda: write_aiger(C17, comment=3),
    lambda: Dataset("2", (1,), 1), lambda: Dataset(2, (1.5,), 1),
    lambda: Dataset(2, (1,), "x"), lambda: Aig("1", (), ()),
    lambda: Aig(1, ((0, "a"),), ()), lambda: AigBuilder("2"),
    lambda: tree_to_aig(DecisionTree(0, 0), 2.0),
    lambda: predict(STUMP, None),
    lambda: replay(C17, ExplorationConfig(), [0]),
    lambda: simulate_words(C17, [1] * 5, -1),
    lambda: simulate_words(C17, ["a"] * 5, 1),
    lambda: qor_monte_carlo(C17, C17, 1.5),
    lambda: qor_monte_carlo(C17, C17, 64, 0.5),
    lambda: AigBuilder(2).input_lit(1.5), lambda: AigBuilder(2).input_lit("a"),
    lambda: Aig(2, ([2, 4],), (6,)), lambda: Aig(2, (b"\x02\x04",), (6,)),
    lambda: Aig(2, (range(2, 6, 2),), (6,)),
])
def test_wrong_scalars_raise_library_errors(probe):
    with pytest.raises(LIBRARY_ERRORS):
        probe()


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
    ["--threshold", "nan"], ["--samples", "nan"],
    ["--node-limit", "-1"], ["--samples", "-5"],
    ["--beam", "-1"], ["--step", "0"], ["--initial-depth", "-1"],
    ["--max-sub-inputs", "-1"], ["--max-sub-outputs", "0"],
    ["--initial-parts", "1"], ["--seed", "-1"], ["--jobs", "-3"],
    # a flag that no command takes
    ["--time-limit", "1"],
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
