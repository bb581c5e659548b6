"""Command-line interface."""

import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treesynth.aig import simulate_words
from treesynth.aiger import parse_aiger, write_aiger
from treesynth.blif import parse_blif
from treesynth.cli import (_exploration_config, _partition_config,
                           build_parser, main)
from treesynth.dataset import parse_pla
from treesynth.explore import ExplorationConfig, replay
from treesynth.partition import PartitionConfig
from treesynth.qor import qor_monte_carlo

from conftest import clear_memos

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks"
PLA = BENCH / "pla"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_partition_command(capsys):
    code, out = run(capsys, "partition", str(BENCH / "add8u.aag"))
    assert code == 0
    data = json.loads(out)
    assert data["num_parts"] >= 1
    assert data["circuit"]["and_count"] == 67
    for p in data["parts"]:
        assert p["inputs"] <= 14 and p["outputs"] <= 5


def test_partition_reports_the_circuit_it_cut(tmp_path, capsys):
    # n8 repeats n6 and n10 = n6 & n8 folds to n6, so partition cuts one
    # AND; the report's and_count is that circuit's, not the file's 3
    path = tmp_path / "unstrashed.aag"
    path.write_text("aag 5 2 0 2 3\n2\n4\n8\n10\n6 2 4\n8 4 2\n10 6 8\n")
    code, out = run(capsys, "partition", str(path), "--max-sub-inputs", "2",
                    "--max-sub-outputs", "1", "--initial-parts", "2")
    assert code == 0
    data = json.loads(out)
    assert sum(p["size"] for p in data["parts"]) == \
        data["circuit"]["and_count"] == 1


def test_eval_command_exhaustive(capsys):
    code, out = run(capsys, "eval", str(BENCH / "c17.aag"),
                    str(BENCH / "c17.aag"), "--exhaustive")
    assert code == 0
    data = json.loads(out)
    assert data["error"] == 0.0
    assert data["estimator"] == "exhaustive"


def test_eval_command_monte_carlo(capsys):
    code, out = run(capsys, "eval", str(BENCH / "c499.aag"),
                    str(BENCH / "c499.aag"), "--samples", "500")
    assert code == 0
    data = json.loads(out)
    assert data["error"] == 0.0
    assert data["samples"] == 500


def test_eval_prints_the_error_approximate_reported(tmp_path, capsys):
    # one rule picks both estimators: exhaustive up to 20 inputs, else
    # Monte Carlo, which approximate --seed S draws from seed S + 1.
    # eval used to sample 10 000 vectors by default, so it printed 0.0488
    # for the mul7u netlist that approximate reported at 0.049874
    cases = [(name, ["--initial-parts", "10"], [])
             for name in ("c17", "add8u", "mul7u")]
    cases.append(("c432", ["--max-sub-inputs", "8", "--seed", "0"],
                  ["--seed", "1"]))
    for name, flags, eval_flags in cases:
        original, out = str(BENCH / f"{name}.aag"), str(tmp_path / name)
        code, report = run(capsys, "approximate", original, "--threshold",
                           "0.05", *flags, "--out", out, "--no-timing")
        assert code == 0
        selected = json.loads(report)["selected"]
        code, measured = run(capsys, "eval", original, out, *eval_flags)
        assert code == 0
        measured = json.loads(measured)
        assert measured["error"] == selected["qor"], name
        assert measured["estimator"] == selected["qor_estimator"], name
    assert (selected["qor_estimator"], selected["qor"]) == (
        "monte_carlo", 0.04672857142857143)


def test_eval_reads_blif(capsys):
    code, out = run(capsys, "eval", str(BENCH / "c17.blif"),
                    str(BENCH / "c17.aag"), "--exhaustive")
    assert code == 0
    assert json.loads(out)["error"] == 0.0


def test_approximate_whole_circuit(tmp_path, capsys):
    out_file = tmp_path / "c17_approx.aag"
    code, out = run(capsys, "approximate", str(BENCH / "c17.aag"),
                    "--whole-circuit", "--depth", "1..4",
                    "--out", str(out_file), "--no-timing")
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["qor"] for r in rows] == [0.25, 0.125, 0.0625, 0.0]
    for depth in range(1, 5):
        parse_aiger(Path(f"{out_file}.md{depth}").read_text())


def test_whole_circuit_depth_zero_runs(capsys):
    # depth 0 fits one constant per output, as learn --depths 0.. does
    code, out = run(capsys, "approximate", str(BENCH / "c17.aag"),
                    "--whole-circuit", "--depth", "0..1", "--no-timing")
    assert code == 0
    zero, one = json.loads(out)["results"]
    assert zero["depth"] == 0 and zero["and_count"] == 0
    assert zero["d_avg"] == 0.0 and zero["qor"] == 0.4375
    assert one["depth"] == 1 and one["qor"] == 0.25


def test_approximate_explore(tmp_path, capsys):
    out_file = tmp_path / "approx.aag"
    trace_file = tmp_path / "trace.jsonl"
    code, out = run(capsys, "approximate", str(BENCH / "add8u.aag"),
                    "--threshold", "0.15", "--initial-parts", "10",
                    "--out", str(out_file), "--trace", str(trace_file),
                    "--no-timing")
    assert code == 0
    selected = json.loads(out)["selected"]
    assert selected["qor"] <= 0.15
    assert selected["and_count"] < selected["original_and_count"]
    assert not selected["budget_exceeded"]
    parse_aiger(out_file.read_text())
    for line in trace_file.read_text().splitlines():
        json.loads(line)


def test_approximate_budget_exit_code(capsys):
    # an unsatisfiable node budget yields a partial result and exit code 3
    code, out = run(capsys, "approximate", str(BENCH / "add8u.aag"),
                    "--threshold", "0.1", "--node-limit", "1", "--no-timing")
    assert code == 3
    selected = json.loads(out)["selected"]
    assert selected["budget_exceeded"]
    assert selected["qor"] <= 0.1


def test_empty_trace_is_an_empty_file(tmp_path, capsys):
    # threshold 0 on c17 accepts nothing: no records, so no lines at all
    trace_file = tmp_path / "trace.jsonl"
    code, out = run(capsys, "approximate", str(BENCH / "c17.aag"),
                    "--threshold", "0", "--trace", str(trace_file),
                    "--no-timing")
    assert code == 0
    assert json.loads(out)["results"] == []
    assert trace_file.read_text() == ""


def test_whole_circuit_trace_is_an_empty_file(tmp_path, capsys):
    # no candidate enters a beam without partitioning; the file still appears
    trace_file = tmp_path / "trace.jsonl"
    code, _ = run(capsys, "approximate", str(BENCH / "c17.aag"),
                  "--whole-circuit", "--depth", "1", "--trace",
                  str(trace_file))
    assert code == 0
    assert trace_file.read_text() == ""


def test_defaults_match_the_library():
    # the CLI reads the library's defaults; these must not drift apart
    parser = build_parser()
    approximate = parser.parse_args(["approximate", "x"])
    assert _exploration_config(approximate) == ExplorationConfig()
    assert approximate.jobs == ExplorationConfig().jobs
    partitioning = parser.parse_args(["partition", "x"])
    assert _partition_config(partitioning) == PartitionConfig()
    evaluation = parser.parse_args(["eval", "x", "y"])
    assert evaluation.samples == ExplorationConfig.qor_samples
    defaults = inspect.signature(qor_monte_carlo).parameters
    assert (evaluation.samples, evaluation.seed) == (
        defaults["samples"].default, defaults["seed"].default)


def test_budgeted_report_replays_to_written_netlist(tmp_path, capsys):
    # the echoed config holds every setting explore read, node_limit
    # included, so it and the substitutions rebuild the written netlist
    out_file = tmp_path / "mul7u_approx.aag"
    code, out = run(capsys, "approximate", str(BENCH / "mul7u.aag"),
                    "--threshold", "0.1", "--initial-parts", "10",
                    "--node-limit", "200", "--out", str(out_file),
                    "--no-timing")
    assert code == 3
    report = json.loads(out)
    assert report["config"]["node_limit"] == 200
    cfg = _exploration_config(
        argparse.Namespace(**report["config"], seed=report["seed"]))
    circuit = parse_aiger((BENCH / "mul7u.aag").read_text())
    substitutions = [tuple(s) for s in report["selected"]["substitutions"]]
    assert substitutions
    rebuilt = replay(circuit, cfg, substitutions)
    assert write_aiger(rebuilt) == out_file.read_text()


def test_whole_circuit_node_limit_exit_code(tmp_path, capsys):
    # --whole-circuit honours --node-limit: exit 3, netlist still written
    out_file = tmp_path / "mul7u_approx.aag"
    code, out = run(capsys, "approximate", str(BENCH / "mul7u.aag"),
                    "--whole-circuit", "--depth", "3", "--node-limit", "1",
                    "--out", str(out_file), "--no-timing")
    assert code == 3
    assert [r["depth"] for r in json.loads(out)["results"]] == [3]
    parse_aiger(Path(f"{out_file}.md3").read_text())


def test_learn_command(tmp_path, capsys):
    out_file = tmp_path / "learned.aag"
    code, out = run(capsys, "learn",
                    str(PLA / "add8u_cout_train.pla"),
                    str(PLA / "add8u_cout_valid.pla"),
                    str(PLA / "add8u_cout_test.pla"),
                    "--depths", "2..4", "--out", str(out_file), "--no-timing")
    assert code == 0
    data = json.loads(out)
    assert len(data["results"]) == 3
    selected = data["selected"]
    assert 0.0 <= selected["test_accuracy"] <= 1.0
    assert selected["d_avg"] <= 4
    learned = parse_aiger(out_file.read_text())
    assert learned.num_inputs == 16
    # the reported accuracies are those of the netlist written to --out
    for part, split in (("train", "train"), ("validation", "valid"),
                        ("test", "test")):
        data = parse_pla((PLA / f"add8u_cout_{split}.pla").read_text())
        (word,) = simulate_words(learned, list(data.features), data.row_mask)
        accuracy = 1.0 - (word ^ data.labels).bit_count() / data.num_rows
        assert accuracy == selected[f"{part}_accuracy"]


def test_learn_csv_report(tmp_path, capsys):
    out_file = tmp_path / "learned.blif"
    code, out = run(capsys, "learn",
                    str(PLA / "mul7u_p12_train.pla"),
                    str(PLA / "mul7u_p12_valid.pla"),
                    str(PLA / "mul7u_p12_test.pla"),
                    "--depths", "0..2", "--report", "csv", "--format", "blif",
                    "--out", str(out_file))
    assert code == 0
    header, *lines = out.strip().splitlines()
    assert "train_accuracy" in header
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert all(len(line.split(",")) == len(header.split(",")) for line in lines)
    assert [r["depth"] for r in rows] == ["0", "1", "2"]
    # depth 0 is the training majority as a constant netlist
    assert rows[0]["and_count"] == "0"
    train = parse_pla((PLA / "mul7u_p12_train.pla").read_text())
    ones = train.labels.bit_count()
    wrong = min(ones, train.num_rows - ones)
    assert float(rows[0]["train_accuracy"]) == 1.0 - wrong / train.num_rows
    assert parse_blif(out_file.read_text()).num_inputs == train.num_features


PINNED_LEARN = [
    ("add8u_cout",
     "19ff741e5f48adf9bc3505c5cd9d8b7efbd5be150dbbd22002fee9481a194fad",
     "ba947323259d241bf57141bd420c64fdae82352cbe42aca9fdf445d0e40cf5fb"),
    ("mul7u_p12",
     "457845116806e9f1a014e22046269caaccea975c8d6b8516d9d2a1229038d976",
     "6b988421b44a3edde84969a478ef93bebeecd96cda67beecca3b2c6d14171222"),
]


@pytest.mark.parametrize("case,report,netlist", PINNED_LEARN,
                         ids=[pin[0] for pin in PINNED_LEARN])
def test_learn_results_are_pinned(tmp_path, capsys, case, report, netlist):
    # a refactor or speed-up of the row-keyed tree search (memos keyed on
    # the split path) must leave the report and the written netlist
    # byte-identical
    out_file = tmp_path / "learned.aag"
    code, out = run(capsys, "learn",
                    *(str(PLA / f"{case}_{split}.pla")
                      for split in ("train", "valid", "test")),
                    "--depths", "2..5", "--out", str(out_file), "--no-timing")
    assert code == 0
    # the report echoes its paths; only the rest depends on the program
    out = out.replace(str(out_file), "OUT").replace(str(PLA), "PLA")
    assert hashlib.sha256(out.encode()).hexdigest() == report
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == netlist


def test_csv_report_writes_none_as_empty_cell(capsys):
    # an exact shrinking substitution has infinite loss, JSON null
    argv = ["approximate", str(BENCH / "add8u.aag"), "--threshold", "0.1",
            "--initial-parts", "10"]
    code, out = run(capsys, *argv, "--report", "csv")
    assert code == 0
    header, *lines = out.strip().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    _, json_out = run(capsys, *argv, "--no-timing")
    records = json.loads(json_out)["results"]
    assert len(rows) == len(records)
    assert any(rec["loss"] is None for rec in records)
    for row, rec in zip(rows, records):
        assert row["loss"] == ("" if rec["loss"] is None
                               else str(rec["loss"]))
    assert "None" not in out


def test_missing_file_is_input_error(capsys):
    code, _ = run(capsys, "eval", "no_such.aag", "no_such.aag")
    assert code == 2


def test_malformed_netlist_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.aag"
    bad.write_text("aag nonsense\n")
    code, _ = run(capsys, "eval", str(bad), str(bad))
    assert code == 2


def test_malformed_pla_header_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.pla"
    bad.write_text(".i\n.o 1\n0 1\n.e\n")
    good = str(PLA / "add8u_cout_valid.pla")
    code, _ = run(capsys, "learn", str(bad), good, good)
    assert code == 2


def test_empty_pla_is_input_error(tmp_path, capsys):
    # an empty validation set used to end in a ZeroDivisionError traceback
    empty = tmp_path / "empty.pla"
    empty.write_text(".i 16\n.o 1\n.e\n")
    good = str(PLA / "add8u_cout_valid.pla")
    code, _ = run(capsys, "learn", good, str(empty), good)
    assert code == 2


def test_bad_depth_range_is_input_error(capsys):
    code, _ = run(capsys, "approximate", str(BENCH / "c17.aag"),
                  "--whole-circuit", "--depth", "5..2")
    assert code == 2


def test_reports_byte_identical_across_jobs(capsys):
    args = ("approximate", str(BENCH / "c17.aag"),
            "--whole-circuit", "--depth", "1..3", "--no-timing")
    _, first = run(capsys, *args)
    clear_memos()
    _, second = run(capsys, *args, "--jobs", "4")
    assert json.loads(first)["results"] == json.loads(second)["results"]


def test_whole_circuit_without_outputs(tmp_path, capsys):
    # d_avg over no trees used to end in a ZeroDivisionError traceback
    empty = tmp_path / "no_outputs.aag"
    empty.write_text("aag 2 2 0 0 0\n2\n4\n")
    code, out = run(capsys, "approximate", str(empty), "--whole-circuit",
                    "--depth", "1..2", "--no-timing")
    assert code == 0
    results = json.loads(out)["results"]
    assert [row["d_avg"] for row in results] == [0.0, 0.0]
    assert all(row["exact"] and row["and_count"] == 0 for row in results)


def test_whole_circuit_over_table_cap_is_input_error(capsys):
    # c432 has 36 inputs, over the 20-input truth-table cap
    code = main(["approximate", str(BENCH / "c432.aag"),
                 "--whole-circuit", "--depth", "1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and err.startswith("error:")


def test_whole_circuit_over_exhaustive_cap_is_input_error(capsys):
    # raising the table cap to 36 used to ask for 2^36-row words and die
    # with a MemoryError traceback; no truth table exceeds 20 inputs
    code = main(["approximate", str(BENCH / "c432.aag"), "--whole-circuit",
                 "--depth", "1", "--max-sub-inputs", "36"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and err.startswith("error:")
    assert "cap of 20" in err


@pytest.mark.parametrize("data", [
    b"aig 3 2 0 1 1\n6\n\x02\x02",  # 6 = 4 & 2: deltas 2, 2
    b"aig 200 199 0 1 1\n400\n\x02\x8e\x03",  # 400 = 398 & 0: 2, 398
], ids=["utf8", "not-utf8"])
def test_binary_aiger_is_named_input_error(tmp_path, capsys, data):
    # read as BLIF, the first file said "unsupported BLIF construct: aig";
    # the second, whose delta bytes are not UTF-8, gave a codec error
    path = tmp_path / "and.aig"
    path.write_bytes(data)
    code = main(["approximate", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and err.startswith("error:")
    assert "binary AIGER is not supported" in err and "aag" in err


def test_whole_circuit_on_16_inputs_runs(capsys):
    # add8u has 16 inputs, within the 20-input truth-table cap; the
    # whole-circuit table does not read --max-sub-inputs
    code, out = run(capsys, "approximate", str(BENCH / "add8u.aag"),
                    "--whole-circuit", "--depth", "1", "--max-sub-inputs",
                    "2", "--no-timing")
    assert code == 0
    (row,) = json.loads(out)["results"]
    assert row["depth"] == 1 and 0.0 < row["qor"] <= 1.0


def test_cells_over_exhaustive_cap_are_rejected_before_partitioning(
        capsys, monkeypatch):
    # a cell is fitted on its whole truth table, so --max-sub-inputs above
    # 20 is an input error before the circuit is cut
    def no_partition(*args):
        raise AssertionError("partitioned")
    # the package's ``explore`` attribute is the function
    monkeypatch.setattr(sys.modules["treesynth.explore"], "partition",
                        no_partition)
    for name, width in (("c1908", "33"), ("c499", "30")):
        code = main(["approximate", str(BENCH / f"{name}.aag"),
                     "--max-sub-inputs", width])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert f"max_inputs {width}" in err and "cap of 20" in err


def test_partition_takes_cells_over_exhaustive_cap(capsys):
    # partition fits no truth table, so any cell width is valid there
    code, out = run(capsys, "partition", str(BENCH / "c499.aag"),
                    "--max-sub-inputs", "30")
    assert code == 0
    data = json.loads(out)
    assert data["config"]["max_inputs"] == 30
    assert max(p["inputs"] for p in data["parts"]) > 20


def test_seed_help_says_learn_only_echoes_it(capsys):
    with pytest.raises(SystemExit):
        main(["learn", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "learn draws none and only echoes it" in help_text


def test_negative_limit_or_sample_count_is_input_error(capsys):
    # --samples -1 used to fail as Python's "negative shift count"; the
    # others were accepted and ran (c17 draws no vectors, so its seed was
    # never read)
    for name, flag, value in (("c17", "--node-limit", "-5"),
                              ("c432", "--samples", "-1"),
                              ("c17", "--samples", "0"),
                              ("c17", "--seed", "-1")):
        code = main(["approximate", str(BENCH / f"{name}.aag"), flag, value])
        out, err = capsys.readouterr()
        assert code == 2, (flag, value)
        assert out == ""
        assert "Traceback" not in err and err.startswith("error:")
        assert flag[2:].replace("-", "_") in err, err
    # eval checks them whichever estimator it picks; c17 is exhaustive,
    # and --exhaustive --seed -1 used to exit 0
    c17 = str(BENCH / "c17.aag")
    for flags in (["--seed", "-1"], ["--exhaustive", "--seed", "-1"],
                  ["--samples", "0"]):
        code = main(["eval", c17, c17, *flags])
        out, err = capsys.readouterr()
        assert code == 2, flags
        assert out == ""
        assert "Traceback" not in err and err.startswith("error:")
        assert flags[-2][2:] in err, err
    # --whole-circuit checks the same config; each of these used to exit 0
    for flag, value, name in (("--threshold", "7", "error_threshold"),
                              ("--beam", "0", "beam_width"),
                              ("--samples", "0", "qor_samples"),
                              ("--step", "-3", "step"),
                              ("--initial-depth", "0", "initial_max_depth"),
                              ("--max-sub-inputs", "1", "max_inputs"),
                              ("--seed", "-1", "seed")):
        code = main(["approximate", c17, "--whole-circuit", "--depth", "1",
                     flag, value])
        out, err = capsys.readouterr()
        assert code == 2, (flag, value)
        assert out == ""
        assert "Traceback" not in err and err.startswith("error:")
        assert name in err, err


def test_bad_jobs_or_learn_seed_is_input_error(capsys):
    # each of these used to exit 0, and learn echoed the seed -1
    c17 = str(BENCH / "c17.aag")
    pla = [str(PLA / f"mul7u_p12_{part}.pla")
           for part in ("train", "valid", "test")]
    for argv, name in ((["learn", *pla, "--jobs", "0"], "jobs"),
                       (["learn", *pla, "--jobs", "-3"], "jobs"),
                       (["learn", *pla, "--seed", "-1"], "seed"),
                       (["approximate", c17, "--jobs", "0"], "jobs"),
                       (["approximate", c17, "--whole-circuit", "--jobs",
                         "0"], "jobs"),
                       (["eval", c17, c17, "--jobs", "0"], "jobs"),
                       (["partition", c17, "--jobs", "0"], "jobs")):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2, argv
        assert out == ""
        assert "Traceback" not in err and err.startswith("error:"), argv
        assert f"{name} must be an int >= " in err, err


def test_bad_limits_rejected_without_cells(tmp_path, capsys):
    # a netlist with no AND nodes fits no tree; a bad limit used to be
    # accepted, echoed and exit 0
    wire = tmp_path / "wire.aag"
    wire.write_text("aag 1 1 0 1 0\n2\n2\n")
    code = main(["approximate", str(wire), "--node-limit", "-5"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and err.startswith("error:")


def test_removed_time_limit_is_an_unknown_flag():
    # the wall-clock budget made results depend on the host; --node-limit
    # is the one search budget, and the old flag is a usage error
    done = subprocess.run(
        [sys.executable, "-m", "treesynth.cli", "approximate",
         str(BENCH / "c17.aag"), "--time-limit", "1"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "unrecognized arguments: --time-limit 1" in done.stderr
    assert "Traceback" not in done.stderr


def test_results_do_not_depend_on_the_hash_seed(tmp_path):
    # c432 has 36 inputs, so this runs the Monte Carlo search; both runs
    # write to the same paths, which the report echoes
    out, trace = tmp_path / "out.aag", tmp_path / "trace.jsonl"
    runs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "treesynth.cli", "approximate",
             str(BENCH / "c432.aag"), "--max-sub-inputs", "8",
             "--initial-parts", "10", "--no-timing", "--out", str(out),
             "--trace", str(trace)],
            env=env, capture_output=True, timeout=120, check=True)
        runs.append((done.stdout, out.read_bytes(), trace.read_bytes()))
    assert runs[0][2]  # candidates were scored
    assert runs[0] == runs[1]


def test_flags_a_subcommand_does_not_read_are_rejected(capsys):
    c17 = str(BENCH / "c17.aag")
    report_flags = [["--format", "blif"], ["--report", "csv"], ["--no-timing"]]
    cases = [["eval", c17, c17, *flag] for flag in report_flags]
    cases += [["partition", c17, *flag]
              for flag in report_flags + [["--seed", "3"]]]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2, argv
        assert "error: unrecognized arguments" in err, argv


def test_colon_depth_range_is_input_error(capsys):
    code = main(["approximate", str(BENCH / "c17.aag"), "--whole-circuit",
                 "--depth", "1:4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: bad depth range '1:4'")


def test_directory_path_is_input_error(tmp_path, capsys):
    # a directory used to end in an IsADirectoryError traceback, exit 1
    d, c17 = str(tmp_path), str(BENCH / "c17.aag")
    for argv in (["learn", d, d, d], ["approximate", d], ["eval", d, c17],
                 ["eval", c17, d], ["partition", d],
                 ["approximate", c17, "--initial-parts", "2", "--out", d]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2, argv
        assert "Traceback" not in err and err.startswith("error:"), argv


def test_explore_orphaning_netlist(tmp_path, capsys):
    # a valid netlist whose first cleanup orphans node 5 (node 6 = 5 & !5)
    # used to exit 2 with "an output reads node 8 before it is built"
    netlist = tmp_path / "orphan.aag"
    netlist.write_text("aag 10 4 0 3 6\n2\n4\n6\n8\n16\n20\n14\n"
                       "10 2 4\n12 10 11\n14 6 8\n16 13 14\n18 14 2\n"
                       "20 18 5\n")
    code, out = run(capsys, "approximate", str(netlist), "--no-timing")
    assert code == 0
    assert json.loads(out)["selected"]["original_and_count"] == 3


class ReadRecorder(argparse.Namespace):
    """A namespace that records which of its attributes are read."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_declared_flag_is_read(tmp_path, capsys):
    # --jobs is the one documented no-op; every other flag must change
    # something, so its handler must read it
    c17, out = str(BENCH / "c17.aag"), str(tmp_path / "out.aag")
    pla = [str(PLA / f"mul7u_p12_{part}.pla")
           for part in ("train", "valid", "test")]
    invocations = {
        "learn": [[*pla, "--depths", "1", "--out", out, "--seed", "1"]],
        "approximate": [
            [c17, "--initial-parts", "2", "--out", out,
             "--trace", str(tmp_path / "trace.jsonl")],
            [c17, "--whole-circuit", "--depth", "1..2", "--out", out]],
        "eval": [[c17, c17, "--exhaustive"], [c17, c17, "--samples", "64"]],
        "partition": [[c17]],
    }
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(invocations)
    flags = [a for p in subparsers.choices.values() for a in p._actions
             if a.option_strings and a.dest != "help"]
    # 41 before eval and partition lost 7 and approximate --time-limit
    assert len(flags) == 33
    for command, argvs in invocations.items():
        reads = set()
        for argv in argvs:
            args = parser.parse_args([command, *argv],
                                     namespace=ReadRecorder())
            # parsing itself looks every default up; count only the handler
            args._reads.clear()
            assert args.func(args) == 0
            reads |= args._reads
        capsys.readouterr()
        declared = {a.dest for a in subparsers.choices[command]._actions
                    if a.dest != "help"}
        assert declared - reads == {"jobs"}, command

