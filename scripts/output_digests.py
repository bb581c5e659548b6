#!/usr/bin/env python3
"""Print a SHA-256 digest of every output of a fixed set of CLI runs.

The runs cover every search path: the six criterion-7 ``approximate``
runs (exhaustive search), ``c432`` with 8-input cells (search on
Monte-Carlo vectors), ``c1908`` with 33-input cells (an input error: a
cell's truth table has at most 20 inputs), a ``--whole-circuit`` depth
sweep of ``c17`` written as AIGER, one read and written as BLIF and one
of ``add8u`` (a 16-input truth table), two runs whose tree searches
reach a node limit (``mul7u`` at 0.10 with ``--node-limit 200``, and the
``c17`` sweep with ``--node-limit 1``; both exit 3), ``learn`` on both
PLA triples and on one from depth 0 with a CSV report and a BLIF
netlist, ``partition`` of three wide circuits and of ``c17.blif``,
``eval`` of the ``mul7u`` 0.10 netlist by default (exhaustive, since it
has 14 inputs) and with ``--exhaustive``, and ``eval`` of the ``c432``
netlist (36 inputs, so Monte Carlo) on 40 000 sampled vectors, more than
one simulation slice.
Each runs in-process in one temporary directory, on copies of the inputs
under ``benchmarks/``.  Stdout gets one ``name sha256`` line per run,
over its exit code, stdout and stderr, then one per file the runs wrote.
The temporary directory's path is masked before hashing, so the lines
depend only on the program.  Stderr names the ``treesynth`` package that
was loaded: it is imported from ``sys.path``, so to compare two checkouts,
run from the repository root

    PYTHONPATH=src python3 scripts/output_digests.py > change.txt
    PYTHONPATH=OTHER/src python3 scripts/output_digests.py > other.txt

and diff the two files.
"""

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import treesynth.cli

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
INPUTS = ("add8u.aag", "mul7u.aag", "c17.aag", "c17.blif", "c432.aag",
          "c880.aag", "c1908.aag", *(f"pla/{case}_{split}.pla"
                         for case in ("add8u_cout", "mul7u_p12")
                         for split in ("train", "valid", "test")))


def runs(tmp: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, in order; inputs and outputs under tmp."""
    out = []
    for name in ("add8u", "mul7u"):
        for threshold in ("0.05", "0.10", "0.15"):
            stem = f"{tmp}/{name}_{threshold}"
            out.append((f"approximate_{name}_{threshold}", [
                "approximate", f"{tmp}/{name}.aag", "--threshold", threshold,
                "--initial-parts", "10", "--no-timing", "--out",
                f"{stem}.aag", "--trace", f"{stem}.trace"]))
    out.append(("approximate_c432_0.05_cells8", [
        "approximate", f"{tmp}/c432.aag", "--threshold", "0.05",
        "--max-sub-inputs", "8", "--no-timing", "--out",
        f"{tmp}/c432_0.05.aag", "--trace", f"{tmp}/c432_0.05.trace"]))
    out.append(("approximate_c1908_cells33", [
        "approximate", f"{tmp}/c1908.aag", "--max-sub-inputs", "33"]))
    out.append(("approximate_c17_whole", [
        "approximate", f"{tmp}/c17.aag", "--whole-circuit", "--depth",
        "1..4", "--no-timing", "--out", f"{tmp}/c17_whole", "--trace",
        f"{tmp}/c17_whole.trace"]))
    out.append(("approximate_c17_whole_blif", [
        "approximate", f"{tmp}/c17.blif", "--whole-circuit", "--depth",
        "1..4", "--no-timing", "--format", "blif", "--out",
        f"{tmp}/c17_whole_blif"]))
    out.append(("approximate_add8u_whole", [
        "approximate", f"{tmp}/add8u.aag", "--whole-circuit", "--depth",
        "1..3", "--no-timing"]))
    out.append(("approximate_mul7u_0.10_nodes200", [
        "approximate", f"{tmp}/mul7u.aag", "--threshold", "0.10",
        "--initial-parts", "10", "--node-limit", "200", "--no-timing",
        "--out", f"{tmp}/mul7u_0.10_nodes200.aag", "--trace",
        f"{tmp}/mul7u_0.10_nodes200.trace"]))
    out.append(("approximate_c17_whole_nodes1", [
        "approximate", f"{tmp}/c17.aag", "--whole-circuit", "--depth",
        "1..4", "--node-limit", "1", "--no-timing"]))
    for case in ("add8u_cout", "mul7u_p12"):
        out.append((f"learn_{case}", [
            "learn", *(f"{tmp}/pla/{case}_{split}.pla"
                       for split in ("train", "valid", "test")),
            "--depths", "2..6", "--no-timing", "--out",
            f"{tmp}/learn_{case}.aag"]))
    out.append(("learn_add8u_cout_csv_blif", [
        "learn", *(f"{tmp}/pla/add8u_cout_{split}.pla"
                   for split in ("train", "valid", "test")),
        "--depths", "0..3", "--report", "csv", "--format", "blif", "--out",
        f"{tmp}/learn_add8u_cout.blif"]))
    for name in ("c432", "c880", "c1908"):
        out.append((f"partition_{name}", ["partition", f"{tmp}/{name}.aag"]))
    out.append(("partition_c17_blif", ["partition", f"{tmp}/c17.blif"]))
    evaluated = ["eval", f"{tmp}/mul7u.aag", f"{tmp}/mul7u_0.10.aag"]
    out.append(("eval_mul7u_0.10", evaluated))
    out.append(("eval_mul7u_0.10_exhaustive", [*evaluated, "--exhaustive"]))
    out.append(("eval_c432_0.05_samples40000", [
        "eval", f"{tmp}/c432.aag", f"{tmp}/c432_0.05.aag", "--samples",
        "40000"]))
    return out


def digest(text: str, tmp: str) -> str:
    return hashlib.sha256(text.replace(tmp, "<tmp>").encode()).hexdigest()


def main() -> None:
    print(f"treesynth loaded from {treesynth.__file__}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "pla").mkdir()
        for name in INPUTS:
            shutil.copyfile(BENCH / name, Path(tmp) / name)
        for name, argv in runs(tmp):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = treesynth.cli.main(argv)
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
            text = f"exit {code}\n{out.getvalue()}{err.getvalue()}"
            print(f"{name}.stdout {digest(text, tmp)}")
        for path in sorted(Path(tmp).rglob("*")):
            name = path.relative_to(tmp).as_posix()
            if path.is_file() and name not in INPUTS:
                print(f"{name} {digest(path.read_text(), tmp)}")


if __name__ == "__main__":
    main()
