#!/usr/bin/env python3
"""Print a SHA-256 digest of every output of a fixed set of CLI runs.

The runs cover every search path: the six criterion-7 ``approximate``
runs (exhaustive search), ``c432`` with 8-input cells (search on
Monte-Carlo vectors), a ``--whole-circuit`` depth sweep of ``c17``,
``learn`` on both PLA triples, ``partition`` of three wide circuits, and
``eval`` of the ``mul7u`` 0.10 netlist with and without ``--exhaustive``.
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
INPUTS = ("add8u.aag", "mul7u.aag", "c17.aag", "c432.aag", "c880.aag",
          "c1908.aag", *(f"pla/{case}_{split}.pla"
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
    out.append(("approximate_c17_whole", [
        "approximate", f"{tmp}/c17.aag", "--whole-circuit", "--depth",
        "1..4", "--no-timing", "--out", f"{tmp}/c17_whole", "--trace",
        f"{tmp}/c17_whole.trace"]))
    for case in ("add8u_cout", "mul7u_p12"):
        out.append((f"learn_{case}", [
            "learn", *(f"{tmp}/pla/{case}_{split}.pla"
                       for split in ("train", "valid", "test")),
            "--depths", "2..6", "--no-timing", "--out",
            f"{tmp}/learn_{case}.aag"]))
    for name in ("c432", "c880", "c1908"):
        out.append((f"partition_{name}", ["partition", f"{tmp}/{name}.aag"]))
    evaluated = ["eval", f"{tmp}/mul7u.aag", f"{tmp}/mul7u_0.10.aag"]
    out.append(("eval_mul7u_0.10", evaluated))
    out.append(("eval_mul7u_0.10_exhaustive", [*evaluated, "--exhaustive"]))
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
