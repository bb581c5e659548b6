#!/usr/bin/env python3
"""Regenerate the netlists under benchmarks/ from the generators in
``circuits.py`` next to this script.

Run from the repository root:

    python3 scripts/make_benchmarks.py
"""

from pathlib import Path
import sys

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from circuits import BENCHMARKS
from treesynth.aiger import write_aiger
from treesynth.blif import write_blif

COMMENTS = {
    "c17": "c17: the classic 6-NAND benchmark netlist",
    "add8u": "add8u: 8-bit unsigned ripple-carry adder",
    "mul7u": "mul7u: 7-bit unsigned array multiplier",
    "c432": "c432 profile: 36-in/7-out interrupt controller, functional "
            "reconstruction at the published interface (not gate-for-gate)",
    "c499": "c499 profile: 41-in/32-out single-error corrector, functional "
            "reconstruction at the published interface (not gate-for-gate)",
    "c880": "c880 profile: 60-in/26-out 8-bit ALU, functional "
            "reconstruction at the published interface (not gate-for-gate)",
    "c1908": "c1908 profile: 33-in/25-out SEC/DED unit, functional "
             "reconstruction at the published interface (not gate-for-gate)",
}


def benchmark_files() -> dict[str, str]:
    """File name under benchmarks/ -> netlist text, for every benchmark."""
    files = {f"{name}.aag": write_aiger(build(), comment=COMMENTS.get(name))
             for name, build in BENCHMARKS.items()}
    # one BLIF variant to exercise the second netlist format
    files["c17.blif"] = write_blif(BENCHMARKS["c17"]())
    return files


def main() -> None:
    out_dir = HERE.parent / "benchmarks"
    out_dir.mkdir(exist_ok=True)
    for name, text in benchmark_files().items():
        path = out_dir / name
        path.write_text(text)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
