"""treesynth benchmark: end-to-end and per-layer metrics of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload arith_sweep --seed 0 --seconds 40 --trace 0

Every repetition runs in a fresh single Python process (``worker.py``),
one job after another (a closed loop, one caller, ``jobs=1``).  With
``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` one untraced and one traced repetition give the per-layer
metrics and the tracing overhead.  Each job's output is checked; the last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5          # set-up-only processes per untraced run
WORKER_TIMEOUT_S = 150
SELF_SUM_TOLERANCE = 0.10  # layer self times must add up to the traced wall


class BenchError(Exception):
    pass


def launch(workload: str, seed: int, mode: str) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--out", str(OUT), "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(rep: dict, reference: dict, label: str) -> int:
    """Failed checks of one repetition, including digests that differ from
    the reference repetition of the same seed."""
    failed = 0
    for job, ref in zip(rep["jobs"], reference["jobs"]):
        problems = list(job["problems"])
        if job["digest"] != ref["digest"]:
            problems.append(f"digest {job['digest']} != {ref['digest']}")
        failed += bool(problems)
        print(f"{label} {job['job']}: area {job['base_area']}->{job['area']} "
              f"accuracy {job['accuracy']:.6f} digest {job['digest']}"
              + "".join(f"\n  FAIL {p}" for p in problems))
    return failed


def untraced(workload: str, seed: int, seconds: float) -> dict:
    setups = [launch(workload, seed, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    reps = []
    started = time.monotonic()
    while True:
        reps.append(launch(workload, seed, "run"))
        elapsed = time.monotonic() - started
        # start another repetition only if it should end within --seconds
        if elapsed + elapsed / len(reps) > seconds:
            break
    setups += [rep["setup_s"] for rep in reps]
    failed = sum(count_failures(rep, reps[0], f"rep{i}")
                 for i, rep in enumerate(reps))
    jobs = reps[0]["jobs"]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "area_ratio": (sum(j["area"] for j in jobs)
                       / sum(j["base_area"] for j in jobs), "ratio"),
        "accuracy": (statistics.fmean(j["accuracy"] for j in jobs), "ratio"),
    }
    print(f"{len(reps)} repetition(s), {len(setups)} set-up samples")
    return {"attempted": sum(len(r["jobs"]) for r in reps),
            "failed": failed, "metrics": metrics, "correct": True}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("reuse", "ratio")):
        return "ratio"
    return "count"


def traced(workload: str, seed: int) -> dict:
    plain = launch(workload, seed, "run")
    rep = launch(workload, seed, "trace")
    failed = (count_failures(plain, plain, "untraced")
              + count_failures(rep, plain, "traced"))
    if rep["untraced"]:
        print("not traced, no longer in treesynth: "
              + ", ".join(rep["untraced"]))
    layers = dict(rep["layers"])
    self_sum = layers.pop("self_sum_s")
    layers["trace.wall_s"] = rep["wall_s"]
    layers["trace.overhead_s"] = rep["wall_s"] - plain["wall_s"]
    layers["trace.self_sum_ratio"] = self_sum / rep["wall_s"]
    correct = abs(self_sum / rep["wall_s"] - 1.0) <= SELF_SUM_TOLERANCE
    print(f"layer self times add up to {self_sum:.3f} s of "
          f"{rep['wall_s']:.3f} s traced wall time; spans in "
          f"{OUT / f'spans-{workload}-{seed}.jsonl'}")
    return {"attempted": len(plain["jobs"]) + len(rep["jobs"]),
            "failed": failed, "correct": correct,
            "metrics": {k: (v, layer_unit(k)) for k, v in layers.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treesynth" / "__init__.py").is_file():
        print(f"error: no treesynth sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            out = traced(args.workload, args.seed)
        else:
            out = untraced(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": out["correct"] and out["failed"] == 0,
        "attempted": out["attempted"], "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
