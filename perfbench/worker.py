"""One repetition of a perfbench workload, in a fresh interpreter.

``run.py`` starts this script once per repetition:

    python3 perfbench/worker.py --root CHECKOUT --workload NAME --seed N \
        --mode setup|run|trace --t0 MONOTONIC --out DIR

It imports ``treesynth`` from ``CHECKOUT/src``, parses the workload's
inputs (set-up), runs the job list back to back with ``jobs=1`` (mode
``run``, or ``trace`` with the layer wrappers of ``tracer.py`` on), then
checks every job's output without trusting the figures the program
reports.  Its last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
import types
from pathlib import Path

THRESHOLDS = (0.05, 0.10, 0.15)

WORKLOADS = {
    # criterion 7: small exact arithmetic, ODT-bound, exhaustive QoR
    "arith_sweep": {"circuits": ("add8u", "mul7u"),
                    "partition": {"initial_parts": 10}},
    # wide inputs cut into small cells: compose, partition and
    # Monte-Carlo QoR dominate, ODT is cheap
    "wide_smallcell": {"circuits": ("c432", "c880", "c1908"),
                       "partition": {"initial_parts": 10, "max_inputs": 8}},
    # PLA learning through the CLI: almost all ODT, no explore layers
    "learn_pla": {"cases": ("add8u_cout", "mul7u_p12"), "depths": "2..10"},
}


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


class Explore:
    """One ``explore`` call on a parsed netlist at one error threshold."""

    def __init__(self, ts, name, circuit, config):
        self.ts, self.name, self.circuit, self.config = ts, name, circuit, config

    def run(self):
        return self.ts.explore.explore(self.circuit, self.config)

    def check(self, res) -> dict:
        ts, original, config = self.ts, self.circuit, self.config
        problems = []
        area = ts.aig.and_count(res.circuit)
        base = ts.aig.and_count(original)
        if area != res.final_area:
            problems.append(f"and_count {area} != final_area {res.final_area}")
        if res.original_area != base:
            problems.append(
                f"original_area {res.original_area} != and_count {base}")
        if res.final_area > base:
            problems.append(f"final_area {res.final_area} > original {base}")
        if res.budget_exceeded:
            problems.append("budget_exceeded")
        if original.num_inputs <= ts.qor.EXHAUSTIVE_INPUT_CAP:
            fresh = ts.qor.qor_exhaustive(original, res.circuit)
        else:
            fresh = ts.qor.qor_monte_carlo(original, res.circuit,
                                           config.qor_samples, config.seed + 1)
        if fresh != res.final_qor:
            problems.append(f"re-measured {fresh} != reported {res.final_qor}")
        if fresh.error > config.error_threshold:
            problems.append(f"error {fresh.error} > {config.error_threshold}")
        netlist = ts.aiger.write_aiger(res.circuit)
        rebuilt = ts.explore.replay(original, config, res.substitutions)
        if ts.aiger.write_aiger(rebuilt) != netlist:
            problems.append("replay of the substitutions gives another netlist")
        report = json.dumps({
            "substitutions": res.substitutions,
            "trace": [rec.as_dict() for rec in res.trace],
            "final_qor": fresh.to_json(), "areas": [base, area]},
            sort_keys=True)
        return {"job": self.name, "problems": problems,
                "digest": _digest(netlist, report), "area": area,
                "base_area": base, "accuracy": 1.0 - fresh.error}


class Learn:
    """``treesynth learn`` on one PLA triple, through ``cli.main``."""

    def __init__(self, ts, name, triple, argv, out_path: Path):
        self.ts, self.name, self.triple = ts, name, triple
        self.argv, self.out_path = argv, out_path

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.ts.cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, outcome) -> dict:
        ts, train, test = self.ts, self.triple.train, self.triple.test
        code, stdout = outcome
        if code != 0:
            return _failed(self.name, f"exit code {code}")
        problems = []
        report = json.loads(stdout)
        selected = report["selected"]
        netlist = self.out_path.read_text()
        self.out_path.unlink()
        circuit = ts.aiger.parse_aiger(netlist)
        # The constant classifier predicts the training majority (ties to
        # 0), as a depth-0 tree does.  An optimal tree is never worse than
        # it on the training rows, and a deeper one never worse than a
        # shallower one.  Test accuracy may exceed train accuracy.
        majority = 2 * train.labels.bit_count() > train.num_rows
        accuracies = {}
        for part, data in (("train", train), ("test", test)):
            word = ts.aig.simulate_words(circuit, list(data.features),
                                         data.row_mask)[0]
            accuracy = 1.0 - (word ^ data.labels).bit_count() / data.num_rows
            accuracies[part] = accuracy
            if accuracy != selected[f"{part}_accuracy"]:
                problems.append(f"simulated {part} accuracy {accuracy} != "
                                f"reported {selected[f'{part}_accuracy']}")
            ones = data.labels.bit_count()
            constant = (ones if majority else data.num_rows - ones) \
                / data.num_rows
            if accuracy < constant:
                problems.append(f"{part} accuracy {accuracy} < constant "
                                f"classifier {constant}")
        train_curve = [row["train_accuracy"] for row in report["results"]]
        if train_curve != sorted(train_curve):
            problems.append(f"train accuracy falls with depth: {train_curve}")
        area = ts.aig.and_count(circuit)
        if area != selected["and_count"]:
            problems.append(f"and_count {area} != reported "
                            f"{selected['and_count']}")
        return {"job": self.name, "problems": problems,
                "digest": _digest(netlist, stdout), "area": area,
                "base_area": report["results"][-1]["and_count"],
                "accuracy": accuracies["test"]}


def _failed(name: str, problem: str) -> dict:
    return {"job": name, "problems": [problem], "digest": "", "area": 0,
            "base_area": 0, "accuracy": 0.0}


def _check(job, outcome) -> dict:
    if isinstance(outcome, Exception):
        return _failed(job.name, f"raised {outcome!r}")
    return job.check(outcome)


def _modules():
    names = ("aig", "aiger", "cli", "dataset", "explore", "qor")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"treesynth.{name}") for name in names})


def _jobs(ts, workload: str, seed: int, root: Path, out: Path) -> list:
    spec = WORKLOADS[workload]
    if "circuits" in spec:
        import treesynth
        partition = treesynth.PartitionConfig(**spec["partition"])
        jobs = []
        for name in spec["circuits"]:
            text = (root / "benchmarks" / f"{name}.aag").read_text()
            circuit = ts.aiger.parse_aiger(text)
            for threshold in THRESHOLDS:
                config = treesynth.ExplorationConfig(
                    error_threshold=threshold, seed=seed, partition=partition,
                    jobs=1)
                jobs.append(Explore(ts, f"{name}@{threshold}", circuit,
                                    config))
        return jobs
    jobs = []
    for case in spec["cases"]:
        paths = [str(root / "benchmarks" / "pla" / f"{case}_{part}.pla")
                 for part in ("train", "valid", "test")]
        triple = ts.dataset.load_pla_triple(
            *(Path(p).read_text() for p in paths))
        out_path = out / f"{case}-{seed}.aag"
        argv = ["learn", *paths, "--depths", spec["depths"], "--out",
                str(out_path), "--seed", str(seed), "--no-timing"]
        jobs.append(Learn(ts, case, triple, argv, out_path))
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import treesynth
    if Path(treesynth.__file__).resolve().parent != src / "treesynth":
        raise SystemExit(f"treesynth was imported from {treesynth.__file__}, "
                         f"not from {src}")
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        tracer.active = True
    ts = _modules()
    jobs = _jobs(ts, args.workload, args.seed, args.root, args.out)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        outcomes = []
        start = time.perf_counter()
        for job in jobs:
            try:
                outcomes.append(job.run())
            except Exception as exc:  # a job that raises counts as failed
                outcomes.append(exc)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.active = False
            result["layers"] = tracer.metrics(start)
            result["untraced"] = tracer.missing
            tracer.write(args.out / f"spans-{args.workload}-{args.seed}.jsonl",
                         start)
        result["jobs"] = [_check(job, outcome)
                          for job, outcome in zip(jobs, outcomes)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
