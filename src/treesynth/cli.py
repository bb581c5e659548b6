"""Command-line front end: learn, approximate, eval, and partition modes."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .aig import Aig, AigError, and_count
from .aiger import parse_aiger, write_aiger
from .blif import parse_blif, write_blif
from .dataset import Dataset, DatasetError, load_pla_triple
from .explore import ExplorationConfig, explore
from .odt import OdtError, SearchBudget, count_errors, fit_optimal
from .partition import PartitionConfig, partition, partition_report
from .qor import qor_exhaustive, qor_monte_carlo
from .synth import approx_sub_circuit, tree_to_aig

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_BUDGET_EXCEEDED = 3


def _read_netlist(path: str) -> Aig:
    text = Path(path).read_text()
    if path.endswith(".blif"):
        return parse_blif(text)
    if text.lstrip().startswith("aag"):
        return parse_aiger(text)
    return parse_blif(text)


def _write_netlist(circuit: Aig, path: str, fmt: str) -> None:
    if fmt == "blif":
        Path(path).write_text(write_blif(circuit))
    else:
        Path(path).write_text(write_aiger(circuit))


def _parse_depth_range(text: str) -> list[int]:
    """The depths of ``N`` or of the inclusive range ``LO..HI``."""
    lo, hi = text.split("..", 1) if ".." in text else (text, text)
    try:
        depths = range(int(lo), int(hi) + 1)
    except ValueError:
        depths = range(0)
    if not depths or depths[0] < 0:
        raise ValueError(f"bad depth range {text!r}: expected N or LO..HI "
                         "with 0 <= LO <= HI")
    return list(depths)


def _accuracy(tree, data: Dataset) -> float:
    return 1.0 - count_errors(tree, data) / data.num_rows


def _emit_report(report: dict, args, started: float) -> None:
    """Print ``report`` as JSON, with ``wall_clock_s`` unless --no-timing,
    or its ``results`` rows as CSV."""
    if args.report == "csv":
        rows = report["results"]
        if rows:
            keys = sorted({k for row in rows for k in row})
            lines = [",".join(keys)]
            lines += [",".join(str(row.get(k, "")) for k in keys)
                      for row in rows]
            sys.stdout.write("\n".join(lines) + "\n")
        return
    if not args.no_timing:
        report["wall_clock_s"] = round(time.monotonic() - started, 3)
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def cmd_learn(args) -> int:
    started = time.monotonic()
    triple = load_pla_triple(Path(args.train).read_text(),
                             Path(args.validation).read_text(),
                             Path(args.test).read_text())
    depths = _parse_depth_range(args.depths)
    report = {
        "mode": "learn",
        "config": {"train": args.train, "validation": args.validation,
                   "test": args.test, "depths": args.depths, "out": args.out},
        "seed": args.seed,  # echoed only: learning draws no random numbers
        "results": [],
    }
    best = None
    for depth in depths:
        tree = fit_optimal(triple.train, SearchBudget(max_depth=depth))
        circuit = tree_to_aig(tree, triple.train.num_features)
        row = {
            "depth": depth,
            "realized_depth": tree.realized_depth,
            "train_accuracy": _accuracy(tree, triple.train),
            "validation_accuracy": _accuracy(tree, triple.validation),
            "test_accuracy": _accuracy(tree, triple.test),
            "and_count": and_count(circuit),
        }
        report["results"].append(row)
        # best validation accuracy wins; ties go to the shallower model
        if best is None or row["validation_accuracy"] > best[0]["validation_accuracy"]:
            best = (row, circuit)
    selected_row, selected_circuit = best
    report["selected"] = {**selected_row,
                          "d_avg": float(selected_row["realized_depth"])}
    if args.out:
        _write_netlist(selected_circuit, args.out, args.format)
    _emit_report(report, args, started)
    return EXIT_OK


def _exploration_config(args) -> ExplorationConfig:
    return ExplorationConfig(
        error_threshold=args.threshold,
        initial_max_depth=args.initial_depth,
        step=args.step,
        beam_width=args.beam,
        qor_samples=args.samples,
        seed=args.seed,
        partition=PartitionConfig(
            max_inputs=args.max_sub_inputs,
            max_outputs=args.max_sub_outputs,
            initial_parts=args.initial_parts),
        node_limit=args.node_limit,
        time_limit=args.time_limit)


def cmd_approximate(args) -> int:
    started = time.monotonic()
    circuit = _read_netlist(args.netlist)
    config_echo = {
        "netlist": args.netlist, "threshold": args.threshold,
        "initial_depth": args.initial_depth, "step": args.step,
        "beam": args.beam, "samples": args.samples,
        "max_sub_inputs": args.max_sub_inputs,
        "max_sub_outputs": args.max_sub_outputs,
        "initial_parts": args.initial_parts,
        "node_limit": args.node_limit, "time_limit": args.time_limit,
        "whole_circuit": args.whole_circuit, "depth": args.depth,
        "out": args.out, "format": args.format,
    }
    report = {"mode": "approximate", "config": config_echo,
              "seed": args.seed, "results": []}

    if args.whole_circuit:
        # one approximation per depth over the whole circuit's truth tables
        depths = _parse_depth_range(args.depth or str(args.initial_depth))
        proven = True
        for depth in depths:
            approx = approx_sub_circuit(
                circuit, depth, node_limit=args.node_limit,
                time_limit=args.time_limit,
                max_table_inputs=args.max_sub_inputs)
            proven = proven and approx.proven
            q = qor_exhaustive(circuit, approx.circuit)
            trees = approx.per_output_trees
            d_avg = (sum(t.realized_depth for t in trees) / len(trees)
                     if trees else 0.0)
            report["results"].append({
                "depth": depth,
                "qor": q.error,
                "and_count": and_count(approx.circuit),
                "exact": approx.exact,
                "d_avg": d_avg,
            })
            if args.out:
                _write_netlist(approx.circuit,
                               f"{args.out}.md{depth}", args.format)
        if args.trace:  # no candidate enters a beam in this mode
            Path(args.trace).write_text("")
        _emit_report(report, args, started)
        return EXIT_OK if proven else EXIT_BUDGET_EXCEEDED

    result = explore(circuit, _exploration_config(args))
    report["results"] = [rec.as_dict() for rec in result.trace]
    report["selected"] = {
        "original_and_count": result.original_area,
        "and_count": result.final_area,
        "qor": result.final_qor.error,
        "qor_estimator": result.final_qor.estimator,
        "substitutions": [list(s) for s in result.substitutions],
        "budget_exceeded": result.budget_exceeded,
    }
    if args.out:
        _write_netlist(result.circuit, args.out, args.format)
    if args.trace:
        Path(args.trace).write_text(
            "".join(json.dumps(rec.as_dict(), sort_keys=True) + "\n"
                    for rec in result.trace))
    _emit_report(report, args, started)
    return EXIT_BUDGET_EXCEEDED if result.budget_exceeded else EXIT_OK


def cmd_eval(args) -> int:
    original = _read_netlist(args.original)
    approx = _read_netlist(args.approx)
    if args.exhaustive:
        report = qor_exhaustive(original, approx)
    else:
        report = qor_monte_carlo(original, approx, args.samples, args.seed)
    sys.stdout.write(report.to_json() + "\n")
    return EXIT_OK


def cmd_partition(args) -> int:
    circuit = _read_netlist(args.netlist)
    config = PartitionConfig(
        max_inputs=args.max_sub_inputs, max_outputs=args.max_sub_outputs,
        initial_parts=args.initial_parts)
    parts = partition(circuit, config)
    out = partition_report(circuit, parts)
    out["config"] = {
        "max_inputs": config.max_inputs, "max_outputs": config.max_outputs,
        "initial_parts": config.initial_parts,
    }
    out["circuit"] = {"inputs": circuit.num_inputs,
                      "outputs": circuit.num_outputs,
                      "and_count": and_count(circuit)}
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, *, seed: bool,
                report: bool) -> None:
    """``--jobs``; ``--seed`` if ``seed``; the netlist format and report
    flags if ``report``."""
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored; kept for compatibility "
                        "(every run is single-threaded)")
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if report:
        p.add_argument("--format", choices=["aiger", "blif"],
                       default="aiger")
        p.add_argument("--report", choices=["json", "csv"], default="json")
        p.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock from the report "
                            "(reproducible bytes)")


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-sub-inputs", type=int, default=14)
    p.add_argument("--max-sub-outputs", type=int, default=5)
    p.add_argument("--initial-parts", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesynth",
        description="Approximate logic synthesis via optimal decision trees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="fit trees on a PLA train/val/test triple")
    p.add_argument("train")
    p.add_argument("validation")
    p.add_argument("test")
    p.add_argument("--depths", default="2..10")
    p.add_argument("--out")
    _add_common(p, seed=True, report=True)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("approximate", help="approximate a circuit under an "
                                           "error budget")
    p.add_argument("netlist")
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--initial-depth", type=int, default=9)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--beam", type=int, default=3)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--node-limit", type=int,
                   help="stop each tree search after this many expansions; "
                        "an exhausted search keeps its best tree so far, "
                        "the run continues and exits 3")
    p.add_argument("--time-limit", type=float,
                   help="per-tree search time budget in seconds; an "
                        "exhausted search keeps its best tree so far, the "
                        "run continues and exits 3")
    _add_partition_flags(p)
    p.add_argument("--whole-circuit", action="store_true",
                   help="skip partitioning; learn trees over the full "
                        "circuit truth table")
    p.add_argument("--depth",
                   help="depth or LO..HI range for --whole-circuit mode")
    p.add_argument("--out")
    p.add_argument("--trace", help="write the substitution trace (JSON lines)")
    _add_common(p, seed=True, report=True)
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("eval", help="measure error between two netlists")
    p.add_argument("original")
    p.add_argument("approx")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--exhaustive", action="store_true")
    _add_common(p, seed=True, report=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("partition", help="report a bounded-interface "
                                         "decomposition")
    p.add_argument("netlist")
    _add_partition_flags(p)
    _add_common(p, seed=False, report=False)
    p.set_defaults(func=cmd_partition)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AigError, DatasetError, OdtError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
