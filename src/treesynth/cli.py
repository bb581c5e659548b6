"""Command-line front end: learn, approximate, eval, and partition modes."""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .aig import Aig, AigError, and_count, check_int, cleanup, simulate_words
from .aiger import parse_aiger, write_aiger
from .blif import parse_blif, write_blif
from .dataset import Dataset, DatasetError, load_pla_triple
from .explore import ExplorationConfig, explore
from .odt import OdtError, SearchBudget, fit_optimal
from .partition import PartitionConfig, partition, partition_report
from .qor import exhaustive_testbench, mismatched_bits, reporting_testbench
from .synth import approx_sub_circuit, tree_to_aig

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_BUDGET_EXCEEDED = 3


def _read_netlist(path: str) -> Aig:
    data = Path(path).read_bytes()
    if data.split(maxsplit=1)[:1] == [b"aig"]:
        raise AigError(f"{path}: binary AIGER is not supported; convert it "
                       "to ASCII aag (for example with aigtoaig)")
    text = data.decode()  # not UTF-8: a ValueError, which main reports
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


def _accuracy(circuit: Aig, data: Dataset) -> float:
    """Share of the rows of ``data`` on which ``circuit`` outputs the label."""
    predicted = simulate_words(circuit, list(data.features), data.row_mask)
    return 1.0 - mismatched_bits([data.labels], predicted) / data.num_rows


def _emit_report(report: dict, args, started: float) -> None:
    """Print ``report`` as JSON, with ``wall_clock_s`` unless --no-timing,
    or its ``results`` rows as CSV, where ``None`` and a missing key are
    empty cells."""
    if args.report == "csv":
        rows = report["results"]
        if rows:
            keys = sorted({k for row in rows for k in row})
            lines = [",".join(keys)]
            lines += [",".join("" if row.get(k) is None else str(row[k])
                               for k in keys) for row in rows]
            sys.stdout.write("\n".join(lines) + "\n")
        return
    if not args.no_timing:
        report["wall_clock_s"] = round(time.monotonic() - started, 3)
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def cmd_learn(args) -> int:
    started = time.monotonic()
    check_int("seed", args.seed, 0)
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
            "train_accuracy": _accuracy(circuit, triple.train),
            "validation_accuracy": _accuracy(circuit, triple.validation),
            "test_accuracy": _accuracy(circuit, triple.test),
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


def _partition_config(args) -> PartitionConfig:
    return PartitionConfig(max_inputs=args.max_sub_inputs,
                           max_outputs=args.max_sub_outputs,
                           initial_parts=args.initial_parts)


def _exploration_config(args) -> ExplorationConfig:
    return ExplorationConfig(
        error_threshold=args.threshold,
        initial_max_depth=args.initial_depth,
        step=args.step,
        beam_width=args.beam,
        qor_samples=args.samples,
        seed=args.seed,
        partition=_partition_config(args),
        node_limit=args.node_limit)


def cmd_approximate(args) -> int:
    started = time.monotonic()
    circuit = _read_netlist(args.netlist)
    config = _exploration_config(args)  # both modes check every flag
    config_echo = {
        "netlist": args.netlist, "threshold": args.threshold,
        "initial_depth": args.initial_depth, "step": args.step,
        "beam": args.beam, "samples": args.samples,
        "max_sub_inputs": args.max_sub_inputs,
        "max_sub_outputs": args.max_sub_outputs,
        "initial_parts": args.initial_parts,
        "node_limit": args.node_limit,
        "whole_circuit": args.whole_circuit, "depth": args.depth,
        "out": args.out, "format": args.format,
    }
    report = {"mode": "approximate", "config": config_echo,
              "seed": args.seed, "results": []}

    if args.whole_circuit:
        # one approximation per depth over the whole circuit's truth tables
        depths = _parse_depth_range(args.depth or str(args.initial_depth))
        bench = reporting_testbench(circuit, config.qor_samples, config.seed)
        proven = True
        for depth in depths:
            approx = approx_sub_circuit(circuit, depth,
                                        node_limit=config.node_limit)
            proven = proven and approx.proven
            q = bench.measure(approx.circuit)
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

    result = explore(circuit, config)
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
    bench = reporting_testbench(original, args.samples, args.seed)
    if args.exhaustive and bench.estimator != "exhaustive":
        bench = exhaustive_testbench(original)  # over the cap: AigError
    sys.stdout.write(bench.measure(approx).to_json() + "\n")
    return EXIT_OK


def cmd_partition(args) -> int:
    # partition cuts the cleaned circuit, so that is the one reported
    circuit = cleanup(_read_netlist(args.netlist))
    config = _partition_config(args)
    parts = partition(circuit, config)
    out = partition_report(circuit, parts)
    out["config"] = asdict(config)
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
        p.add_argument("--seed", type=int, default=0,
                       help="seeds the sampled QoR vectors of approximate "
                            "and eval; learn draws none and only echoes it")
    if report:
        p.add_argument("--format", choices=["aiger", "blif"],
                       default="aiger")
        p.add_argument("--report", choices=["json", "csv"], default="json")
        p.add_argument("--no-timing", action="store_true",
                       help="omit wall-clock from the report "
                            "(reproducible bytes)")


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-sub-inputs", type=int,
                   default=PartitionConfig.max_inputs)
    p.add_argument("--max-sub-outputs", type=int,
                   default=PartitionConfig.max_outputs)
    p.add_argument("--initial-parts", type=int,
                   default=PartitionConfig.initial_parts)


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
    p.add_argument("--threshold", type=float,
                   default=ExplorationConfig.error_threshold)
    p.add_argument("--initial-depth", type=int,
                   default=ExplorationConfig.initial_max_depth)
    p.add_argument("--step", type=int, default=ExplorationConfig.step)
    p.add_argument("--beam", type=int, default=ExplorationConfig.beam_width)
    p.add_argument("--samples", type=int,
                   default=ExplorationConfig.qor_samples)
    p.add_argument("--node-limit", type=int, metavar="N",
                   help="stop each tree search once it has made N "
                        "expansions, at most max(N, 1) + D - 1 at depth D; "
                        "an exhausted search keeps its best tree so far, "
                        "the run continues and exits 3")
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
    p.add_argument("--samples", type=int,
                   default=ExplorationConfig.qor_samples,
                   help="Monte-Carlo vectors, drawn only above 20 inputs")
    p.add_argument("--exhaustive", action="store_true",
                   help="exact error, or an input error above 20 inputs")
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
        check_int("jobs", args.jobs, 1)  # read by no handler: a no-op
        return args.func(args)
    except (AigError, DatasetError, OdtError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
