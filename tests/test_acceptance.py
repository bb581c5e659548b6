"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line directly to the terminal
(bypassing pytest's capture) so that the acceptance status is readable
from any run.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from pathlib import Path

from treesynth.aig import and_count
from treesynth.cli import main
from treesynth.dataset import Dataset, parse_pla, truth_tables
from treesynth.explore import ExplorationConfig, explore
from treesynth.odt import SearchBudget, fit_optimal, predict
from treesynth.partition import PartitionConfig, partition
from treesynth.qor import qor_exhaustive, qor_monte_carlo
from treesynth.synth import approx_sub_circuit

from conftest import clear_memos, random_circuit
from reference import (BENCHMARKS, add8u, c17, fit_bruteforce, mul7u,
                       simulate)

ROOT = Path(__file__).resolve().parents[1]
PLA = ROOT / "benchmarks" / "pla"


def report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_criterion_1_c17_golden_table(capsys):
    started = time.monotonic()
    circuit = c17()
    got = []
    ok = True
    for depth in (1, 2, 3, 4):
        approx = approx_sub_circuit(circuit, depth)
        q = qor_exhaustive(circuit, approx.circuit)
        got.append(q.error)
        if depth == 1 and and_count(approx.circuit) != 0:
            ok = False
        if depth == 4 and (not approx.exact or q.error != 0.0):
            ok = False
    elapsed = time.monotonic() - started
    ok = ok and got == [0.25, 0.125, 0.0625, 0.0] and elapsed < 1.0
    report(capsys, 1, ok,
           f"c17 error by depth = {got} (want [0.25, 0.125, 0.0625, 0.0]), "
           f"depth-1 area 0, depth-4 exact, {elapsed:.2f}s")


def test_criterion_2_odt_oracle(capsys):
    started = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 8)
        rows = rng.randint(4, 128)
        d = Dataset(num_rows=rows,
                    features=tuple(rng.getrandbits(rows) for _ in range(n)),
                    labels=rng.getrandbits(rows),
                    weights=(tuple(rng.randint(1, 3) for _ in range(rows))
                             if rng.random() < 0.25 else None))
        depth = rng.randint(0, 3)
        fast = fit_optimal(d, SearchBudget(max_depth=depth))
        slow = fit_bruteforce(d, SearchBudget(max_depth=depth))
        assert fast.train_error == slow.train_error, (n, rows, depth)
        checked += 1
    elapsed = time.monotonic() - started
    ok = checked == 200 and elapsed < 300
    report(capsys, 2, ok,
           f"{checked}/200 random datasets match the brute-force oracle "
           f"in {elapsed:.1f}s")


def test_criterion_3_tree_circuit_equivalence(capsys):
    rng = random.Random(3)
    cells = 0
    for _ in range(25):
        c = random_circuit(rng, rng.randint(3, 7), rng.randint(8, 50),
                           rng.randint(1, 4))
        parts = partition(c, PartitionConfig(max_inputs=7, max_outputs=4,
                                             initial_parts=2))
        for sub in parts:
            md = rng.randint(1, 4)
            approx = approx_sub_circuit(sub.extracted, md)
            src = sub.extracted
            n, m = src.num_inputs, src.num_outputs
            # tree circuits agree with tree predictions everywhere
            tables = truth_tables(src)
            for out_idx, tree in enumerate(approx.per_output_trees):
                for vec, _ in tables[out_idx].rows():
                    assert simulate(approx.circuit, [vec])[0][out_idx] == \
                        predict(tree, vec)
            # cell error equals the summed training error exactly
            q = qor_exhaustive(src, approx.circuit)
            want = sum(t.train_error for t in approx.per_output_trees)
            assert q.mismatched_bits == want
            assert q.total_bits == (1 << n) * m
            cells += 1
    report(capsys, 3, True,
           f"{cells} cells: tree circuits match predictions and cell error "
           "equals summed train error / (2^n * m)")


def test_criterion_4_depth_monotonicity(capsys):
    rng = random.Random(4)
    checked = 0
    for _ in range(50):
        n = rng.randint(2, 10)
        c = random_circuit(rng, n, rng.randint(5, 40), rng.randint(1, 3))
        errors = []
        for depth in range(1, n + 1):
            approx = approx_sub_circuit(c, depth)
            errors.append(qor_exhaustive(c, approx.circuit).error)
            if errors[-1] == 0.0:
                break  # deeper trees stay exact; monotone by construction
        assert errors == sorted(errors, reverse=True), errors
        if len(errors) == n:
            assert errors[-1] == 0.0, errors
        checked += 1
    report(capsys, 4, checked == 50,
           f"{checked}/50 random circuits: error non-increasing in depth "
           "and zero at depth = inputs")


def test_criterion_5_partition_soundness(capsys):
    config = PartitionConfig()
    names = ["add8u", "mul7u", "c432", "c499", "c880", "c1908"]
    summary = []
    for name in names:
        circuit = BENCHMARKS[name]()
        parts = partition(circuit, config)
        assert all(len(p.boundary_inputs) <= 14 for p in parts), name
        assert all(len(p.boundary_outputs) <= 5 for p in parts), name
        from treesynth.aig import cleanup, compose
        rebuilt = compose(cleanup(circuit), parts,
                          {p.id: p.extracted for p in parts})
        if circuit.num_inputs <= 16:
            err = qor_exhaustive(circuit, rebuilt).error
        else:
            err = qor_monte_carlo(circuit, rebuilt, 10_000, 0).error
        assert err == 0.0, name
        summary.append(f"{name}:{len(parts)}")
    report(capsys, 5, True,
           "interface bounds hold and identity recomposition is exact "
           f"({', '.join(summary)} parts)")


def test_criterion_6_monte_carlo_estimator(capsys):
    rng = random.Random(6)
    pairs = []
    while len(pairs) < 20:
        n = rng.randint(6, 12)
        original = random_circuit(rng, n, rng.randint(15, 60),
                                  rng.randint(1, 3))
        if and_count(original) == 0:
            continue
        approx = approx_sub_circuit(original, rng.randint(1, 4))
        pairs.append((original, approx.circuit))
    total = 0
    within = 0
    for original, approx in pairs:
        p = qor_exhaustive(original, approx).error
        bound = 3 * math.sqrt(p * (1 - p) / 10_000)
        for seed in range(100):
            est = qor_monte_carlo(original, approx, 10_000, seed).error
            total += 1
            if abs(est - p) <= bound:
                within += 1
    rate = within / total
    report(capsys, 6, rate >= 0.99,
           f"{within}/{total} estimates within 3 sigma "
           f"({rate:.2%}, need >= 99%)")


def test_criterion_7_end_to_end_budget(capsys):
    partition_config = PartitionConfig(initial_parts=10)
    details = []
    ok = True
    for name, build in (("add8u", add8u), ("mul7u", mul7u)):
        original = build()
        base = and_count(original)
        areas = []
        started = time.monotonic()
        for threshold in (0.05, 0.10, 0.15):
            cfg = ExplorationConfig(error_threshold=threshold, seed=0,
                                    partition=partition_config)
            res = explore(original, cfg)
            remeasured = qor_exhaustive(original, res.circuit).error
            if remeasured > threshold or res.final_area >= base:
                ok = False
            areas.append(res.final_area)
        elapsed = time.monotonic() - started
        if areas != sorted(areas, reverse=True) or elapsed > 1800:
            ok = False
        details.append(f"{name}: {base}->{areas} in {elapsed:.0f}s")
    report(capsys, 7, ok,
           "QoR within budget, area strictly reduced and monotone "
           f"({'; '.join(details)})")


def test_criterion_8_learning_flow(capsys):
    details = []
    ok = True
    for case in ("add8u_cout", "mul7u_p12"):
        code, out = run_cli(
            "learn",
            str(PLA / f"{case}_train.pla"),
            str(PLA / f"{case}_valid.pla"),
            str(PLA / f"{case}_test.pla"),
            "--depths", "2..4", "--no-timing")
        if code != 0:
            ok = False
            continue
        selected = json.loads(out)["selected"]
        test_data = parse_pla((PLA / f"{case}_test.pla").read_text())
        ones = bin(test_data.labels).count("1")
        const_acc = max(ones, test_data.num_rows - ones) / test_data.num_rows
        if not (selected["train_accuracy"] >= selected["test_accuracy"]
                >= const_acc):
            ok = False
        # the emitted AIG parses (checked through the CLI path)
        details.append(f"{case}: test {selected['test_accuracy']:.3f} "
                       f">= const {const_acc:.3f}")
    report(capsys, 8, ok, "; ".join(details))


def test_criterion_9_determinism(capsys, tmp_path):
    ok = True
    details = []

    def twice(argv, out_name=None, suffixes=("",)):
        outs, files = [], []
        for extra in ([], ["--jobs", "4"]):
            args = list(argv)
            base = None
            if out_name:
                base = tmp_path / f"{out_name}.aag"
                args += ["--out", str(base)]
            args += extra
            # each run computes from scratch, not from the first run's memos
            clear_memos()
            code, out = run_cli(*args)
            assert code in (0, 3)
            outs.append(out)
            if base is not None:
                files.append([Path(f"{base}{s}").read_text()
                              for s in suffixes])
        return outs[0] == outs[1] and (not files or files[0] == files[1])

    bench = ROOT / "benchmarks"
    # criterion 1 rerun: whole-circuit c17 sweep
    same1 = twice(["approximate", str(bench / "c17.aag"), "--whole-circuit",
                   "--depth", "1..4", "--no-timing"], out_name="c17",
                  suffixes=tuple(f".md{d}" for d in range(1, 5)))
    details.append(f"c17 sweep identical={same1}")
    # criterion 5 rerun: partition reports
    same5 = all(twice(["partition", str(bench / f"{n}.aag")])
                for n in ("add8u", "mul7u", "c432", "c499", "c880", "c1908"))
    details.append(f"partition reports identical={same5}")
    # criterion 7 rerun: exploration on both arithmetic benchmarks
    same7 = all(
        twice(["approximate", str(bench / f"{n}.aag"), "--threshold", "0.1",
               "--initial-parts", "10", "--no-timing"], out_name=n)
        for n in ("add8u", "mul7u"))
    details.append(f"exploration outputs identical={same7}")
    ok = same1 and same5 and same7
    report(capsys, 9, ok, "; ".join(details))
