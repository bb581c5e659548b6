#!/usr/bin/env python3
"""Faults the test suite must catch, and a run that shows it does.

Each entry of ``MUTANTS`` names a fault: the file it is made in, an exact
``old`` text that occurs once there, the ``new`` text that replaces it,
and the test ids that must fail once it is made.  Run, from the
repository root,

    python3 scripts/mutants.py [NAME ...]

to copy the repository into a temporary directory once per mutant (all
of them, or those named), make the replacement there, run only its
tests, and print one line per mutant: ``killed`` when every listed test
failed, else ``SURVIVED`` with the tests that did not.  It exits 1 if a
mutant survived, 0 otherwise; the working tree is never touched.  The
tier-1 suite checks only that each ``old`` text still occurs exactly
once and that each named test exists (``tests/test_scripts.py``); a
change that edits a mutated region runs this script.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, each of which must fail


ODT, EXPLORE = "tests/test_odt.py::", "tests/test_explore.py::"
SCORER = (EXPLORE + "test_scorer_matches_compose_and_qor[9-4]",
          EXPLORE + "test_whole_runs_match_composing_scorer")

MUTANTS = (
    Mutant(
        "odt-depth1-no-budget-check",  # on rows
        "src/treesynth/odt.py",
        "            if limited and self.out_of_budget():\n"
        "                return best_err, best\n"
        "            labels = self.labels\n",
        "            labels = self.labels\n",
        (ODT + "test_node_limit_bounds_expansions",)),
    Mutant(
        "odt-table-depth1-no-budget-check",  # on a truth table
        "src/treesynth/odt.py",
        "            if limited and self.out_of_budget():  # as in solve\n"
        "                return best_err, best\n",
        "",
        (ODT + "test_depth_one_fit_respects_node_limit",
         ODT + "test_node_limit_bounds_expansions")),
    Mutant(
        "odt-weights-ignored",
        "src/treesynth/odt.py",
        "self.weight_of = (int.bit_count if data.weights is None",
        "self.weight_of = (int.bit_count if True",
        (ODT + "test_weighted_errors", ODT + "test_matches_bruteforce_oracle")),
    Mutant(
        "odt-values-interned-only-at-depth-1",  # on rows
        "src/treesynth/odt.py",
        "            value = memo[path] = "
        "self.values[depth].setdefault(value, value)\n",
        "            if depth == 1:\n"
        "                value = self.values[depth].setdefault(value, value)\n"
        "            memo[path] = value\n",
        (ODT + "test_values_are_shared_at_every_depth",)),
    Mutant(
        "odt-table-values-interned-only-at-depth-1",  # on a truth table
        "src/treesynth/odt.py",
        "            value = memo[table] = "
        "self.values[depth].setdefault(value, value)\n",
        "            if depth == 1:\n"
        "                value = self.values[depth].setdefault(value, value)\n"
        "            memo[table] = value\n",
        (ODT + "test_values_are_shared_at_every_depth",)),
    Mutant(
        "odt-path-key-drops-side",  # both sides of a split set one bit
        "src/treesynth/odt.py",
        "(f, column, 1 << 2 * f, 2 << 2 * f)",
        "(f, column, 1 << 2 * f, 1 << 2 * f)",
        (ODT + "test_path_memo_entries_are_the_fits_of_their_rows",
         ODT + "test_row_key_matches_bruteforce_at_every_depth")),
    Mutant(
        "fm-no-last-source-pin-update",
        "src/treesynth/partition.py",
        "                        if side[p] == src:\n"
        "                            delta[p] += 1\n",
        "                        if side[p] == src:\n"
        "                            delta[p] += 0\n",
        ("tests/test_partition.py::test_fm_matches_quadratic_oracle",
         "tests/test_partition.py::test_partition_cells_pinned")),
    Mutant(
        "below-takes-max",  # the largest realized depth
        "src/treesynth/explore.py",
        "md = min(t.realized_depth for t in sa.per_output_trees)",
        "md = max(t.realized_depth for t in sa.per_output_trees)",
        (EXPLORE + "test_below_steps_from_fitted_or_smallest_realized_depth",
         EXPLORE + "test_results_are_pinned[add8u]")),
    Mutant(
        "rollback-keeps-words",
        "src/treesynth/explore.py",
        "        del self.words[self.first_and + size:]\n",
        "",
        SCORER),
    Mutant(
        "rollback-keeps-cones",
        "src/treesynth/explore.py",
        "        del self.cones[self.first_and + size:]\n",
        "",
        SCORER),
    Mutant(
        "apply-keeps-last-state",  # strash reuses its nodes: same results
        "src/treesynth/explore.py",
        "        self._truncate(self.original_size)\n",
        "",
        (EXPLORE + "test_scorer_matches_compose_and_qor[6-14]",
         EXPLORE + "test_scorer_matches_compose_and_qor[9-4]",
         EXPLORE + "test_scorer_matches_compose_and_qor[15-15]",
         EXPLORE + "test_scorer_matches_compose_and_qor_on_benchmarks")),
    Mutant(
        "candidate-rollback-drops-state",
        "src/treesynth/explore.py",
        "self._truncate(self.state_size)",
        "self._truncate(self.original_size)",
        (EXPLORE + "test_results_are_pinned[add8u]", *SCORER)),
    Mutant(
        "mux-builds-before-equal-check",  # orphans two ANDs when high == low
        "src/treesynth/aig.py",
        "        if high == low:\n"
        "            return high\n"
        "        return self.or_(self.and_(sel, high), "
        "self.and_(lit_not(sel), low))\n",
        "        a, b = self.and_(sel, high), self.and_(lit_not(sel), low)\n"
        "        if high == low:\n"
        "            return high\n"
        "        return self.or_(a, b)\n",
        ("tests/test_synth.py::test_lowering_builds_no_dead_node",
         EXPLORE + "test_stream_depths_monotone")),
)


def failed_tests(mutant: Mutant) -> set[str]:
    """The ids of ``mutant.tests`` that fail on a copy of the repository
    with the mutant made."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: old text does not occur "
                             f"exactly once in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--tb=no", "-rfE", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    failed = set()
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ", 1)[0])
    return failed


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        passed = [t for t in mutant.tests if t not in failed_tests(mutant)]
        if passed:
            survived += 1
            print(f"SURVIVED  {mutant.name}: {', '.join(passed)} "
                  "did not fail")
        else:
            print(f"killed    {mutant.name}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
