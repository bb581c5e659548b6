"""The committed benchmark inputs are exactly what their generators write,
and the CLI's outputs on them have the committed digests."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_committed(directory: Path, files: dict[str, str]) -> None:
    assert set(files) == {p.name for p in directory.iterdir() if p.is_file()}
    for name, text in files.items():
        assert (directory / name).read_text() == text, name


def test_benchmark_netlists_match_generator():
    assert_committed(ROOT / "benchmarks",
                     load_script("make_benchmarks").benchmark_files())


def test_pla_cases_match_generator():
    assert_committed(ROOT / "benchmarks" / "pla",
                     load_script("make_pla_cases").case_files())


def test_cli_outputs_match_committed_digests():
    # every output of the fixed CLI runs is pinned; a change that alters
    # one by design regenerates the file with
    #     PYTHONPATH=src python3 scripts/output_digests.py
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py")],
        capture_output=True, text=True, env=env, check=True)
    expected = (ROOT / "tests" / "output_digests.txt").read_text()
    assert run.stdout.splitlines() == expected.splitlines()


def test_mutants_match_the_code():
    # the full kill run is ``python3 scripts/mutants.py``; here each
    # mutant's text must still occur once and its tests must still exist
    mutants = load_script("mutants").MUTANTS
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.tests, m.name
        for test_id in m.tests:
            path, name = test_id.split("::")
            name = name.split("[")[0]
            assert f"\ndef {name}(" in (ROOT / path).read_text(), test_id
