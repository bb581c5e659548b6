"""The committed benchmark inputs are exactly what their generators write."""

import importlib.util
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
