#!/usr/bin/env python3
"""Regenerate the PLA train/validation/test cases under benchmarks/pla/.

Each case samples labelled vectors from one output of a built-in circuit,
mimicking the learn-a-logic-function-from-examples flow.
"""

from pathlib import Path
import sys

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treesynth.aig import pack_vectors, simulate_words
from treesynth.bench import add8u, mul7u
from treesynth.dataset import Dataset, write_pla

SPLITS = {"train": 640, "valid": 320, "test": 320}

# case name -> (circuit generator, output index, seed)
CASES = {
    # high product bit of the multiplier: skewed but clearly learnable
    "mul7u_p12": (mul7u, 12, 101),
    # carry-out of the adder: learnable reasonably well at small depth
    "add8u_cout": (add8u, 8, 202),
}


def sample_case(circuit, output_index: int, seed: int):
    rng = np.random.default_rng(seed)
    out = {}
    for split, count in SPLITS.items():
        vectors = [tuple(int(b) for b in rng.integers(0, 2, circuit.num_inputs))
                   for _ in range(count)]
        features = pack_vectors(vectors, circuit.num_inputs)
        labels = simulate_words(circuit, features,
                                (1 << count) - 1)[output_index]
        out[split] = Dataset(num_rows=count, features=tuple(features),
                             labels=labels)
    return out


def case_files() -> dict[str, str]:
    """File name under benchmarks/pla/ -> PLA text, for every case."""
    return {f"{name}_{split}.pla": write_pla(data)
            for name, (build, output_index, seed) in CASES.items()
            for split, data in sample_case(build(), output_index,
                                           seed).items()}


def main() -> None:
    out_dir = Path(__file__).resolve().parents[1] / "benchmarks" / "pla"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in case_files().items():
        path = out_dir / name
        path.write_text(text)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
