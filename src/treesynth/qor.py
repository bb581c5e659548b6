"""Average relative error between an original and an approximated circuit.

The per-vector Hamming distance between output words is normalized by the
output count, so the reported error is the average bit-error rate over the
evaluated vectors and lies in [0, 1].
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .aig import Aig, AigError, simulate_words, truth_table_input_words

EXHAUSTIVE_INPUT_CAP = 20
_CHUNK_BITS = 1 << 14


@dataclass(frozen=True)
class QorReport:
    error: float
    estimator: str  # "exhaustive" | "monte_carlo"
    samples: int
    seed: int
    mismatched_bits: int
    total_bits: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _check_arity(original: Aig, approx: Aig) -> None:
    if original.num_inputs != approx.num_inputs:
        raise AigError("input arity mismatch between original and approx")
    if original.num_outputs != approx.num_outputs:
        raise AigError("output arity mismatch between original and approx")


def mismatched_bits(reference: list[int], candidate: list[int]) -> int:
    """Bits in which two lists of packed output words differ.

    The one error counter: every error rate of this module, and the
    explorer's search error, is this count over the number of bits
    compared.
    """
    return sum((wa ^ wb).bit_count() for wa, wb in zip(reference, candidate))


def _mismatches(original: Aig, approx: Aig, words: list[int],
                mask: int) -> int:
    return mismatched_bits(simulate_words(original, words, mask),
                           simulate_words(approx, words, mask))


def qor_exhaustive(original: Aig, approx: Aig) -> QorReport:
    """Exact average bit-error rate over the full input space."""
    _check_arity(original, approx)
    n = original.num_inputs
    if n > EXHAUSTIVE_INPUT_CAP:
        raise AigError(
            f"{n} inputs exceed the exhaustive cap of {EXHAUSTIVE_INPUT_CAP}")
    rows = 1 << n
    chunk = min(rows, _CHUNK_BITS)
    mask = (1 << chunk) - 1
    mismatched = 0
    for base in range(0, rows, chunk):
        words = truth_table_input_words(n, base, chunk)
        mismatched += _mismatches(original, approx, words, mask)
    total = rows * original.num_outputs
    error = mismatched / total if total else 0.0
    return QorReport(error=error, estimator="exhaustive", samples=rows,
                     seed=0, mismatched_bits=mismatched, total_bits=total)


def sample_input_words(num_inputs: int, samples: int,
                       seed: int) -> tuple[list[int], int]:
    """Packed uniform random vectors (with replacement) from a seeded PCG64."""
    rng = np.random.default_rng(seed)
    mask = (1 << samples) - 1
    words = []
    for _ in range(num_inputs):
        bits = rng.integers(0, 2, size=samples, dtype=np.uint8)
        packed = np.packbits(bits, bitorder="little").tobytes()
        words.append(int.from_bytes(packed, "little"))
    return words, mask


def qor_monte_carlo(original: Aig, approx: Aig, samples: int = 10_000,
                    seed: int = 0) -> QorReport:
    """Average bit-error rate over a seeded random testbench."""
    _check_arity(original, approx)
    if samples < 1:
        raise AigError("samples must be >= 1")
    words, mask = sample_input_words(original.num_inputs, samples, seed)
    return qor_on_words(original, approx, words, mask, samples, seed)


def qor_on_words(original: Aig, approx: Aig, words: list[int], mask: int,
                 samples: int, seed: int) -> QorReport:
    """Monte Carlo estimate over an already-packed testbench."""
    _check_arity(original, approx)
    mismatched = _mismatches(original, approx, words, mask)
    total = samples * original.num_outputs
    error = mismatched / total if total else 0.0
    return QorReport(error=error, estimator="monte_carlo", samples=samples,
                     seed=seed, mismatched_bits=mismatched, total_bits=total)
