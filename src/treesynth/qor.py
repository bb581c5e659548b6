"""Average relative error between an original and an approximated circuit.

The per-vector Hamming distance between output words is normalized by the
output count, so the reported error is the average bit-error rate over the
evaluated vectors and lies in [0, 1].
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

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


class Testbench:
    """Input vectors and the original circuit's output words on them.

    ``chunks`` are (input words, mask) pairs; the vectors are counted from
    the masks.  The original is simulated once, when the testbench is
    built.  ``report`` turns output words on each chunk into an error;
    ``measure`` simulates the circuit it is given and reports on it.
    """

    def __init__(self, original: Aig, chunks: list[tuple[list[int], int]],
                 estimator: str, seed: int):
        self.original = original
        self.chunks = chunks
        self.reference = [simulate_words(original, words, mask)
                          for words, mask in chunks]
        self.estimator = estimator
        self.samples = sum(mask.bit_count() for _, mask in chunks)
        self.seed = seed
        self.total_bits = self.samples * original.num_outputs

    def report(self, outputs_per_chunk: list[list[int]]) -> QorReport:
        """Error of a circuit whose output words on chunk ``i`` are
        ``outputs_per_chunk[i]``."""
        mismatched = sum(map(mismatched_bits, self.reference,
                             outputs_per_chunk))
        total = self.total_bits
        return QorReport(error=mismatched / total if total else 0.0,
                         estimator=self.estimator, samples=self.samples,
                         seed=self.seed, mismatched_bits=mismatched,
                         total_bits=total)

    def measure(self, approx: Aig) -> QorReport:
        """Error of ``approx`` against the original."""
        _check_arity(self.original, approx)
        return self.report([simulate_words(approx, words, mask)
                            for words, mask in self.chunks])


def exhaustive_testbench(original: Aig) -> Testbench:
    """The full input space, in aligned chunks of at most 2**14 rows."""
    n = original.num_inputs
    if n > EXHAUSTIVE_INPUT_CAP:
        raise AigError(
            f"{n} inputs exceed the exhaustive cap of {EXHAUSTIVE_INPUT_CAP}")
    rows = 1 << n
    chunk = min(rows, _CHUNK_BITS)
    mask = (1 << chunk) - 1
    chunks = [(truth_table_input_words(n, base, chunk), mask)
              for base in range(0, rows, chunk)]
    return Testbench(original, chunks, "exhaustive", 0)


def monte_carlo_testbench(original: Aig, samples: int,
                          seed: int) -> Testbench:
    """``samples`` seeded random vectors, drawn by ``sample_input_words``."""
    if samples < 1:
        raise AigError("samples must be >= 1")
    words, mask = sample_input_words(original.num_inputs, samples, seed)
    return Testbench(original, [(words, mask)], "monte_carlo", seed)


def qor_exhaustive(original: Aig, approx: Aig) -> QorReport:
    """Exact average bit-error rate over the full input space."""
    _check_arity(original, approx)
    return exhaustive_testbench(original).measure(approx)


def sample_input_words(num_inputs: int, samples: int,
                       seed: int) -> tuple[list[int], int]:
    """Packed uniform random vectors (with replacement): one
    ``getrandbits(samples)`` word per input from ``random.Random(seed)``
    (Mersenne Twister); bit ``j`` of each word is vector ``j``."""
    if seed < 0:
        raise AigError("seed must be >= 0")
    rng = random.Random(seed)
    mask = (1 << samples) - 1
    words = [rng.getrandbits(samples) for _ in range(num_inputs)]
    return words, mask


def qor_monte_carlo(original: Aig, approx: Aig, samples: int = 10_000,
                    seed: int = 0) -> QorReport:
    """Average bit-error rate over a seeded random testbench."""
    _check_arity(original, approx)
    return monte_carlo_testbench(original, samples, seed).measure(approx)


def qor_on_words(original: Aig, approx: Aig, words: list[int], mask: int,
                 seed: int) -> QorReport:
    """Monte Carlo estimate over already-packed vectors, one per set bit
    of ``mask``; ``seed`` is echoed in the report."""
    return Testbench(original, [(words, mask)], "monte_carlo",
                     seed).measure(approx)
