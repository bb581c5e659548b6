"""Average relative error between an original and an approximated circuit.

The per-vector Hamming distance between output words is normalized by the
output count, so the reported error is the average bit-error rate over the
evaluated vectors and lies in [0, 1].

``reporting_testbench`` picks the estimator of every error the tool
reports, the explorer's final one and ``eval``'s: exact up to
``EXHAUSTIVE_INPUT_CAP`` inputs, seeded Monte Carlo beyond.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

from .aig import (Aig, AigError, check_int, simulate_words,
                  truth_table_input_words)

EXHAUSTIVE_INPUT_CAP = 20
_SLICE_BITS = 1 << 14
_SLICE_MASK = (1 << _SLICE_BITS) - 1


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


def mismatched_bits(reference: list[int], candidate: list[int]) -> int:
    """Bits in which two lists of packed output words differ.

    The one error counter: every error rate of this module, and the
    explorer's search error, is this count over the number of bits
    compared; each accuracy ``learn`` reports is one minus such a rate.
    """
    return sum((wa ^ wb).bit_count() for wa, wb in zip(reference, candidate))


def _simulate(circuit: Aig, words: list[int], mask: int) -> list[int]:
    """``simulate_words`` in slices of at most 2**14 vectors, whose output
    words are ORed back together, so only one slice's word per node is
    held at a time."""
    outputs = [0] * circuit.num_outputs
    for base in range(0, mask.bit_length(), _SLICE_BITS):
        part = (mask >> base) & _SLICE_MASK
        sliced = simulate_words(circuit, [(w >> base) & part for w in words],
                                part)
        outputs = [o | w << base for o, w in zip(outputs, sliced)]
    return outputs


class Testbench:
    """Input vectors and the original circuit's output words on them.

    ``words`` holds one packed word per input and ``mask`` one set bit per
    vector.  The original is simulated once, when the testbench is built.
    ``report`` turns a circuit's output words into an error; ``measure``
    simulates the circuit it is given and reports on it.
    """

    def __init__(self, original: Aig, words: list[int], mask: int,
                 estimator: str, seed: int):
        self.original = original
        self.words = words
        self.mask = mask
        self.reference = _simulate(original, words, mask)
        self.estimator = estimator
        self.samples = mask.bit_count()
        self.seed = seed
        self.total_bits = self.samples * original.num_outputs

    def report(self, outputs: list[int]) -> QorReport:
        """Error of a circuit whose output words are ``outputs``."""
        mismatched = mismatched_bits(self.reference, outputs)
        return QorReport(error=self.error_rate(mismatched),
                         estimator=self.estimator, samples=self.samples,
                         seed=self.seed, mismatched_bits=mismatched,
                         total_bits=self.total_bits)

    def error_rate(self, mismatched: int) -> float:
        """``mismatched`` bits over all the bits compared; 0.0 when there
        are none."""
        total = self.total_bits
        return mismatched / total if total else 0.0

    def measure(self, approx: Aig) -> QorReport:
        """Error of ``approx`` against the original."""
        if self.original.num_inputs != approx.num_inputs:
            raise AigError("input arity mismatch between original and approx")
        if self.original.num_outputs != approx.num_outputs:
            raise AigError("output arity mismatch between original and approx")
        return self.report(_simulate(approx, self.words, self.mask))


def exhaustive_testbench(original: Aig) -> Testbench:
    """The full input space: row ``r`` assigns bit ``i`` of ``r`` to
    input ``i``."""
    n = original.num_inputs
    if n > EXHAUSTIVE_INPUT_CAP:
        raise AigError(
            f"{n} inputs exceed the exhaustive cap of {EXHAUSTIVE_INPUT_CAP}")
    return Testbench(original, truth_table_input_words(n),
                     (1 << (1 << n)) - 1, "exhaustive", 0)


def monte_carlo_testbench(original: Aig, samples: int,
                          seed: int) -> Testbench:
    """``samples`` seeded random vectors, drawn by ``sample_input_words``."""
    words, mask = sample_input_words(original.num_inputs, samples, seed)
    return Testbench(original, words, mask, "monte_carlo", seed)


def reporting_testbench(original: Aig, samples: int,
                        seed: int) -> Testbench:
    """The testbench an error is reported on: ``exhaustive_testbench`` up
    to ``EXHAUSTIVE_INPUT_CAP`` inputs, else ``samples`` vectors drawn
    with ``seed``.  ``samples`` and ``seed`` go through the draw's check
    whichever it picks."""
    _check_draw(samples, seed)
    if original.num_inputs <= EXHAUSTIVE_INPUT_CAP:
        return exhaustive_testbench(original)
    return monte_carlo_testbench(original, samples, seed)


def qor_exhaustive(original: Aig, approx: Aig) -> QorReport:
    """Exact average bit-error rate over the full input space."""
    return exhaustive_testbench(original).measure(approx)


def sample_input_words(num_inputs: int, samples: int,
                       seed: int) -> tuple[list[int], int]:
    """Packed uniform random vectors (with replacement): one
    ``getrandbits(samples)`` word per input from ``random.Random(seed)``
    (Mersenne Twister); bit ``j`` of each word is vector ``j``."""
    _check_draw(samples, seed)
    rng = random.Random(seed)
    mask = (1 << samples) - 1
    words = [rng.getrandbits(samples) for _ in range(num_inputs)]
    return words, mask


def _check_draw(samples: int, seed: int) -> None:
    """The one check of a Monte-Carlo draw's ``samples`` and ``seed``."""
    check_int("samples", samples, 1)
    check_int("seed", seed, 0)


def qor_monte_carlo(original: Aig, approx: Aig, samples: int = 10_000,
                    seed: int = 0) -> QorReport:
    """Average bit-error rate over a seeded random testbench."""
    return monte_carlo_testbench(original, samples, seed).measure(approx)


def qor_on_words(original: Aig, approx: Aig, words: list[int], mask: int,
                 seed: int) -> QorReport:
    """Monte Carlo estimate over already-packed vectors, one per set bit
    of ``mask``; ``seed`` is echoed in the report."""
    return Testbench(original, words, mask, "monte_carlo",
                     seed).measure(approx)
