"""Error measurement between original and approximated circuits."""

import hashlib
import json
import math

import pytest

from treesynth.aig import (Aig, AigBuilder, AigError, lit_not, simulate_words,
                           truth_table_input_words)
from treesynth import qor
from treesynth.bench import c17
from treesynth.qor import (EXHAUSTIVE_INPUT_CAP, mismatched_bits,
                           monte_carlo_testbench, qor_exhaustive,
                           qor_monte_carlo, qor_on_words, sample_input_words)

from conftest import random_circuit


def wire(n: int, index: int = 0) -> Aig:
    return Aig(num_inputs=n, ands=(), outputs=(2 * (1 + index),))


def test_identical_circuits_have_zero_error(rng):
    c = random_circuit(rng, 5, 20, 3)
    r = qor_exhaustive(c, c)
    assert r.error == 0.0
    assert r.mismatched_bits == 0
    assert r.estimator == "exhaustive"
    assert r.samples == 32
    # a circuit without outputs compares no bit
    none = Aig(num_inputs=2, ands=(), outputs=())
    for r in (qor_exhaustive(none, none), qor_monte_carlo(none, none, 100)):
        assert (r.total_bits, r.error) == (0, 0.0)


def test_complemented_output_is_total_error():
    c = wire(2)
    flipped = Aig(num_inputs=2, ands=(), outputs=(lit_not(c.outputs[0]),))
    assert qor_exhaustive(c, flipped).error == 1.0


def test_half_error_single_output():
    # constant 0 disagrees with a wire on exactly half the input space
    c = wire(3)
    const0 = Aig(num_inputs=3, ands=(), outputs=(0,))
    r = qor_exhaustive(c, const0)
    assert r.error == 0.5
    assert r.mismatched_bits == 4
    assert r.total_bits == 8


def test_per_bit_normalization():
    # one wrong output out of two -> half the bit-error of the all-wrong case
    good = Aig(num_inputs=2, ands=(), outputs=(2, 4))
    one_bad = Aig(num_inputs=2, ands=(), outputs=(2, 5))
    assert qor_exhaustive(good, one_bad).error == 0.5


def test_exhaustive_matches_manual_count(rng):
    for _ in range(10):
        n = rng.randint(2, 5)
        a = random_circuit(rng, n, 15, 2)
        b = random_circuit(rng, n, 15, 2)
        from treesynth.aig import simulate
        import itertools
        vecs = list(itertools.product((0, 1), repeat=n))
        mism = sum(x != y for ra, rb in zip(simulate(a, vecs),
                                            simulate(b, vecs))
                   for x, y in zip(ra, rb))
        r = qor_exhaustive(a, b)
        assert r.mismatched_bits == mism
        assert r.error == mism / (len(vecs) * 2)


def test_mismatched_bits_is_the_reported_count(rng):
    assert mismatched_bits([0b1010, 0b1], [0b0110, 0b1]) == 2
    assert mismatched_bits([], []) == 0
    a = random_circuit(rng, 5, 20, 3)
    b = random_circuit(rng, 5, 20, 3)
    words, mask = truth_table_input_words(5), (1 << 32) - 1
    assert qor_exhaustive(a, b).mismatched_bits == mismatched_bits(
        simulate_words(a, words, mask), simulate_words(b, words, mask))


def test_exhaustive_chunking_consistent(rng):
    # 15 inputs crosses the internal chunk size of 2^14 rows
    b = AigBuilder(15)
    acc = b.input_lit(0)
    for i in range(1, 15):
        acc = b.xor_(acc, b.input_lit(i))
    b.add_output(acc)
    c = b.build()
    const0 = Aig(num_inputs=15, ands=(), outputs=(0,))
    assert qor_exhaustive(c, const0).error == 0.5


def test_exhaustive_input_cap():
    c = wire(EXHAUSTIVE_INPUT_CAP + 1)
    with pytest.raises(AigError):
        qor_exhaustive(c, c)


def test_arity_checked():
    with pytest.raises(AigError):
        qor_exhaustive(wire(2), wire(3))


def test_monte_carlo_seeded_and_deterministic(rng):
    a = random_circuit(rng, 8, 30, 2)
    b = random_circuit(rng, 8, 30, 2)
    r1 = qor_monte_carlo(a, b, samples=2000, seed=5)
    r2 = qor_monte_carlo(a, b, samples=2000, seed=5)
    r3 = qor_monte_carlo(a, b, samples=2000, seed=6)
    assert r1 == r2
    assert r1.seed == 5 and r1.estimator == "monte_carlo"
    assert r1 != r3  # different testbench, almost surely different count


def test_monte_carlo_tracks_exhaustive(rng):
    """Estimates land within 3 sigma of the exact value (spot check)."""
    for _ in range(10):
        a = random_circuit(rng, 6, 25, 2)
        b = random_circuit(rng, 6, 25, 2)
        exact = qor_exhaustive(a, b).error
        est = qor_monte_carlo(a, b, samples=4000, seed=1).error
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / (4000 * 2))
        assert abs(est - exact) <= max(3 * sigma, 0.02)


def test_sample_words_shape():
    words, mask = sample_input_words(4, 100, 0)
    assert len(words) == 4
    assert mask == (1 << 100) - 1
    assert all(w & ~mask == 0 for w in words)
    # the stream is pinned: a change to it must edit this digest
    words, _ = sample_input_words(5, 1000, 7)
    packed = b"".join(w.to_bytes(125, "little") for w in words)
    assert hashlib.sha256(packed).hexdigest() == (
        "ffe15ca938c371f6b952058865649c3f0bad0c84011a8305434609b07044908f")
    assert sample_input_words(5, 1000, 8)[0] != words


def test_negative_seed_is_aig_error():
    c = wire(3)
    with pytest.raises(AigError, match="seed"):
        qor_monte_carlo(c, c, 100, -1)
    with pytest.raises(AigError, match="seed"):
        monte_carlo_testbench(c, 100, -1)


def test_on_words_sample_count_must_match_mask():
    # 100 vectors reported as 5 gave an error rate of 10.2; the count
    # now comes from the mask
    c = c17()
    approx = Aig(num_inputs=5, ands=(), outputs=(1, 0))
    words, mask = sample_input_words(5, 100, 0)
    r = qor_on_words(c, approx, words, mask, seed=0)
    assert (r.samples, r.total_bits) == (100, 200)
    assert 0.0 <= r.error <= 1.0
    assert r == qor_monte_carlo(c, approx, samples=100, seed=0)


def test_testbench_counts_vectors_from_masks(rng):
    c = random_circuit(rng, 6, 25, 2)
    b = random_circuit(rng, 6, 25, 2)
    chunks = [(truth_table_input_words(6, base, 16), (1 << 16) - 1)
              for base in range(0, 64, 16)]
    bench = qor.Testbench(c, chunks, "exhaustive", 0)
    assert (bench.samples, bench.total_bits) == (64, 128)
    assert bench.measure(b) == qor_exhaustive(c, b)
    assert bench.report([simulate_words(b, words, mask)
                         for words, mask in chunks]) == bench.measure(b)
    assert bench.measure(c).mismatched_bits == 0


def test_report_json_roundtrip(rng):
    c = random_circuit(rng, 4, 10, 1)
    r = qor_exhaustive(c, c)
    data = json.loads(r.to_json())
    assert data["error"] == 0.0
    assert data["estimator"] == "exhaustive"
