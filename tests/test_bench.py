"""The committed benchmark circuits checked against independent references."""

import itertools
import random

from treesynth.aig import and_count

from reference import (BENCHMARKS, add8u, c17, c17_nand_reference,
                       c432_profile, c432_profile_reference, mul7u,
                       simulate)


def test_c17_shape():
    c = c17()
    assert c.num_inputs == 5
    assert c.num_outputs == 2
    assert and_count(c) == 6  # the classic 6-NAND netlist


def test_c17_against_nand_reference():
    c = c17()
    for vec in itertools.product((0, 1), repeat=5):
        assert simulate(c, [vec])[0] == c17_nand_reference(vec)


def test_add8u_is_an_adder():
    c = add8u()
    assert c.num_inputs == 16
    assert c.num_outputs == 9
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.randrange(256), rng.randrange(256)
        vec = tuple((a >> i) & 1 for i in range(8)) + \
            tuple((b >> i) & 1 for i in range(8))
        out = simulate(c, [vec])[0]
        assert sum(bit << i for i, bit in enumerate(out)) == a + b


def test_mul7u_is_a_multiplier():
    c = mul7u()
    assert c.num_inputs == 14
    assert c.num_outputs == 14
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randrange(128), rng.randrange(128)
        vec = tuple((a >> i) & 1 for i in range(7)) + \
            tuple((b >> i) & 1 for i in range(7))
        out = simulate(c, [vec])[0]
        assert sum(bit << i for i, bit in enumerate(out)) == a * b


def test_c432_profile_reference():
    c = c432_profile()
    assert c.num_inputs == 36
    assert c.num_outputs == 7
    rng = random.Random(7)
    for _ in range(200):
        vec = tuple(rng.randint(0, 1) for _ in range(36))
        assert simulate(c, [vec])[0] == c432_profile_reference(vec)


def test_published_interfaces():
    widths = {
        "c432": (36, 7),
        "c499": (41, 32),
        "c880": (60, 26),
        "c1908": (33, 25),
    }
    for name, (n_in, n_out) in widths.items():
        c = BENCHMARKS[name]()
        assert (c.num_inputs, c.num_outputs) == (n_in, n_out), name


def test_all_benchmarks_have_names():
    for name, build in BENCHMARKS.items():
        c = build()
        assert c.input_names and len(c.input_names) == c.num_inputs, name
        assert c.output_names and len(c.output_names) == c.num_outputs, name
