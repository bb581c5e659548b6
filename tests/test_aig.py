"""Core AIG representation, builder, and bit-parallel simulation."""

import itertools

import pytest

from treesynth.aig import (Aig, AigBuilder, AigError, and_count, cleanup,
                           extend_words, lit, lit_node, lit_not,
                           literal_words, reachable_nodes, simulate,
                           simulate_words, truth_table_input_words)

from conftest import random_circuit


def naive_eval(circuit: Aig, vector) -> tuple:
    """Reference evaluator: one gate at a time, one vector at a time."""
    values = [False] + [bool(b) for b in vector]
    for a, b in circuit.ands:
        va = values[lit_node(a)] ^ bool(a & 1)
        vb = values[lit_node(b)] ^ bool(b & 1)
        values.append(va and vb)
    return tuple(int(values[lit_node(o)] ^ bool(o & 1))
                 for o in circuit.outputs)


def test_literal_encoding():
    assert lit(3) == 6
    assert lit(3, negated=True) == 7
    assert lit_node(7) == 3
    assert lit_not(6) == 7
    assert lit_not(7) == 6


def test_topological_validation():
    with pytest.raises(AigError):
        Aig(num_inputs=1, ands=((4, 2),), outputs=(4,))  # fanin of itself
    with pytest.raises(AigError):
        Aig(num_inputs=1, ands=(), outputs=(8,))  # undefined node
    with pytest.raises(AigError):
        Aig(num_inputs=1, ands=((-2, 2),), outputs=(4,))  # negative fanin
    with pytest.raises(AigError):
        Aig(num_inputs=1, ands=(), outputs=(-1,))  # negative output
    with pytest.raises(AigError):
        Aig(num_inputs=-1, ands=(), outputs=())


def test_builder_constant_folding():
    b = AigBuilder(2)
    x, y = b.input_lit(0), b.input_lit(1)
    assert b.and_(x, 0) == 0
    assert b.and_(x, 1) == x
    assert b.and_(x, x) == x
    assert b.and_(x, lit_not(x)) == 0
    assert b.mux(x, y, y) == y
    assert b.mux(1, x, y) == x
    assert b.mux(x, 1, 0) == x
    assert b.mux(x, 0, 1) == lit_not(x)
    assert not b.ands


def test_builder_structural_hashing():
    b = AigBuilder(2)
    x, y = b.input_lit(0), b.input_lit(1)
    g1 = b.and_(x, y)
    g2 = b.and_(y, x)  # commuted operands hash to the same node
    assert g1 == g2
    assert len(b.ands) == 1


def test_builder_rollback_forgets_later_nodes():
    b = AigBuilder(3)
    x, y, z = (b.input_lit(i) for i in range(3))
    g = b.and_(x, y)
    ands, strash_table = list(b.ands), dict(b._strash)
    h = b.and_(g, z)
    b.and_(h, lit_not(x))
    b.rollback(1)
    assert b.ands == ands and b._strash == strash_table
    assert b.and_(x, y) == g  # kept
    assert b.and_(g, z) == h  # forgotten, built again as the next node
    assert len(b.ands) == 2


def test_builder_inline_is_simulation_equivalent(rng):
    for _ in range(10):
        c = random_circuit(rng, 4, 20, 3)
        b = AigBuilder(4)
        for o in b.inline(c, [b.input_lit(i) for i in range(4)]):
            b.add_output(o)
        inlined = b.build()
        assert len(reachable_nodes(inlined)) == and_count(c)
        words = truth_table_input_words(4)
        assert simulate_words(inlined, words, 0xFFFF) == \
            simulate_words(c, words, 0xFFFF)


def test_extend_words_simulates_only_new_nodes(rng):
    c = random_circuit(rng, 5, 30, 3)
    words, mask = truth_table_input_words(5), (1 << 32) - 1
    values = [0] + words
    extend_words(values, c.ands[:10], 6, mask)
    assert len(values) == 16
    extend_words(values, c.ands, 6, mask)
    assert len(values) == 1 + c.num_inputs + len(c.ands)
    assert literal_words(values, c.outputs, mask) == \
        simulate_words(c, words, mask)


def test_simulate_xor():
    b = AigBuilder(2)
    b.add_output(b.xor_(b.input_lit(0), b.input_lit(1)))
    c = b.build()
    vectors = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert simulate(c, vectors) == [(0,), (1,), (1,), (0,)]


def test_simulate_words_matches_naive(rng):
    for _ in range(30):
        c = random_circuit(rng, rng.randint(1, 6), rng.randint(0, 25),
                           rng.randint(1, 4))
        vectors = [tuple(rng.randint(0, 1) for _ in range(c.num_inputs))
                   for _ in range(64)]
        assert simulate(c, vectors) == [naive_eval(c, v) for v in vectors]


def test_truth_table_words_full_range():
    words = truth_table_input_words(3)
    # input i toggles with period 2^i over row index
    for r in range(8):
        bits = tuple((w >> r) & 1 for w in words)
        assert bits == ((r >> 0) & 1, (r >> 1) & 1, (r >> 2) & 1)


def test_truth_table_words_chunked():
    full = truth_table_input_words(5)
    for base in range(0, 32, 8):
        chunk = truth_table_input_words(5, base=base, count=8)
        for i in range(5):
            assert chunk[i] == (full[i] >> base) & 0xFF
    # every aligned chunk against a row-by-row reference
    for n in range(13):
        count = 1
        while count <= 1 << n:
            for base in range(0, 1 << n, count):
                expected = [sum((((base + r) >> i) & 1) << r
                                for r in range(count)) for i in range(n)]
                assert truth_table_input_words(n, base, count) == expected
            count *= 2


def test_truth_table_words_alignment_checked():
    with pytest.raises(AigError):
        truth_table_input_words(4, base=3, count=4)
    with pytest.raises(AigError):
        truth_table_input_words(4, base=0, count=6)


def test_cleanup_drops_dead_logic():
    b = AigBuilder(2)
    x, y = b.input_lit(0), b.input_lit(1)
    live = b.and_(x, y)
    b.and_(lit_not(x), y)  # dead
    b.add_output(live)
    c = b.build()
    assert len(c.ands) == 2
    cleaned = cleanup(c)
    assert len(cleaned.ands) == 1
    assert and_count(c) == and_count(cleaned) == 1


def test_cleanup_is_idempotent(rng):
    # folding n6 = n5 & !n5 to a constant orphans n5; one reachable pass
    # kept it, so cleaning the result again renumbered its nodes
    orphaning = Aig(num_inputs=4,
                    ands=((2, 4), (10, 11), (6, 8), (13, 14), (14, 2), (18, 5)),
                    outputs=(16, 20, 14))
    circuits = [orphaning] + [random_circuit(rng, 4, 20, 3)
                              for _ in range(50)]
    for c in circuits:
        cleaned = cleanup(c)
        assert and_count(cleaned) == len(cleaned.ands)
        assert cleanup(cleaned) == cleaned
        vectors = list(itertools.product((0, 1), repeat=c.num_inputs))
        assert simulate(cleaned, vectors) == simulate(c, vectors)
    assert len(cleanup(orphaning).ands) == 3


def test_strash_preserves_function(rng):
    for _ in range(20):
        c = random_circuit(rng, 4, 20, 3)
        cleaned = cleanup(c)
        for vec in itertools.product((0, 1), repeat=4):
            assert naive_eval(cleaned, vec) == naive_eval(c, vec)


def test_simulate_words_wrong_arity():
    c = Aig(num_inputs=2, ands=(), outputs=(2,))
    with pytest.raises(AigError):
        simulate_words(c, [0], 1)
