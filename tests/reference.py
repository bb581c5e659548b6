"""Test helpers: the committed benchmark circuits and independent oracles.

``BENCHMARKS`` maps each benchmark name, in the order of the generators in
``scripts/circuits.py``, to a function returning ``benchmarks/<name>.aag``
as parsed; each file is parsed once, since an ``Aig`` is immutable;
``xor4`` builds the XOR of four inputs, which no depth-1 tree fits.  The
oracles check the tool against code that shares none of its tricks: the
gate-level references of c17 and c432, a naive tree enumerator and a
leaf-merging pass.  ``simulate`` is a convenience over ``simulate_words``
for the tests: one tuple of bits per vector in, one per vector out.
"""

import functools
from pathlib import Path

from treesynth.aig import Aig, AigBuilder, simulate_words
from treesynth.aiger import parse_aiger
from treesynth.dataset import Dataset
from treesynth.odt import DecisionTree, Node, OdtError, SearchBudget

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@functools.cache
def load_benchmark(name: str) -> Aig:
    return parse_aiger((BENCH / f"{name}.aag").read_text())


BENCHMARKS = {name: functools.partial(load_benchmark, name) for name in
              ("c17", "add8u", "mul7u", "c432", "c499", "c880", "c1908")}
c17 = BENCHMARKS["c17"]
add8u = BENCHMARKS["add8u"]
mul7u = BENCHMARKS["mul7u"]
c432_profile = BENCHMARKS["c432"]


def xor4() -> Aig:
    b = AigBuilder(4)
    x = b.input_lit(0)
    for i in range(1, 4):
        x = b.xor_(x, b.input_lit(i))
    b.add_output(x)
    return b.build()


def pack_vectors(vectors: list[tuple[int, ...]], num_inputs: int) -> list[int]:
    """Pack per-vector bit tuples into one word per input (bit r = vector r)."""
    words = [0] * num_inputs
    for r, vec in enumerate(vectors):
        if len(vec) != num_inputs:
            raise ValueError(
                f"vector {r} has {len(vec)} bits, expected {num_inputs}")
        for i, bit in enumerate(vec):
            if bit:
                words[i] |= 1 << r
    return words


def simulate(circuit: Aig, vectors: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Per-vector exact simulation; vectors are tuples of 0/1 bits."""
    n = len(vectors)
    words = pack_vectors(vectors, circuit.num_inputs)
    out_words = simulate_words(circuit, words, (1 << n) - 1)
    return [tuple((w >> r) & 1 for w in out_words) for r in range(n)]


def c17_nand_reference(vector: tuple[int, ...]) -> tuple[int, int]:
    """Independent gate-by-gate NAND evaluation of the C17 schematic."""
    x1, x2, x3, x6, x7 = vector

    def nand(a, b):
        return 1 - (a & b)

    g10 = nand(x1, x3)
    g11 = nand(x3, x6)
    g16 = nand(x2, g11)
    g19 = nand(g11, x7)
    return nand(g10, g16), nand(g16, g19)


def c432_profile_reference(vector: tuple[int, ...]) -> tuple[int, ...]:
    req = vector[:27]
    en = vector[27:36]
    active = [[req[9 * bank + ch] & en[ch] for ch in range(9)]
              for bank in range(3)]
    any_bank = [int(any(a)) for a in active]
    grant = [any_bank[0],
             any_bank[1] & (1 - any_bank[0]),
             any_bank[2] & (1 - any_bank[0]) & (1 - any_bank[1])]
    chan = 0
    for ch in range(9):
        if any(grant[bank] and active[bank][ch] for bank in range(3)):
            chan = ch
            break
    return tuple(grant) + tuple((chan >> k) & 1 for k in range(4))


def collapse(node: Node) -> Node:
    """Merge equal sibling leaves bottom-up (fitted trees have none)."""
    if isinstance(node, int):
        return node
    f, low, high = node
    low, high = collapse(low), collapse(high)
    if isinstance(low, int) and low == high:
        return low
    return (f, low, high)


def fit_bruteforce(data: Dataset, budget: SearchBudget) -> DecisionTree:
    """Exhaustive reference learner (no memoization, no bounding, no bitsets)."""
    if data.num_features > 10 or budget.max_depth > 3:
        raise OdtError("brute-force guard: <=10 features and depth <=3 only")
    if data.num_rows < 1:
        raise OdtError("cannot fit a tree on an empty dataset")
    rows = [(bits, label, data.weights[r] if data.weights else 1)
            for r, (bits, label) in enumerate(data.rows())]

    def best_tree(subset, depth):
        ones = sum(w for _, label, w in subset if label == 1)
        zeros = sum(w for _, label, w in subset if label == 0)
        if ones > zeros:
            err, node = zeros, 1
        else:
            err, node = ones, 0
        if depth == 0 or err == 0:
            return err, node
        for f in range(data.num_features):
            low = [row for row in subset if row[0][f] == 0]
            high = [row for row in subset if row[0][f] == 1]
            if not low or not high:
                continue
            err0, t0 = best_tree(low, depth - 1)
            err1, t1 = best_tree(high, depth - 1)
            if err0 + err1 < err:
                err, node = err0 + err1, (f, t0, t1)
        return err, node

    err, root = best_tree(rows, budget.max_depth)
    return DecisionTree(root=root, train_error=err)
