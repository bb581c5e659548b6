import random

import pytest

from treesynth.aig import Aig, AigBuilder
from treesynth.odt import _fit


def clear_memos() -> None:
    """Empty the per-process fit memo, the only cache kept across calls
    whose hits change how much work a call does."""
    _fit.cache_clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    # every test computes from scratch, whatever an earlier test cached
    clear_memos()


def random_circuit(rng: random.Random, num_inputs: int,
                   num_ands: int, num_outputs: int) -> Aig:
    """Random structurally valid AIG; useful as a fuzz subject."""
    builder = AigBuilder(num_inputs)
    literals = [builder.input_lit(i) for i in range(num_inputs)]
    literals.append(0)  # constant false
    for _ in range(num_ands):
        a = rng.choice(literals) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(builder.and_(a, b))
    for _ in range(num_outputs):
        builder.add_output(rng.choice(literals) ^ rng.randint(0, 1))
    return builder.build()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
