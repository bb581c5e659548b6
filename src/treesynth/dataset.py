"""Binary datasets for tree learning: truth-table extraction and PLA files.

Columns are stored as arbitrary-precision integer bitsets, one bit per
row, which keeps truth-table extraction, simulation, and error counting
on the same bit-parallel representation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aig import Aig, simulate_words, truth_table_input_words
from .qor import EXHAUSTIVE_INPUT_CAP

MAX_TABLE_INPUTS = 14


class DatasetError(Exception):
    """Malformed dataset or PLA input."""


@dataclass(frozen=True)
class Dataset:
    """Rows of binary features with one binary label each.

    Derived values: ``num_features`` is ``len(features)``, and
    ``row_mask`` has one set bit per row.
    """

    num_rows: int
    features: tuple[int, ...]  # one row-bitset per feature
    labels: int                # row-bitset of the single label column
    weights: tuple[int, ...] | None = None  # positive per-row multiplicities

    def __post_init__(self):
        if self.num_rows < 0:
            raise DatasetError("num_rows must be >= 0")
        mask = self.row_mask
        if self.labels & ~mask or any(f & ~mask for f in self.features):
            raise DatasetError("column has bits beyond num_rows")
        if self.weights is not None:
            if len(self.weights) != self.num_rows:
                raise DatasetError("weight count mismatch")
            if any(w <= 0 for w in self.weights):
                raise DatasetError("row weights must be positive")

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def row_mask(self) -> int:
        return (1 << self.num_rows) - 1

    def row(self, r: int) -> tuple[int, ...]:
        return tuple((f >> r) & 1 for f in self.features)

    def label(self, r: int) -> int:
        return (self.labels >> r) & 1

    def rows(self):
        for r in range(self.num_rows):
            yield self.row(r), self.label(r)


def truth_tables(circuit: Aig,
                 max_table_inputs: int = MAX_TABLE_INPUTS) -> list[Dataset]:
    """One exhaustive dataset per output, sharing a single simulation pass;
    at most ``max_table_inputs`` and never over ``EXHAUSTIVE_INPUT_CAP``."""
    n = circuit.num_inputs
    cap = min(max_table_inputs, EXHAUSTIVE_INPUT_CAP)
    if n > cap:
        raise DatasetError(
            f"{n} inputs exceed the truth-table cap of {cap}; "
            "partition the circuit first")
    rows = 1 << n
    words = truth_table_input_words(n)
    outs = simulate_words(circuit, words, (1 << rows) - 1)
    return [Dataset(num_rows=rows, features=tuple(words), labels=o)
            for o in outs]


@dataclass(frozen=True)
class PlaTriple:
    train: Dataset
    validation: Dataset
    test: Dataset

    def __post_init__(self):
        if not (self.train.num_features == self.validation.num_features
                == self.test.num_features):
            raise DatasetError("PLA train/validation/test feature widths differ")


def _header_count(tokens: list[str]) -> int:
    """The single non-negative integer argument of a ``.i``/``.o`` line."""
    if len(tokens) == 2 and tokens[1].isascii() and tokens[1].isdigit():
        return int(tokens[1])
    raise DatasetError(f"bad PLA header line: {' '.join(tokens)!r}")


def parse_pla(text: str) -> Dataset:
    num_in = None
    num_out = None
    rows: list[tuple[str, str]] = []
    ended = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ended:
            continue
        if line.startswith("."):
            tokens = line.split()
            if tokens[0] == ".i":
                num_in = _header_count(tokens)
            elif tokens[0] == ".o":
                num_out = _header_count(tokens)
                if num_out != 1:
                    raise DatasetError("only single-output PLA is supported")
            elif tokens[0] == ".p":
                pass  # row count is redundant; rows are counted directly
            elif tokens[0] == ".e":
                ended = True
            elif tokens[0] in (".ilb", ".ob", ".type"):
                pass
            else:
                raise DatasetError(f"unsupported PLA directive: {tokens[0]}")
            continue
        fields = line.split()
        if len(fields) != 2:
            raise DatasetError(f"bad PLA row: {line!r}")
        rows.append((fields[0], fields[1]))

    if num_in is None or num_out is None:
        raise DatasetError("PLA header must declare .i and .o")
    if not rows:
        raise DatasetError("PLA has no rows")
    # widths first, so a bogus .i cannot size the columns
    for in_bits, out_bit in rows:
        if len(in_bits) != num_in or len(out_bit) != 1:
            raise DatasetError(f"PLA row width mismatch: {in_bits} {out_bit}")
    features = [0] * num_in
    labels = 0
    for r, (in_bits, out_bit) in enumerate(rows):
        for i, ch in enumerate(in_bits):
            if ch == "1":
                features[i] |= 1 << r
            elif ch != "0":
                raise DatasetError(
                    f"don't-care characters are not supported: {in_bits!r}")
        if out_bit == "1":
            labels |= 1 << r
        elif out_bit != "0":
            raise DatasetError(f"bad PLA output bit: {out_bit!r}")
    return Dataset(num_rows=len(rows), features=tuple(features),
                   labels=labels)


def write_pla(data: Dataset) -> str:
    lines = [f".i {data.num_features}", ".o 1", f".p {data.num_rows}"]
    for bits, label in data.rows():
        lines.append("".join(str(b) for b in bits) + f" {label}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


def load_pla_triple(train_text: str, validation_text: str,
                    test_text: str) -> PlaTriple:
    return PlaTriple(train=parse_pla(train_text),
                     validation=parse_pla(validation_text),
                     test=parse_pla(test_text))
