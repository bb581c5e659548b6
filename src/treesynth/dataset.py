"""Binary datasets for tree learning: truth-table extraction and PLA files.

Columns are stored as arbitrary-precision integer bitsets, one bit per
row, which keeps truth-table extraction, simulation, and error counting
on the same bit-parallel representation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aig import Aig, check_int
from .qor import exhaustive_testbench


class DatasetError(Exception):
    """Malformed dataset or PLA input."""


@dataclass(frozen=True)
class Dataset:
    """Rows of binary features with one binary label each.

    Derived values: ``num_features`` is ``len(features)``, and
    ``row_mask`` has one set bit per row.  Sequences are kept as tuples.
    """

    num_rows: int
    features: tuple[int, ...]  # one row-bitset per feature
    labels: int                # row-bitset of the single label column
    weights: tuple[int, ...] | None = None  # positive per-row multiplicities

    def __post_init__(self):
        if not (isinstance(self.features, (list, tuple)) and isinstance(
                self.weights, (list, tuple, type(None)))):
            raise DatasetError("features and weights must be lists or tuples")
        object.__setattr__(self, "features", tuple(self.features))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
        check_int("num_rows", self.num_rows, 0, DatasetError)
        if not all(isinstance(c, int) for c in (self.labels, *self.features)):
            raise DatasetError("labels and features must be int row-bitsets")
        mask = self.row_mask
        if self.labels & ~mask or any(f & ~mask for f in self.features):
            raise DatasetError("column has bits beyond num_rows")
        if self.weights is not None:
            if len(self.weights) != self.num_rows:
                raise DatasetError("weight count mismatch")
            if any(not isinstance(w, int) or w <= 0 for w in self.weights):
                raise DatasetError("row weights must be positive ints")

    @property
    def num_features(self) -> int:
        return len(self.features)

    @property
    def row_mask(self) -> int:
        return (1 << self.num_rows) - 1

    def rows(self):
        """Each row's feature bits and label, in row order."""
        for r in range(self.num_rows):
            yield (tuple((f >> r) & 1 for f in self.features),
                   (self.labels >> r) & 1)


def truth_tables(circuit: Aig) -> list[Dataset]:
    """One dataset per output over the exhaustive testbench's vectors, so
    every output shares one simulation; a circuit over that testbench's
    input cap is an ``AigError``."""
    bench = exhaustive_testbench(circuit)
    features = tuple(bench.words)
    return [Dataset(num_rows=bench.samples, features=features, labels=o)
            for o in bench.reference]


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
    if not isinstance(text, str):
        raise DatasetError("PLA text must be a str")
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
    """Serialize data that ``parse_pla`` reads back equal; weighted data or
    data without rows or features is a DatasetError."""
    if data.weights is not None:
        raise DatasetError("PLA cannot express row weights")
    if data.num_rows == 0 or data.num_features == 0:
        raise DatasetError("PLA needs at least one row and one feature")
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
