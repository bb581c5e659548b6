"""Bitset datasets, truth-table extraction, and PLA files."""

import pytest

from treesynth.aig import Aig, AigBuilder, AigError
from treesynth.dataset import (Dataset, DatasetError, load_pla_triple,
                               parse_pla, truth_tables, write_pla)
from treesynth.odt import SearchBudget, fit_optimal

from conftest import random_circuit


def xor_circuit():
    b = AigBuilder(2)
    b.add_output(b.xor_(b.input_lit(0), b.input_lit(1)))
    return b.build()


def test_dataset_rows():
    # rows: (0,0)->0 (1,0)->1 (0,1)->1 (1,1)->0
    d = Dataset(num_rows=4, features=(0b1010, 0b1100), labels=0b0110)
    assert list(d.rows()) == [((0, 0), 0), ((1, 0), 1),
                              ((0, 1), 1), ((1, 1), 0)]
    assert d.row_mask == 0b1111


def test_dataset_validation():
    with pytest.raises(DatasetError):
        Dataset(num_rows=-1, features=(0,), labels=0)
    with pytest.raises(DatasetError):
        Dataset(num_rows=2, features=(0b100,), labels=0)
    with pytest.raises(DatasetError):
        Dataset(num_rows=2, features=(0b01,), labels=0, weights=(1, 0))
    with pytest.raises(DatasetError):  # one weight for two rows
        Dataset(num_rows=2, features=(0b01,), labels=0, weights=(1,))
    # float weights were accepted, and a fit's train_error came back 0.0
    with pytest.raises(DatasetError, match="ints"):
        Dataset(num_rows=2, features=(1,), labels=1, weights=(1.5, 2.0))


def test_dataset_stores_sequences_as_tuples():
    # the fit memo hashes its data, so a list column must not reach it
    lists = Dataset(num_rows=2, features=[0b01, 0b10], labels=0b01,
                    weights=[2, 1])
    tuples = Dataset(num_rows=2, features=(0b01, 0b10), labels=0b01,
                     weights=(2, 1))
    assert (lists.features, lists.weights) == ((0b01, 0b10), (2, 1))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert (fit_optimal(lists, SearchBudget(max_depth=1))
            == fit_optimal(tuples, SearchBudget(max_depth=1)))


def test_truth_table_xor():
    d = truth_tables(xor_circuit())[0]
    assert d.num_rows == 4
    assert [lbl for _, lbl in d.rows()] == [0, 1, 1, 0]


def test_truth_table_row_order():
    """Row r of the table is the input assignment with value r."""
    d = truth_tables(xor_circuit())[0]
    for r, (bits, _) in enumerate(d.rows()):
        assert bits == ((r >> 0) & 1, (r >> 1) & 1)


def test_truth_tables_match_single(rng):
    c = random_circuit(rng, 5, 20, 3)
    all_tables = truth_tables(c)
    assert len(all_tables) == 3
    for i, table in enumerate(all_tables):
        single = Aig(c.num_inputs, c.ands, (c.outputs[i],))
        assert table == truth_tables(single)[0]


def test_truth_table_input_cap():
    b = AigBuilder(15)
    b.add_output(b.input_lit(14))
    (table,) = truth_tables(b.build())
    assert table.num_rows == 1 << 15
    assert table.labels == table.features[14]
    # the exhaustive testbench's cap is the one truth-table cap
    with pytest.raises(AigError, match="cap of 20"):
        truth_tables(AigBuilder(21).build())


def test_truth_table_bad_output_index():
    with pytest.raises(IndexError):
        truth_tables(xor_circuit())[1]


def test_pla_roundtrip(rng):
    c = random_circuit(rng, 4, 10, 1)
    d = truth_tables(c)[0]
    assert parse_pla(write_pla(d)) == d


@pytest.mark.parametrize("data", [
    Dataset(num_rows=2, features=(0b01,), labels=0b10, weights=(3, 1)),
    Dataset(num_rows=0, features=(0,), labels=0),
    Dataset(num_rows=2, features=(), labels=0b01),
], ids=["weights", "no_rows", "no_features"])
def test_write_pla_rejects_what_parse_pla_cannot_read(data):
    with pytest.raises(DatasetError):
        write_pla(data)


def test_parse_pla_basic():
    d = parse_pla(".i 2\n.o 1\n.p 3\n00 0\n01 1\n11 1\n.e\n")
    assert d.num_rows == 3
    assert list(d.rows()) == [((0, 0), 0), ((0, 1), 1), ((1, 1), 1)]


def test_parse_pla_comments_and_names():
    d = parse_pla("# hi\n.i 1\n.o 1\n.ilb x\n.ob f\n1 1 # inline\n.e\n")
    assert d.num_rows == 1


def test_parse_pla_rejects_dont_cares():
    for row in ("1- 1", "10 -"):
        with pytest.raises(DatasetError):
            parse_pla(f".i 2\n.o 1\n{row}\n.e\n")


def test_parse_pla_rejects_multi_output():
    with pytest.raises(DatasetError):
        parse_pla(".i 1\n.o 2\n1 10\n.e\n")


def test_parse_pla_requires_header():
    with pytest.raises(DatasetError):
        parse_pla("01 1\n.e\n")


def test_parse_pla_rejects_bad_header_counts():
    for header in (".i", ".i x", ".i -1", ".i 2 3", ".o", ".o one"):
        text = header + "\n.i 2\n.o 1\n01 1\n.e\n"
        with pytest.raises(DatasetError):
            parse_pla(text)


def test_parse_pla_rejects_empty_table():
    with pytest.raises(DatasetError):
        parse_pla(".i 2\n.o 1\n.e\n")
    # the declared width is checked against the rows before it sizes
    # anything, so an absurd .i costs no memory
    with pytest.raises(DatasetError):
        parse_pla(".i 999999999999\n.o 1\n01 1\n.e\n")


def test_load_pla_triple_width_check():
    one = ".i 1\n.o 1\n1 1\n.e\n"
    two = ".i 2\n.o 1\n11 1\n.e\n"
    load_pla_triple(one, one, one)
    with pytest.raises(DatasetError):
        load_pla_triple(one, two, one)
