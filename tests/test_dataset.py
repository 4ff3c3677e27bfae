"""Iris ingestion, species normalization, and stratified splitting."""

import io
import os
import threading

import numpy as np
import pytest

from varq import (
    ConfigurationError,
    default_data_path,
    load_iris,
    make_task,
)
from varq.dataset import SPECIES, _lines, _read_columns, _scan_rows, _species


@pytest.fixture(scope="module")
def records():
    return load_iris(default_data_path())


def load_text(tmp_path, text):
    path = tmp_path / "iris.csv"
    path.write_text(text)
    return load_iris(path)


class TestIrisRecord:
    """One record is one data row of the CSV."""

    def test_valid_record(self, tmp_path):
        table = load_text(tmp_path, "5.1,3.5,1.4,0.2,setosa\n")
        assert table.features.shape == (1, 4)
        assert table.features.dtype == np.float64
        assert table.species.tolist() == ["setosa"]

    def test_wrong_feature_count_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match=":1: expected 5 columns, got 3"):
            load_text(tmp_path, "5.1,3.5,setosa\n")

    def test_non_positive_feature_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            load_text(tmp_path, "5.1,3.5,1.4,0.0,setosa\n")
        with pytest.raises(ConfigurationError, match="finite and positive"):
            load_text(tmp_path, "5.1,3.5,1.4,nan,setosa\n")


GOOD_ROW = "5.1,3.5,1.4,0.2,setosa\n"
HEADER = "sepal_length,sepal_width,petal_length,petal_width,species\n"


class TestLoadErrorLines:
    """Each malformed row is reported with its CSV line, in file order."""

    @pytest.mark.parametrize(
        "text, detail",
        [
            (GOOD_ROW + "5.0,3.6,1.4,setosa\n", "2: expected 5 columns, got 4"),
            (HEADER + GOOD_ROW + "4.9,x,1.4,0.2,setosa\n",
             "3: non-numeric feature in ['4.9', 'x', '1.4', '0.2']"),
            (GOOD_ROW + "4.9,3.0,0,0.2,setosa\n",
             "2: iris features must be finite and positive, got [4.9 3.  0.  0.2]"),
            (GOOD_ROW + GOOD_ROW + "4.9,3.0,nan,0.2,setosa\n",
             "3: iris features must be finite and positive, got [4.9 3.  nan 0.2]"),
            (GOOD_ROW + "4.9,inf,1.4,0.2,setosa\n",
             "2: iris features must be finite and positive, got [4.9 inf 1.4 0.2]"),
            (GOOD_ROW + HEADER, "2: non-numeric feature in "
             "['sepal_length', 'sepal_width', 'petal_length', 'petal_width']"),
            # Header and blank lines count toward the line number.
            (HEADER + "\n" + GOOD_ROW + ",,,,\n" + "4.9,3.0,1.4,-0.2,setosa\n",
             "5: iris features must be finite and positive, got [ 4.9  3.   1.4 -0.2]"),
            # A bad value is reported before a later malformed row.
            (GOOD_ROW + "4.9,3.0,nan,0.2,setosa\n5.0,3.6,setosa\n",
             "2: iris features must be finite and positive, got [4.9 3.  nan 0.2]"),
            (GOOD_ROW + "5.0,3.6,setosa\n4.9,3.0,nan,0.2,setosa\n",
             "2: expected 5 columns, got 3"),
            # A row is numbered by its first line, after a quoted cell that
            # spans two lines.
            (GOOD_ROW + '4.9,3.0,1.4,0.2,"set\nosa"\n' + "4.9,x,1.4,0.2,setosa\n",
             "4: non-numeric feature in ['4.9', 'x', '1.4', '0.2']"),
            (GOOD_ROW + '4.9,3.0,1.4,0.2,"set\nosa"\n' + "4.9,-1,1.4,0.2,setosa\n",
             "4: iris features must be finite and positive, got [ 4.9 -1.   1.4  0.2]"),
        ],
    )
    def test_message_names_the_line(self, tmp_path, text, detail):
        with pytest.raises(ConfigurationError) as info:
            load_text(tmp_path, text)
        assert str(info.value) == f"{tmp_path / 'iris.csv'}:{detail}"


class TestLoadIris:
    def test_canonical_file_has_150_records_50_per_species(self, records):
        assert len(records) == 150
        assert records.features.shape == (150, 4)
        counts = {s: int(np.count_nonzero(records.species == s)) for s in SPECIES}
        assert counts == {"setosa": 50, "versicolor": 50, "virginica": 50}

    def test_prefixed_species_name_is_normalized(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("5.1,3.5,1.4,0.2,Iris-setosa\n")
        out = load_iris(path)
        assert len(out) == 1
        assert out.species.tolist() == ["setosa"]
        assert np.array_equal(out.features[0], [5.1, 3.5, 1.4, 0.2])

    def test_case_insensitive_species(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("6.0,2.9,4.5,1.5,VERSICOLOR\n")
        assert load_iris(path).species.tolist() == ["versicolor"]

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text(
            "sepal_length,sepal_width,petal_length,petal_width,species\n"
            "5.1,3.5,1.4,0.2,setosa\n"
        )
        assert len(load_iris(path)) == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="no data rows"):
            load_iris(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("5.1,3.5,1.4,0.2,setosa\n5.0,oops,1.3,0.3,setosa\n")
        with pytest.raises(ConfigurationError, match=":2"):
            load_iris(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("5.1,3.5,1.4,setosa\n")
        with pytest.raises(ConfigurationError, match=":1: expected 5 columns, got 4"):
            load_iris(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="dataset file not found"):
            load_iris(tmp_path / "absent.csv")

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("5.1,3.5,1.4,0.2,setosa\n\n4.9,3.0,1.4,0.2,setosa\n")
        assert len(load_iris(path)) == 2


def row_scan_outcome(path):
    """What the row scan alone returns for the file at path: (features,
    species), or the ConfigurationError message."""
    text = path.read_bytes().decode("utf-8-sig")
    try:
        features, names = _scan_rows(io.StringIO(text, newline=""), path)
    except ConfigurationError as exc:
        return str(exc)
    return features, _species(names)


LONG_NAME = "Iris-setosa-from-the-gaspe-peninsula"
# Texts the row scan reads; some the C reader refuses, and those must
# come out of load_iris exactly as the row scan gives them.
ODD_TEXTS = {
    "plain": GOOD_ROW + "4.9,3.0,1.4,0.2,versicolor\n",
    "header": HEADER + GOOD_ROW,
    "no final newline": HEADER + GOOD_ROW.rstrip("\n"),
    "crlf": (HEADER + GOOD_ROW + GOOD_ROW).replace("\n", "\r\n"),
    "lone cr": (HEADER + GOOD_ROW + GOOD_ROW).replace("\n", "\r"),
    "quoted cells": '"5.1","3.5",1.4,0.2,"Iris-setosa"\n' + GOOD_ROW,
    "quoted header": '"a","b","c","d","species"\n' + GOOD_ROW,
    "header cell spanning lines": 'a,b,c,d,"species\n' + GOOD_ROW,
    "quote inside a cell": GOOD_ROW + '4.9,3.0,1.4,0.2,se"tosa\n',
    "quoted comma": GOOD_ROW + '4.9,3.0,1.4,0.2,"setosa,versicolor"\n',
    "quoted newline": GOOD_ROW + '4.9,3.0,1.4,0.2,"set\nosa"\n',
    "padded cells": " 5.1 ,3.5 , 1.4,0.2 ,  Setosa \n" + GOOD_ROW,
    "bom": "\ufeff" + GOOD_ROW + GOOD_ROW,
    "bom and header": "\ufeff" + HEADER + GOOD_ROW,
    "hash line": GOOD_ROW + "# a comment\n" + GOOD_ROW,
    "hash species": GOOD_ROW + "4.9,3.0,1.4,0.2,#setosa\n",
    "trailing comma": GOOD_ROW + "4.9,3.0,1.4,0.2,setosa,\n",
    "nul in a number": GOOD_ROW + "4.9\x00,3.0,1.4,0.2,setosa\n",
    "nul in a species": GOOD_ROW + "4.9,3.0,1.4,0.2,setosa\x00\n",
    "hex": GOOD_ROW + "0x1p2,3.0,1.4,0.2,setosa\n",
    "overflow": GOOD_ROW + "1e400,3.0,1.4,0.2,setosa\n",
    "underflow": GOOD_ROW + "1e-400,3.0,1.4,0.2,setosa\n",
    "underscore digits": GOOD_ROW + "5_1,3.0,1.4,0.2,setosa\n",
    "arabic-indic digits": GOOD_ROW + "\u0665.1,3.0,1.4,0.2,setosa\n",
    "signs and exponents": "+5.1,3.5E0,.14e1,2e-1,setosa\n",
    "whitespace-only line": GOOD_ROW + "   \n" + GOOD_ROW,
    "empty cells line": GOOD_ROW + ",,,,\n" + GOOD_ROW,
    "blank first line": "\n" + GOOD_ROW,
    "empty species": GOOD_ROW + "4.9,3.0,1.4,0.2,\n",
    "long species": GOOD_ROW + f"4.9,3.0,1.4,0.2,{LONG_NAME}\n",
    "header only": HEADER,
    "empty file": "",
    "blank lines only": "\n\n",
    "short first line": "5.1,3.5,setosa\n" + GOOD_ROW,
    "bad value then short row": GOOD_ROW + "4.9,0,1.4,0.2,setosa\n5.0,3.6\n",
}


def load_outcome(path):
    """What load_iris returns for path: (feature bytes, species), or the
    ConfigurationError message with the path written as PATH."""
    try:
        table = load_iris(path)
    except ConfigurationError as exc:
        return str(exc).replace(str(path), "PATH")
    return table.features.tobytes(), table.species.tolist()


def fifo_outcome(tmp_path, data):
    """load_outcome of data written once to a named pipe. A reader that
    opens the pipe again finds it empty, as it would a shell pipe."""
    fifo = tmp_path / "iris.fifo"
    os.mkfifo(fifo)
    done = threading.Event()

    def write():
        fifo.write_bytes(data)
        while not done.wait(0.01):
            try:  # meet a second open with an empty stream, not a hang
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader has the pipe open
                pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return load_outcome(fifo)
    finally:
        done.set()
        writer.join()


# Bytes the C reader does not serve, so the row scan must read them again:
# from memory, since a pipe gives them only once.
READ_ONCE = {
    "quoted line 1": ('"5.1","3.5",1.4,0.2,"Iris-setosa"\n' + GOOD_ROW).encode(),
    "bad row on line 12": (GOOD_ROW * 11 + "4.9,x,1.4,0.2,setosa\n" + GOOD_ROW).encode(),
    "leading 0xff": b"\xff" + GOOD_ROW.encode(),
    "bad row after a quoted newline": (
        GOOD_ROW + '4.9,3.0,1.4,0.2,"set\nosa"\n' + "4.9,x,1.4,0.2,setosa\n"
    ).encode(),
}


class TestReaders:
    """load_iris reads with numpy's C reader where it can and falls back
    to the row scan; the two must never disagree."""

    @pytest.mark.parametrize("text", ODD_TEXTS.values(), ids=ODD_TEXTS.keys())
    def test_load_iris_matches_the_row_scan(self, tmp_path, text):
        path = tmp_path / "iris.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = row_scan_outcome(path)
        if isinstance(expected, str):
            with pytest.raises(ConfigurationError) as info:
                load_iris(path)
            assert str(info.value) == expected
            return
        table = load_iris(path)
        assert table.features.tobytes() == expected[0].tobytes()
        assert table.features.shape == expected[0].shape
        assert table.features.flags.c_contiguous
        assert table.species.dtype == expected[1].dtype
        assert table.species.tolist() == expected[1].tolist()

    def test_long_species_name_is_kept_whole(self, tmp_path):
        table = load_text(tmp_path, f"5.1,3.5,1.4,0.2,{LONG_NAME}\n" + GOOD_ROW)
        assert table.species.tolist() == [LONG_NAME.lower()[len("iris-"):], "setosa"]

    def test_c_reader_serves_the_packaged_file(self):
        # The row scan is the fallback, not the common path.
        features, names = _read_columns(_lines(default_data_path().read_bytes()))
        table = load_iris(default_data_path())
        assert features.tobytes() == table.features.tobytes()
        assert _species(names).tolist() == table.species.tolist()

    def test_c_reader_serves_bulk_data(self):
        # 2,000 rows as the benchmark writes its synthetic CSVs: a header,
        # then features to two decimals, each at least 0.05.
        rng = np.random.default_rng(1)
        rows = np.maximum(rng.normal(5.0, 0.35, size=(2000, 4)), 0.05)
        text = HEADER + "".join(",".join(f"{v:.2f}" for v in row) + ",setosa\n" for row in rows)
        columns = _read_columns(_lines(text.encode()))
        assert columns is not None
        assert columns[0].shape == (2000, 4)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("data", READ_ONCE.values(), ids=READ_ONCE.keys())
    def test_a_pipe_reads_as_a_regular_file(self, tmp_path, data):
        regular = tmp_path / "iris.csv"
        regular.write_bytes(data)
        assert fifo_outcome(tmp_path, data) == load_outcome(regular)

    def test_bad_row_before_undecodable_bytes_is_reported(self, tmp_path):
        # The file is read as a stream up to the first error, so a bad row
        # well ahead of non-UTF-8 bytes is the one reported.
        path = tmp_path / "iris.csv"
        head = GOOD_ROW + "5.0,3.6,setosa\n" + GOOD_ROW * 1000
        path.write_bytes(head.encode() + b"\xff\n")
        with pytest.raises(ConfigurationError, match=r":2: expected 5 columns, got 3$"):
            load_iris(path)
        path.write_bytes(b"\xff" + head.encode())
        with pytest.raises(ConfigurationError, match="is not UTF-8 text: invalid start byte"):
            load_iris(path)

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        text = "5.1,3.5,1.4,0.2,setosa\n4.9,3.0,1.4,0.2,setosa\n"
        table = load_text(tmp_path, "\ufeff" + text)
        assert len(table) == 2
        assert table.features[0].tolist() == [5.1, 3.5, 1.4, 0.2]
        # With CRLF line ends as well, the rows are those of the plain text.
        plain = load_text(tmp_path, text)
        table = load_text(tmp_path, "\ufeff" + text.replace("\n", "\r\n"))
        assert table.features.tobytes() == plain.features.tobytes()
        assert table.species.tolist() == plain.species.tolist()


class TestDefaultDataPath:
    def test_explicit_path_wins(self, tmp_path):
        explicit = tmp_path / "other.csv"
        assert default_data_path(explicit) == explicit

    def test_packaged_copy_is_the_fallback(self, tmp_path, monkeypatch):
        # No environment variable redirects the default: a data directory
        # named by VARQ_DATA_DIR, even a missing one, is not read.
        monkeypatch.setenv("VARQ_DATA_DIR", str(tmp_path / "no-such-dir"))
        path = default_data_path()
        assert path.exists()
        assert path.name == "iris.csv"
        assert tmp_path not in path.parents


class TestMakeTask:
    def test_standard_split_sizes(self, records):
        task = make_task(records, "setosa", "versicolor", seed=0)
        assert len(task.train) == 80
        assert len(task.test) == 20
        assert task.train.values.shape == (80, 4)
        assert task.test.values.shape == (20, 4)
        assert np.count_nonzero(task.train.labels == 0) == 40
        assert np.count_nonzero(task.test.labels == 1) == 10

    def test_labels_follow_argument_order(self, records):
        task = make_task(records, "virginica", "versicolor", seed=0)
        assert task.class0 == "virginica"
        assert task.class1 == "versicolor"

    def test_zero_test_fraction_keeps_everything_in_train(self, records):
        task = make_task(records, "setosa", "virginica", test_fraction=0.0, seed=0)
        assert len(task.train) == 100
        assert len(task.test) == 0
        assert task.test.values.shape == (0, 4)

    def test_split_is_a_partition(self, records):
        task = make_task(records, "setosa", "versicolor", seed=3)
        # Every row of the two species lands in exactly one split, with its
        # species' label; rows that repeat in the file are counted apiece.
        split = [
            (tuple(values), label)
            for part in (task.train, task.test)
            for values, label in zip(part.values.tolist(), part.labels.tolist())
        ]
        originals = [
            (tuple(features), ("setosa", "versicolor").index(species))
            for features, species in zip(records.features.tolist(), records.species)
            if species in ("setosa", "versicolor")
        ]
        assert sorted(split) == sorted(originals)

    def test_same_seed_reproduces_membership(self, records):
        a = make_task(records, "setosa", "versicolor", seed=5)
        b = make_task(records, "setosa", "versicolor", seed=5)
        assert np.array_equal(a.test.values, b.test.values)
        assert np.array_equal(a.test.labels, b.test.labels)

    def test_different_seeds_differ_but_keep_counts(self, records):
        a = make_task(records, "setosa", "versicolor", seed=0)
        b = make_task(records, "setosa", "versicolor", seed=1)
        assert not np.array_equal(a.test.values, b.test.values)
        assert len(a.test) == len(b.test) == 20

    def test_unknown_species_rejected(self, records):
        with pytest.raises(ConfigurationError, match="unknown species 'sunflower'"):
            make_task(records, "setosa", "sunflower", seed=0)

    def test_same_species_twice_rejected(self, records):
        with pytest.raises(ConfigurationError, match="two distinct species, got 'setosa' twice"):
            make_task(records, "setosa", "setosa", seed=0)

    def test_missing_species_named_alone(self, tmp_path):
        table = load_text(tmp_path, GOOD_ROW * 4)
        with pytest.raises(ConfigurationError, match=r"records: versicolor$"):
            make_task(table, "setosa", "versicolor", seed=0)
        with pytest.raises(ConfigurationError, match=r"records: virginica$"):
            make_task(table, "virginica", "setosa", seed=0)
        with pytest.raises(ConfigurationError, match=r"records: virginica and versicolor$"):
            make_task(table, "virginica", "versicolor", seed=0)

    def test_unequal_class_counts_rejected(self, tmp_path):
        table = load_text(tmp_path, GOOD_ROW * 4 + "7.0,3.2,4.7,1.4,versicolor\n")
        with pytest.raises(ConfigurationError, match=r"counts: 4 setosa vs 1 versicolor$"):
            make_task(table, "setosa", "versicolor", seed=0)

    def test_prefixed_names_accepted(self, records):
        task = make_task(records, "Iris-setosa", "Iris-versicolor", seed=0)
        assert task.class0 == "setosa"

    def test_bad_test_fraction_rejected(self, records):
        with pytest.raises(ConfigurationError, match=r"test_fraction must be in \[0, 1\), got 1.5"):
            make_task(records, "setosa", "versicolor", test_fraction=1.5, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_is_an_integer_at_least_zero(self, records, seed):
        with pytest.raises(ConfigurationError, match=r"^seed must be an integer >= 0"):
            make_task(records, "setosa", "versicolor", seed=seed)
