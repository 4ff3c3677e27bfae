"""Iris ingestion, species normalization, and stratified splitting."""

import numpy as np
import pytest

from varq import (
    DataError,
    default_data_path,
    load_iris,
    make_task,
)
from varq.dataset import DATA_DIR_ENV, SPECIES


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
        with pytest.raises(DataError, match=":1: expected 5 columns, got 3"):
            load_text(tmp_path, "5.1,3.5,setosa\n")

    def test_non_positive_feature_rejected(self, tmp_path):
        with pytest.raises(DataError, match="finite and positive"):
            load_text(tmp_path, "5.1,3.5,1.4,0.0,setosa\n")
        with pytest.raises(DataError, match="finite and positive"):
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
        ],
    )
    def test_message_names_the_line(self, tmp_path, text, detail):
        with pytest.raises(DataError) as info:
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
        with pytest.raises(DataError):
            load_iris(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("5.1,3.5,1.4,0.2,setosa\n5.0,oops,1.3,0.3,setosa\n")
        with pytest.raises(DataError, match=":2"):
            load_iris(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("5.1,3.5,1.4,setosa\n")
        with pytest.raises(DataError):
            load_iris(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_iris(tmp_path / "absent.csv")

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "iris.csv"
        path.write_text("5.1,3.5,1.4,0.2,setosa\n\n4.9,3.0,1.4,0.2,setosa\n")
        assert len(load_iris(path)) == 2


class TestDefaultDataPath:
    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        explicit = tmp_path / "other.csv"
        assert default_data_path(explicit) == explicit

    def test_env_dir_used_when_set(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert default_data_path() == tmp_path / "iris.csv"

    def test_packaged_copy_is_the_fallback(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        path = default_data_path()
        assert path.exists()
        assert path.name == "iris.csv"


class TestMakeTask:
    def test_standard_split_sizes(self, records):
        task = make_task(records, "setosa", "versicolor", seed=0)
        assert len(task.train) == 80
        assert len(task.test) == 20
        assert sum(1 for s in task.train if s.label == 0) == 40
        assert sum(1 for s in task.test if s.label == 1) == 10

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
        train_ids = {id(s) for s in task.train}
        test_ids = {id(s) for s in task.test}
        assert not train_ids & test_ids
        as_tuples = {tuple(s.values) for s in [*task.train, *task.test]}
        originals = {
            tuple(features)
            for features, species in zip(records.features, records.species)
            if species in ("setosa", "versicolor")
        }
        assert as_tuples == originals

    def test_same_seed_reproduces_membership(self, records):
        a = make_task(records, "setosa", "versicolor", seed=5)
        b = make_task(records, "setosa", "versicolor", seed=5)
        assert [tuple(s.values) for s in a.test] == [tuple(s.values) for s in b.test]

    def test_different_seeds_differ_but_keep_counts(self, records):
        a = make_task(records, "setosa", "versicolor", seed=0)
        b = make_task(records, "setosa", "versicolor", seed=1)
        assert [tuple(s.values) for s in a.test] != [tuple(s.values) for s in b.test]
        assert len(a.test) == len(b.test) == 20

    def test_unknown_species_rejected(self, records):
        with pytest.raises(DataError):
            make_task(records, "setosa", "sunflower", seed=0)

    def test_same_species_twice_rejected(self, records):
        with pytest.raises(DataError):
            make_task(records, "setosa", "setosa", seed=0)

    def test_prefixed_names_accepted(self, records):
        task = make_task(records, "Iris-setosa", "Iris-versicolor", seed=0)
        assert task.class0 == "setosa"

    def test_bad_test_fraction_rejected(self, records):
        with pytest.raises(DataError):
            make_task(records, "setosa", "versicolor", test_fraction=1.5, seed=0)
