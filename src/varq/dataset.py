"""Fisher Iris ingestion and binary-task construction.

The canonical 150-row file ships with the package (data/iris.csv), so
tests and default runs are hermetic. The file is read into one
IrisTable (a feature matrix plus each row's species). A task picks two
species, labels them 0/1, and makes a seeded stratified split by row
index: exactly the test fraction of each class is held out. Each split
is a FeatureSet.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .encoding import FeatureSet
from .errors import DataError

SPECIES = ("setosa", "versicolor", "virginica")

# One parsed row: the four features, then the raw species name. An object
# field keeps names whole; a fixed-width string field would truncate them.
_COLUMNS = np.dtype([("f", np.float64, 4), ("s", object)])


@dataclass(frozen=True, eq=False)
class IrisTable:
    """Parsed iris rows: an (N, 4) feature matrix of sepal length/width and
    petal length/width (cm), and each row's normalized species name."""

    features: np.ndarray
    species: np.ndarray

    def __len__(self) -> int:
        return self.species.shape[0]


@dataclass(frozen=True, eq=False)
class BinaryTask:
    """Two-species classification task with a train/test split."""

    class0: str
    class1: str
    train: FeatureSet
    test: FeatureSet


def _normalize_species(raw: str) -> str:
    name = raw.strip().lower()
    if name.startswith("iris-"):
        name = name[len("iris-") :]
    elif name.startswith("iris_"):
        name = name[len("iris_") :]
    return name


def default_data_path(explicit: str | os.PathLike | None = None) -> Path:
    """The dataset path: the explicit argument, else the packaged copy."""
    if explicit is not None:
        return Path(explicit)
    return Path(str(resources.files("varq").joinpath("data/iris.csv")))


def _scan_rows(lines: Iterable[str], path: Path) -> tuple[np.ndarray, list[str]]:
    """Features and raw species names of an iris CSV, one row at a time.

    The first malformed row in file order raises DataError with its line
    number; a non-numeric line 1 of 5 cells is a header, and blank rows
    are skipped. A row is numbered by its first file line, so a quoted
    cell that spans lines does not shift the numbers of later rows.
    """
    rows: list[tuple[float, float, float, float]] = []
    names: list[str] = []
    row_lines: list[int] = []
    problem = None
    reader = csv.reader(lines)
    next_line = 1
    for row in reader:
        line_no, next_line = next_line, reader.line_num + 1
        if len(row) == 5:
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2]), float(row[3])))
            except ValueError:
                pass
            else:
                names.append(row[4])
                row_lines.append(line_no)
                continue
        if not row or all(not cell.strip() for cell in row):
            continue  # blank row
        if len(row) != 5:
            problem = f"{path}:{line_no}: expected 5 columns, got {len(row)}"
            break
        if line_no != 1:  # a non-numeric line 1 is the header
            problem = f"{path}:{line_no}: non-numeric feature in {row[:4]}"
            break
    features = np.array(rows, dtype=np.float64).reshape(-1, 4)
    # Every row read so far precedes the structural problem, if any.
    bad = np.flatnonzero(~np.all(np.isfinite(features) & (features > 0), axis=1))
    if bad.size:
        row = int(bad[0])
        raise DataError(
            f"{path}:{row_lines[row]}: iris features must be finite and positive, "
            f"got {features[row]}"
        )
    if problem is not None:
        raise DataError(problem)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return features, names


def _lines(data: bytes) -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")


def _read_columns(lines: io.TextIOWrapper) -> tuple[np.ndarray, list[str]] | None:
    """Features and raw species names of an iris CSV, parsed by numpy's C
    reader; None unless it reads at least one row, every row, and every
    feature is finite and positive, so that _scan_rows would return the same.

    The C reader splits fields and reads numbers as csv.reader and
    float() do, but refuses some input they accept (whitespace-only or
    ",,,," lines, "5_1" or non-ASCII digits), and only the row scan
    names a bad line.
    """
    first = lines.readline()
    if '"' in first:
        return None  # a quoted line-1 cell may span lines
    cells = next(csv.reader([first]), [])
    if len(cells) == 5:
        try:
            list(map(float, cells[:4]))
        except ValueError:
            first = ""  # header row: loadtxt skips an empty line
    elif not "".join(cells).strip():
        first = ""  # blank row
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's "no data"
            table = np.loadtxt(
                itertools.chain([first], lines),
                dtype=_COLUMNS,
                delimiter=",",
                comments=None,
                quotechar='"',
                ndmin=1,
            )
    except (ValueError, UserWarning):
        return None
    features = np.ascontiguousarray(table["f"])
    if not np.all(np.isfinite(features) & (features > 0)):
        return None
    return features, table["s"].tolist()


def _species(names: list[str]) -> np.ndarray:
    """Each row's normalized species, normalizing each distinct name once."""
    codes: dict[str, int] = {}
    index = [codes.setdefault(name, len(codes)) for name in names]
    # A numpy string array drops trailing NULs, as np.array(names) would.
    distinct = np.array(list(codes))
    return np.array([_normalize_species(name) for name in distinct])[index]


def load_iris(path: str | os.PathLike) -> IrisTable:
    """Parse an iris CSV: 4 numeric columns plus species, optional header.

    Species names match case-insensitively, with or without an "Iris-"
    prefix. The path is read once, as UTF-8 less a leading byte-order
    mark, and parsed by numpy's C reader; bytes that reader refuses or
    whose values it cannot vouch for are scanned row by row instead. The
    first malformed row in file order raises DataError with its line
    number, and so do bytes that are not UTF-8 text.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        features, names = _read_columns(_lines(data)) or _scan_rows(_lines(data), path)
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}")
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset file {path} is not UTF-8 text: {exc.reason}")
    return IrisTable(features, _species(names))


def make_task(
    table: IrisTable,
    class0: str,
    class1: str,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> BinaryTask:
    """Label class0 as 0 and class1 as 1, then split stratified by class.

    Each class's rows, in file order, are shuffled with default_rng(seed);
    the first round(test_fraction * class size) go to the test set. Each
    split lists class 0's rows, then class 1's, in shuffled order.
    """
    class0, class1 = _normalize_species(class0), _normalize_species(class1)
    for name in (class0, class1):
        if name not in SPECIES:
            raise DataError(f"unknown species {name!r}, expected one of {SPECIES}")
    if class0 == class1:
        raise DataError(f"task needs two distinct species, got {class0!r} twice")
    if not 0.0 <= test_fraction < 1.0:
        raise DataError(f"test_fraction must be in [0, 1), got {test_fraction}")

    members = [np.flatnonzero(table.species == name) for name in (class0, class1)]
    missing = [name for name, rows in zip((class0, class1), members) if not rows.size]
    if missing:
        raise DataError(f"species missing from records: {' and '.join(missing)}")
    if members[0].size != members[1].size:
        raise DataError(
            f"unequal class counts: {members[0].size} {class0} vs "
            f"{members[1].size} {class1}"
        )

    rng = np.random.default_rng(seed)
    train_rows, test_rows = [], []
    for rows in members:
        rows = rows[rng.permutation(rows.size)]
        n_test = int(round(test_fraction * rows.size))
        test_rows.append(rows[:n_test])
        train_rows.append(rows[n_test:])

    def split(parts: list[np.ndarray]) -> FeatureSet:
        labels = np.repeat([0, 1], [part.size for part in parts])
        return FeatureSet(table.features[np.concatenate(parts)], labels)

    return BinaryTask(class0, class1, split(train_rows), split(test_rows))
