"""Fisher Iris ingestion and binary-task construction.

The canonical 150-row file ships with the package (data/iris.csv), so
tests and default runs are hermetic. A task picks two species, labels
them 0/1, and makes a seeded stratified split: exactly the test fraction
of each class is held out.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .encoding import FeatureVector
from .errors import DataError

SPECIES = ("setosa", "versicolor", "virginica")

DATA_DIR_ENV = "VARQ_DATA_DIR"


@dataclass(frozen=True, eq=False)
class IrisRecord:
    """One flower: sepal length/width, petal length/width (cm), species."""

    features: np.ndarray
    species: str

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.shape != (4,):
            raise DataError(f"iris record needs 4 features, got shape {feats.shape}")
        if not np.all(np.isfinite(feats)) or np.any(feats <= 0):
            raise DataError(f"iris features must be finite and positive, got {feats}")
        object.__setattr__(self, "features", feats)


@dataclass(frozen=True, eq=False)
class BinaryTask:
    """Two-species classification task with a train/test split."""

    class0: str
    class1: str
    train: list[FeatureVector]
    test: list[FeatureVector]


def _normalize_species(raw: str) -> str:
    name = raw.strip().lower()
    if name.startswith("iris-"):
        name = name[len("iris-") :]
    elif name.startswith("iris_"):
        name = name[len("iris_") :]
    return name


def default_data_path(explicit: str | os.PathLike | None = None) -> Path:
    """Dataset path resolution: explicit argument, then $VARQ_DATA_DIR/iris.csv,
    then the packaged copy."""
    if explicit is not None:
        return Path(explicit)
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        return Path(env_dir) / "iris.csv"
    return Path(str(resources.files("varq").joinpath("data/iris.csv")))


def load_iris(path: str | os.PathLike) -> list[IrisRecord]:
    """Parse an iris CSV: 4 numeric columns plus species, optional header.

    Species names match case-insensitively, with or without an "Iris-"
    prefix. Malformed rows raise DataError with their line number, and
    so does a path that cannot be read as UTF-8 text.
    """
    path = Path(path)
    records: list[IrisRecord] = []
    try:
        with open(path, newline="", encoding="utf-8") as f:
            for line_no, row in enumerate(csv.reader(f), start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != 5:
                    raise DataError(f"{path}:{line_no}: expected 5 columns, got {len(row)}")
                try:
                    feats = [float(cell) for cell in row[:4]]
                except ValueError:
                    if line_no == 1:
                        continue  # header row
                    raise DataError(f"{path}:{line_no}: non-numeric feature in {row[:4]}")
                try:
                    records.append(IrisRecord(np.array(feats), _normalize_species(row[4])))
                except DataError as exc:
                    raise DataError(f"{path}:{line_no}: {exc}")
    except FileNotFoundError:
        raise DataError(f"dataset file not found: {path}")
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise DataError(f"dataset file {path} is not UTF-8 text: {exc.reason}")
    if not records:
        raise DataError(f"{path}: no data rows")
    return records


def make_task(
    records: list[IrisRecord],
    class0: str,
    class1: str,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> BinaryTask:
    """Label class0 as 0 and class1 as 1, then split stratified by class.

    Each class is shuffled with default_rng(seed); round(test_fraction *
    class size) samples are held out per class.
    """
    class0, class1 = _normalize_species(class0), _normalize_species(class1)
    for name in (class0, class1):
        if name not in SPECIES:
            raise DataError(f"unknown species {name!r}, expected one of {SPECIES}")
    if class0 == class1:
        raise DataError(f"task needs two distinct species, got {class0!r} twice")
    if not 0.0 <= test_fraction < 1.0:
        raise DataError(f"test_fraction must be in [0, 1), got {test_fraction}")

    groups = {class0: [], class1: []}
    for rec in records:
        if rec.species in groups:
            groups[rec.species].append(rec)
    if not groups[class0] or not groups[class1]:
        raise DataError(f"species missing from records: {class0} or {class1}")
    if len(groups[class0]) != len(groups[class1]):
        raise DataError(
            f"unequal class counts: {len(groups[class0])} {class0} vs "
            f"{len(groups[class1])} {class1}"
        )

    rng = np.random.default_rng(seed)
    train: list[FeatureVector] = []
    test: list[FeatureVector] = []
    for label, name in ((0, class0), (1, class1)):
        group = groups[name]
        order = rng.permutation(len(group))
        n_test = int(round(test_fraction * len(group)))
        for pos, idx in enumerate(order):
            fv = FeatureVector(group[idx].features, label)
            (test if pos < n_test else train).append(fv)
    return BinaryTask(class0=class0, class1=class1, train=train, test=test)
