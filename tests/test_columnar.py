"""The array read path against a per-row reference.

The reference parses the CSV one row at a time, groups each species'
rows in file order, shuffles each group with default_rng(seed), and
encodes each row as x / ||x||, the way the pipeline did before it kept
datasets as arrays.
"""

import csv

import numpy as np
import pytest

from varq import (
    AnsatzSpec,
    EncodedSet,
    accuracy,
    default_data_path,
    encode_dataset,
    init_parameters,
    load_iris,
    make_task,
)
from varq.ansatz import DEFAULT_LAYERS

TASKS = (("setosa", "versicolor"), ("virginica", "versicolor"), ("setosa", "virginica"))


def reference_split(path, class0, class1, seed, test_fraction=0.2):
    """(features, label) pairs of the train and test splits, row by row."""
    groups = {class0: [], class1: []}
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.reader(f):
            if len(row) != 5:
                continue
            try:
                features = [float(cell) for cell in row[:4]]
            except ValueError:
                continue
            name = row[4].strip().lower()
            name = name[len("iris-"):] if name.startswith("iris-") else name
            if name in groups:
                groups[name].append(features)
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label, name in ((0, class0), (1, class1)):
        group = groups[name]
        n_test = int(round(test_fraction * len(group)))
        for pos, idx in enumerate(rng.permutation(len(group))):
            (test if pos < n_test else train).append((group[idx], label))
    return train, test


def check_against_reference(path, class0, class1, seed):
    task = make_task(load_iris(path), class0, class1, seed=seed)
    spec = AnsatzSpec(2, DEFAULT_LAYERS)
    theta = init_parameters(spec, seed=seed)
    for split, reference in zip((task.train, task.test), reference_split(path, class0, class1, seed)):
        features = np.array([f for f, _ in reference])
        labels = [label for _, label in reference]
        assert np.array_equal(split.values, features)
        assert split.labels.tolist() == labels

        encoded = encode_dataset(split)
        expected = [np.asarray(f) / np.linalg.norm(f) for f in features]
        assert np.max(np.abs(encoded.amplitudes - np.array(expected))) <= 1e-15
        reference_set = EncodedSet(np.array(expected, dtype=complex), labels)
        assert accuracy(encoded, spec, theta) == accuracy(reference_set, spec, theta)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("class0, class1", TASKS)
def test_packaged_iris_matches_per_row_reference(class0, class1, seed):
    check_against_reference(default_data_path(), class0, class1, seed)


def test_synthetic_csv_matches_per_row_reference(tmp_path):
    rng = np.random.default_rng(7)
    lines = ["sepal_length,sepal_width,petal_length,petal_width,species"]
    for name in ("setosa", "versicolor", "virginica"):
        for row in rng.uniform(0.05, 8.0, size=(1500, 4)):
            lines.append(",".join(f"{v:.3f}" for v in row) + f",Iris-{name}")
        lines.append("")
    path = tmp_path / "iris.csv"
    path.write_text("\n".join(lines) + "\n")
    for seed in (0, 11):
        for class0, class1 in TASKS:
            check_against_reference(path, class0, class1, seed)
