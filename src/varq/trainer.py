"""Gradient-descent training over batched swap-test losses.

Each epoch partitions the training set into balanced 2^n-sample batches
(per-class shuffle seeded by seed+epoch, leftovers dropped for that
epoch) and walks theta down the gradient of the batched loss. The loss
reads a batch only through its two class-mean states, so each epoch's
(batches, 2, 2^k) class-mean array is one fancy index into the
amplitude matrix and one `loss.class_means`; no batch is
laid out as a qRAM store (`batched_loss` on a store is the one-batch
form of the same loss). Theta takes one step after every batch.

A batch's loss and gradient come from one call,
`loss.central_difference`: one forward and one backward sweep over the
layers at theta. Every trainable gate is an RY, so the central
difference at the shift pi/2 is the exact gradient (the parameter-shift
rule). Both readouts read the same sweep: the readout-paired output a
and every shift direction b_j. The exact one (shots=None) reads the
gradient from them in closed form, with no probe row. A sampled one
builds the 2P+1 probe rows (theta, then theta +- pi/2 e_j for each j)
from them with one binomial draw from the batch's one sub-seed. Angle
count and widths are checked once, by `AnsatzSpec.check` when `train`
starts; real or complex arithmetic follows the data's `EncodedSet` dtype.
`train` and `accuracy` take EncodedSets. `train` draws no initial
angles: the caller passes them, so they never depend on the batch seed.

Accuracy classifies a split with one product against the circuit
matrix, built once per epoch (and once per `accuracy` call): a sample
is class 1 when p(readout = 1) >= 1/2, the readout being data qubit 0,
the qubit the swap test compares.
Everything is deterministic for a fixed config and its seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ansatz import AnsatzSpec, ParameterVector, circuit_matrix
from .encoding import EncodedSet
from .errors import ConfigurationError, OptimizationError, check_seed, is_integer
from .loss import Shots, central_difference, class_means


@dataclass(frozen=True)
class TrainConfig:
    n: int = 2
    epochs: int = 100
    learning_rate: float = 0.05
    seed: int = 2  # per-epoch batch shuffle, varq train's --seed-batch default
    shots: Shots | None = None  # None means exact readout

    def __post_init__(self):
        if not (is_integer(self.n) and self.n >= 1):
            raise ConfigurationError(f"n must be an integer >= 1, got {self.n!r}")
        if not (is_integer(self.epochs) and self.epochs >= 1):
            raise ConfigurationError(f"epochs must be an integer >= 1, got {self.epochs!r}")
        # Epoch e shuffles with default_rng(seed + e): seed < 0 shifts or breaks it.
        check_seed(self.seed)
        # 0 is allowed so the null-update sanity case stays constructible;
        # +inf is allowed and ends the run as a divergence.
        if not self.learning_rate >= 0:
            raise ConfigurationError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (self.shots is None or isinstance(self.shots, Shots)):
            raise ConfigurationError(f"shots must be None or Shots(...), got {self.shots!r}")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int  # 1-based
    train_loss: float
    train_accuracy: float
    test_accuracy: float | None
    steps: int  # theta updates made in this epoch


def numerical_gradient(
    loss_fn: Callable[[ParameterVector], float],
    theta: ParameterVector,
    epsilon: float,
) -> np.ndarray:
    """Central differences per coordinate: (L(t+e) - L(t-e)) / 2e.

    A per-coordinate reference with one loss_fn call per probe. For the
    batched loss, a sinusoid in each angle, it is sin(e)/e times the exact
    gradient, so pi/2 times its value at e = pi/2 is the trainer's
    parameter-shift gradient (`loss.central_difference`).
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ConfigurationError(f"epsilon must be finite and > 0, got {epsilon}")
    base = theta.values
    grad = np.empty(base.shape[0], dtype=np.float64)
    for j in range(base.shape[0]):
        up = base.copy()
        up[j] += epsilon
        down = base.copy()
        down[j] -= epsilon
        lp = loss_fn(ParameterVector(up))
        lm = loss_fn(ParameterVector(down))
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise OptimizationError(f"non-finite loss while probing parameter {j}: {lp}, {lm}")
        grad[j] = (lp - lm) / (2.0 * epsilon)
    return grad


def _class_rows(labels: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The row indices of each class, checked to fill one 2^n batch."""
    index0 = np.flatnonzero(labels == 0)
    index1 = np.flatnonzero(labels == 1)
    # 2^(n-1) <= count exactly when n <= count.bit_length(); comparing
    # first keeps a huge n from building a huge integer.
    if n > min(len(index0), len(index1)).bit_length():
        raise ConfigurationError(
            f"need at least 2^{n - 1} samples per class for n={n}, "
            f"got {len(index0)} / {len(index1)}"
        )
    return index0, index1


def _batch_rows(
    classes: tuple[np.ndarray, np.ndarray], n: int, seed: int, epoch: int
) -> np.ndarray:
    """Row b lists batch b's sample indices: its class-0 chunk, then its
    class-1 chunk, from per-class permutations of classes (`_class_rows`)
    by default_rng(seed + epoch). Samples that cannot fill a final
    balanced batch are dropped until the next epoch's reshuffle."""
    index0, index1 = classes
    half = 1 << (n - 1)
    rng = np.random.default_rng(seed + epoch)
    order0 = index0[rng.permutation(len(index0))]
    order1 = index1[rng.permutation(len(index1))]
    count = min(len(index0), len(index1)) // half
    return np.hstack(
        [order0[: count * half].reshape(count, half), order1[: count * half].reshape(count, half)]
    )


def _hit_rate(encoded: EncodedSet, matrix: np.ndarray) -> float | None:
    """Fraction of encoded classified correctly under the circuit matrix
    (`ansatz.circuit_matrix`); None for an empty set. The rows of matrix
    from 2^(k-1) up carry readout bit 1, so one product gives the upper
    half of every output, and p(readout = 1) >= 1/2 is class 1."""
    if not len(encoded):
        return None
    ones = encoded.amplitudes @ matrix[len(matrix) // 2 :].T
    p_one = np.sum(np.abs(ones) ** 2, axis=1)
    return int(np.count_nonzero((p_one >= 0.5) == encoded.labels)) / len(encoded)


def accuracy(
    encoded: EncodedSet,
    spec: AnsatzSpec,
    theta: ParameterVector,
) -> float | None:
    """Fraction of encoded classified correctly, straight from its
    amplitude array with one product against one circuit matrix; None
    for an empty set."""
    spec.check(theta, encoded.num_qubits)
    return _hit_rate(encoded, circuit_matrix(spec, theta.values))


def _step(values: np.ndarray, grad: np.ndarray, rate: float, epoch: int) -> np.ndarray:
    """values - rate * grad, checked finite: a non-finite gradient is named
    by its first bad parameter, else the step itself diverged."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = values - rate * grad
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(grad))
        if bad.size:
            j = int(bad[0])
            raise OptimizationError(f"non-finite gradient at parameter {j}: {grad[j]}")
        raise OptimizationError(
            f"training diverged at epoch {epoch}: parameters became non-finite"
        )
    return values


def train(
    train_set: EncodedSet,
    test_set: EncodedSet,
    spec: AnsatzSpec,
    config: TrainConfig,
    initial_theta: ParameterVector,
) -> tuple[ParameterVector, list[EpochMetrics]]:
    """Optimize theta from initial_theta; returns the final angles and
    per-epoch metrics. There is no default initialization: the caller
    draws initial_theta from a seed of its own, apart from config.seed.
    """
    spec.check(initial_theta, train_set.num_qubits, test_set.num_qubits)
    classes = _class_rows(train_set.labels, config.n)
    values = initial_theta.values

    # A sampled readout draws one sub-seed per batch, deterministic in sequence.
    shots_rng = None if config.shots is None else np.random.default_rng(config.shots.seed)
    metrics: list[EpochMetrics] = []
    for epoch in range(1, config.epochs + 1):
        rows = _batch_rows(classes, config.n, config.seed, epoch)
        batch_means = class_means(train_set.amplitudes[rows])
        batch_losses = []
        for means in batch_means:
            shots = None if shots_rng is None else Shots(
                config.shots.count, int(shots_rng.integers(1 << 62)))
            value, grad = central_difference(means, spec, values, shots)
            batch_losses.append(value)
            values = _step(values, grad, config.learning_rate, epoch)
        matrix = circuit_matrix(spec, values)
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=float(np.mean(batch_losses)),
                train_accuracy=_hit_rate(train_set, matrix),
                test_accuracy=_hit_rate(test_set, matrix),
                steps=len(batch_means),
            )
        )
    return ParameterVector(values), metrics
