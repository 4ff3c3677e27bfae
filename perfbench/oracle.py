"""Dense-matrix reference for checking varq outputs; numpy only.

Shares no code with the package. Conventions match it: qubit 0 is the
most significant bit of a basis index, RY(t) = [[c, -s], [s, c]] with
c, s = cos(t/2), sin(t/2), and each ansatz layer is one RY per data
qubit followed by a CZ ring (a single CZ for two qubits).
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

SPECIES = ("setosa", "versicolor", "virginica")
# Samples whose p(readout=1) lies this close to the threshold may be
# classified either way by two correct implementations.
NEAR_THRESHOLD = 1e-9


def read_iris_csv(path: str | Path) -> dict[str, list[np.ndarray]]:
    """Rows grouped by species in file order; the header row is skipped."""
    groups: dict[str, list[np.ndarray]] = {name: [] for name in SPECIES}
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                feats = np.array([float(cell) for cell in row[:4]])
            except ValueError:
                continue
            name = row[4].strip().lower()
            for prefix in ("iris-", "iris_"):
                if name.startswith(prefix):
                    name = name[len(prefix):]
            groups[name].append(feats)
    return groups


def split_task(groups, class0: str, class1: str, seed: int, test_fraction: float = 0.2):
    """Stratified split: one default_rng(seed) permutes each class in turn,
    the first round(fraction * size) positions are held out."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for label, name in ((0, class0), (1, class1)):
        group = groups[name]
        order = rng.permutation(len(group))
        n_test = int(round(test_fraction * len(group)))
        for pos, idx in enumerate(order):
            (test if pos < n_test else train).append((group[idx], label))
    return train, test


def encode(features: np.ndarray) -> np.ndarray:
    """Rows of L2-normalised amplitudes, zero-padded to a power of two."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    width = 1 << max(0, (x.shape[1] - 1).bit_length())
    amps = np.zeros((x.shape[0], width))
    amps[:, : x.shape[1]] = x / np.linalg.norm(x, axis=1, keepdims=True)
    return amps


def ry(angles: np.ndarray) -> np.ndarray:
    """RY matrices for a vector of angles, shape (T, 2, 2)."""
    c, s = np.cos(angles / 2.0), np.sin(angles / 2.0)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def ansatz_unitary(theta, k: int) -> np.ndarray:
    """The whole circuit on k data qubits as one 2^k x 2^k matrix; a
    (T, P) stack of angle vectors gives a (T, 2^k, 2^k) stack."""
    theta = np.asarray(theta, dtype=float)
    thetas = np.atleast_2d(theta)
    layers = thetas.shape[1] // k
    if k == 1:
        ring = ()
    elif k == 2:
        ring = ((0, 1),)
    else:
        ring = tuple((q, (q + 1) % k) for q in range(k))
    bits = [[(idx >> (k - 1 - q)) & 1 for q in range(k)] for idx in range(1 << k)]
    cz = np.array([(-1.0) ** sum(b[a] & b[c] for a, c in ring) for b in bits])
    u = np.broadcast_to(np.eye(1 << k), (thetas.shape[0], 1 << k, 1 << k))
    for layer in range(layers):
        rot = np.ones((thetas.shape[0], 1, 1))
        for q in range(k):
            rot = np.einsum("tab,tcd->tacbd", rot, ry(thetas[:, layer * k + q]))
            rot = rot.reshape(thetas.shape[0], rot.shape[1] * 2, rot.shape[3] * 2)
        u = (cz[:, None] * rot) @ u
    return u if theta.ndim == 2 else u[0]


def readout_one_probability(amps: np.ndarray, u: np.ndarray, readout: int) -> np.ndarray:
    """p(readout qubit = 1) of each row after the circuit."""
    k = u.shape[0].bit_length() - 1
    out = amps @ u.T
    mask = np.array([(idx >> (k - 1 - readout)) & 1 for idx in range(1 << k)], dtype=bool)
    return np.sum(np.abs(out[:, mask]) ** 2, axis=1)


def accuracy(samples, theta, readout: int = 0, threshold: float = 0.5):
    """(fraction correct, samples within NEAR_THRESHOLD of the threshold)."""
    feats = np.array([f for f, _ in samples])
    labels = np.array([lab for _, lab in samples])
    amps = encode(feats)
    k = amps.shape[1].bit_length() - 1
    p_one = readout_one_probability(amps, ansatz_unitary(theta, k), readout)
    predicted = (p_one >= threshold).astype(int)
    near = int(np.count_nonzero(np.abs(p_one - threshold) < NEAR_THRESHOLD))
    return float(np.mean(predicted == labels)), near


def batch_losses(amps: np.ndarray, thetas, readout: int = 0) -> np.ndarray:
    """1 - Tr(rho sigma) for a balanced batch at each angle vector of thetas.

    amps holds the batch's 2^n encoded samples, class 0 first. rho is the
    reduced state on (readout qubit, address register) of the circuit
    output sum_i U|x_i>|i> / sqrt(N); sigma projects on the label state
    |l> = sum_i |r_i>|i> / sqrt(N), whose readout bit r_i is 0 on the lower
    address half and 1 on the upper half. Expanded, <l|rho|l> is
    sum over the other data qubits of |sum_i (U x_i)[r_i, rest]|^2 / N^2.
    """
    size, width = amps.shape
    k = width.bit_length() - 1
    out = amps @ np.swapaxes(ansatz_unitary(np.atleast_2d(thetas), k), 1, 2)
    bit = (np.arange(width) >> (k - 1 - readout)) & 1
    picked = out[:, : size // 2][:, :, bit == 0].sum(1) + out[:, size // 2 :][:, :, bit == 1].sum(1)
    return 1.0 - np.sum(picked**2, axis=1) / size**2


def replay_training(train, theta0, n: int, epochs: int, learning_rate: float, batch_seed: int,
                    readout: int = 0):
    """Per-epoch mean batch losses and final angles of varq's per-batch
    gradient descent, recomputed with the exact gradient.

    Batches follow the trainer's documented order: each class, in split
    order, is permuted by one default_rng(batch_seed + epoch), and batch b
    takes the b-th 2^(n-1) of each. Each angle drives one RY gate, so the
    loss is a sinusoid in it and the parameter shift
    (L(t + pi/2) - L(t - pi/2)) / 2 is its exact derivative.
    """
    half = 1 << (n - 1)
    classes = [encode(np.array([f for f, lab in train if lab == c])) for c in (0, 1)]
    theta = np.asarray(theta0, dtype=float)
    shift = np.pi / 2 * np.eye(theta.shape[0])
    probes = np.vstack([np.zeros_like(theta), shift, -shift])
    epoch_losses = []
    for epoch in range(1, epochs + 1):
        rng = np.random.default_rng(batch_seed + epoch)
        orders = [rng.permutation(len(amps)) for amps in classes]
        losses = []
        for b in range(min(len(amps) for amps in classes) // half):
            batch = np.vstack([amps[order[b * half : (b + 1) * half]]
                               for amps, order in zip(classes, orders)])
            values = batch_losses(batch, theta + probes, readout)
            grad = (values[1 : theta.shape[0] + 1] - values[theta.shape[0] + 1 :]) / 2.0
            losses.append(values[0])
            theta = theta - learning_rate * grad
        epoch_losses.append(float(np.mean(losses)))
    return epoch_losses, theta
