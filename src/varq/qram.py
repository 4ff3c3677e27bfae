"""Simulated qRAM: class-partitioned sample store and batched retrieval.

A store with n control qubits holds 2^n encoded samples as one
(2^n, 2^k) amplitude block, row i at address i: label-0 samples in the
lower address half and label-1 in the upper half. One query returns the
address-correlated superposition

    (1/sqrt(2^n)) * sum_i |psi_i>|i>

over k data qubits (0..k-1, most significant) and n control qubits
(k..k+n-1). The simulator places amplitudes directly rather than
simulating bucket-brigade internals; the modeled hardware cost of a
query (an H layer plus per-level routing) lives in `costmodel`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoding import EncodedSample, EncodedSet
from .errors import ConfigurationError, QramError
from .statevector import StateVector


@dataclass(frozen=True, eq=False)
class QramStore:
    """Write-once store: row i of block is the sample at address i, with
    labels[i] its class; classes are split by address halves."""

    n: int
    k: int
    block: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise QramError(f"store needs n >= 1 control qubits, got {self.n}")
        shape = (1 << self.n, 1 << self.k)
        if self.block.shape != shape:
            raise QramError(f"store block has shape {self.block.shape}, expected {shape}")
        if self.labels.shape != shape[:1]:
            raise QramError(f"store has {self.labels.shape} labels, expected {shape[:1]}")
        wrong = np.flatnonzero(self.labels != (np.arange(shape[0]) >= shape[0] // 2))
        if wrong.size:
            addr = int(wrong[0])
            raise QramError(
                f"address {addr} holds a label-{self.labels[addr]} sample; "
                f"lower half must be label 0, upper half label 1"
            )

    @property
    def size(self) -> int:
        return 1 << self.n


def build_store(batch: Sequence[EncodedSample]) -> QramStore:
    """Lay out a balanced batch: label 0 at low addresses, label 1 high.

    The batch must have power-of-two size 2^n (n >= 1) with equally many
    samples of each class; input order is preserved within each class.
    """
    size = len(batch)
    if size < 2 or size & (size - 1):
        raise QramError(f"batch size {size} is not a power of two >= 2")
    try:
        encoded = EncodedSet.of(batch)
    except ConfigurationError as exc:
        raise QramError(str(exc)) from None
    ones = int(np.count_nonzero(encoded.labels))
    if 2 * ones != size:
        raise QramError(
            f"unbalanced batch: {size - ones} label-0 vs {ones} label-1 samples"
        )
    order = np.argsort(encoded.labels, kind="stable")
    return QramStore(
        size.bit_length() - 1, encoded.num_qubits, encoded.amplitudes[order], encoded.labels[order]
    )


def query_superposed(store: QramStore) -> StateVector:
    """One logical query: the (k+n)-qubit address-correlated superposition."""
    # Basis index is x * 2^n + i for data value x and address i: the
    # transposed block, flattened.
    scale = 1.0 / math.sqrt(store.size)
    return StateVector(store.k + store.n, (store.block.T * scale).reshape(-1))
