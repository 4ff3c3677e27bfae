"""Simulated qRAM: class-partitioned sample store and batched retrieval.

A store holds 2^n encoded samples as one (2^n, 2^k) amplitude block,
row i at address i, and reads its n control and k data qubits from
that shape: label-0 samples in the lower address half and label-1 in
the upper half. One query returns the address-correlated superposition

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
from .errors import ConfigurationError
from .statevector import StateVector


@dataclass(frozen=True, eq=False)
class QramStore:
    """Write-once (2^n, 2^k) block, whose shape fixes n and k: row i is
    the sample at address i, label 0 below address 2^(n-1) and label 1
    from there up (`build_store` lays a batch out so)."""

    block: np.ndarray

    def __post_init__(self):
        shape = self.block.shape
        rows, width = shape if len(shape) == 2 else (0, 0)
        if rows < 2 or rows & (rows - 1) or width < 1 or width & (width - 1):
            raise ConfigurationError(f"store block has shape {shape}, expected (2^n, 2^k) with n >= 1")

    @property
    def n(self) -> int:
        return len(self.block).bit_length() - 1

    @property
    def k(self) -> int:
        return self.block.shape[1].bit_length() - 1


def build_store(batch: Sequence[EncodedSample]) -> QramStore:
    """Lay out a balanced batch: label 0 at low addresses, label 1 high.

    The batch must have power-of-two size 2^n (n >= 1) with equally many
    samples of each class; input order is preserved within each class.
    An EncodedSet is laid out from its arrays; any other sequence of
    samples, all of one width, is stacked first.
    """
    size = len(batch)
    if size < 2 or size & (size - 1):
        raise ConfigurationError(f"batch size {size} is not a power of two >= 2")
    encoded = batch
    if not isinstance(encoded, EncodedSet):
        k = batch[0].state.num_qubits
        for i, s in enumerate(batch):
            if s.state.num_qubits != k:
                raise ConfigurationError(f"sample {i} has {s.state.num_qubits} qubits, sample 0 has {k}")
        encoded = EncodedSet([s.state.amplitudes for s in batch], [s.label for s in batch])
    ones = int(np.count_nonzero(encoded.labels))
    if 2 * ones != size:
        raise ConfigurationError(
            f"unbalanced batch: {size - ones} label-0 vs {ones} label-1 samples"
        )
    order = np.argsort(encoded.labels, kind="stable")
    return QramStore(encoded.amplitudes[order])


def query_superposed(store: QramStore) -> StateVector:
    """One logical query: the (k+n)-qubit address-correlated superposition."""
    # Basis index is x * 2^n + i for data value x and address i: the
    # transposed block, flattened.
    scale = 1.0 / math.sqrt(len(store.block))
    return StateVector((store.block.T * scale).reshape(-1))
