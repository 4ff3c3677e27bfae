"""Simulated qRAM: class-partitioned sample store and batched retrieval.

A store with n control qubits holds 2^n encoded samples, label-0 samples
in the lower address half and label-1 in the upper half. One query
returns the address-correlated superposition

    (1/sqrt(2^n)) * sum_i |psi_i>|i>

over k data qubits (0..k-1, most significant) and n control qubits
(k..k+n-1). The simulator places amplitudes directly rather than
simulating bucket-brigade internals; the modeled hardware cost of a
query (an H layer plus per-level routing) lives in `costmodel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import EncodedSample
from .errors import QramError
from .statevector import StateVector


@dataclass(frozen=True, eq=False)
class QramStore:
    """Write-once store: address -> encoded sample, classes split by halves."""

    n: int
    k: int
    cells: tuple[EncodedSample, ...]

    def __post_init__(self):
        if self.n < 1:
            raise QramError(f"store needs n >= 1 control qubits, got {self.n}")
        size = 1 << self.n
        if len(self.cells) != size:
            raise QramError(f"store holds {len(self.cells)} cells, expected {size}")
        half = size // 2
        for addr, cell in enumerate(self.cells):
            if cell is None:
                raise QramError(f"missing cell at address {addr}")
            if cell.state.num_qubits != self.k:
                raise QramError(
                    f"cell {addr} has {cell.state.num_qubits} qubits, store expects {self.k}"
                )
            expected_label = 0 if addr < half else 1
            if cell.label != expected_label:
                raise QramError(
                    f"address {addr} holds a label-{cell.label} sample; "
                    f"lower half must be label 0, upper half label 1"
                )

    @property
    def size(self) -> int:
        return 1 << self.n


def build_store(batch: list[EncodedSample]) -> QramStore:
    """Lay out a balanced batch: label 0 at low addresses, label 1 high.

    The batch must have power-of-two size 2^n (n >= 1) with equally many
    samples of each class; input order is preserved within each class.
    """
    size = len(batch)
    if size < 2 or size & (size - 1):
        raise QramError(f"batch size {size} is not a power of two >= 2")
    n = size.bit_length() - 1
    class0 = [s for s in batch if s.label == 0]
    class1 = [s for s in batch if s.label == 1]
    if len(class0) != len(class1):
        raise QramError(
            f"unbalanced batch: {len(class0)} label-0 vs {len(class1)} label-1 samples"
        )
    k = batch[0].state.num_qubits
    return QramStore(n, k, tuple(class0 + class1))


def query_superposed(store: QramStore) -> StateVector:
    """One logical query: the (k+n)-qubit address-correlated superposition."""
    n, k = store.n, store.k
    scale = 1.0 / math.sqrt(1 << n)
    out = np.zeros(1 << (k + n), dtype=np.complex128)
    # Basis index is x * 2^n + i for data value x and address i, so each
    # cell lands on a strided slice.
    for addr, cell in enumerate(store.cells):
        out[addr :: 1 << n] = cell.state.amplitudes * scale
    return StateVector(k + n, out)
