"""Amplitude encoding of classical feature vectors.

A d-dimensional vector becomes the amplitudes of a ceil(log2 d)-qubit
state: normalize to unit L2 norm, zero-pad to the next power of two.
The map is scale-invariant and injects no phases (negative entries stay
negative real amplitudes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EncodingError
from .statevector import StateVector


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Classical sample: real feature values plus a binary class label."""

    values: np.ndarray
    label: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise EncodingError(f"feature vector must be 1-D and nonempty, got shape {vals.shape}")
        if self.label not in (0, 1):
            raise EncodingError(f"label must be 0 or 1, got {self.label}")
        object.__setattr__(self, "values", vals)

    @property
    def dimension(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class EncodedSample:
    """A feature vector as a quantum state, plus its label and origin.

    `source` is the encoded FeatureVector, or None for a state built
    directly from amplitudes.
    """

    state: StateVector
    label: int
    source: FeatureVector | None = None


def num_qubits_for(dimension: int) -> int:
    """Qubits needed to amplitude-encode a d-dimensional vector: ceil(log2 d)."""
    if dimension < 1:
        raise EncodingError(f"dimension must be >= 1, got {dimension}")
    return max(0, (dimension - 1).bit_length())


def amplitude_encode(x: FeatureVector) -> EncodedSample:
    """Encode x as a unit state with amplitudes x / ||x||, zero-padded."""
    vals = x.values
    if not np.all(np.isfinite(vals)):
        raise EncodingError("feature vector contains non-finite entries")
    norm = float(np.linalg.norm(vals))
    if norm == 0.0:
        raise EncodingError("all-zero feature vector cannot be amplitude-encoded")
    k = num_qubits_for(x.dimension)
    amps = np.zeros(1 << k, dtype=np.complex128)
    amps[: x.dimension] = vals / norm
    return EncodedSample(StateVector(k, amps), x.label, x)


def encode_dataset(samples: list[FeatureVector]) -> list[EncodedSample]:
    """Encode a homogeneous list of feature vectors, preserving order."""
    if not samples:
        return []
    d = samples[0].dimension
    encoded = []
    for i, x in enumerate(samples):
        if x.dimension != d:
            raise EncodingError(
                f"sample {i} has dimension {x.dimension}, expected {d}"
            )
        encoded.append(amplitude_encode(x))
    return encoded
