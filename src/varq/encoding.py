"""Amplitude encoding of classical feature vectors.

A d-dimensional vector becomes the amplitudes of a ceil(log2 d)-qubit
state: normalize to unit L2 norm, zero-pad to the next power of two.
The map is scale-invariant and injects no phases (negative entries stay
negative real amplitudes).

A dataset travels as arrays: a FeatureSet holds an (N, d) feature
matrix and an EncodedSet an (N, 2^k) amplitude matrix, each with one
0/1 label per row, and encode_dataset maps the one to the other in a
single normalization. Item i of an EncodedSet is an EncodedSample of
row i, built on each access; the pipeline itself reads only the arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    """A feature vector as a quantum state, plus its label."""

    state: StateVector
    label: int


class _LabeledRows:
    """Rows of a 2-D array with one 0/1 label each."""

    def __init__(self, rows: np.ndarray, labels):
        labels = np.asarray(labels)
        if rows.ndim != 2 or labels.shape != rows.shape[:1]:
            raise EncodingError(
                f"need a 2-D array with one label per row, got shapes {rows.shape} and {labels.shape}"
            )
        if not np.all((labels == 0) | (labels == 1)):
            raise EncodingError("labels must be 0 or 1")
        self.labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return self.labels.shape[0]


class FeatureSet(_LabeledRows):
    """Feature vectors as one (N, d) float array plus N labels."""

    def __init__(self, values, labels):
        values = np.asarray(values, dtype=np.float64)
        super().__init__(values, labels)
        if values.shape[1] < 1:
            raise EncodingError(f"feature vectors must be nonempty, got shape {values.shape}")
        self.values = values

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


class EncodedSet(_LabeledRows, Sequence):
    """Encoded samples as one (N, 2^k) amplitude array plus N labels. The
    array is complex128 only when some imaginary part is nonzero, else
    float64, so real data stacked from complex128 StateVectors stays real.
    Every amplitude must be finite; the first row that is not is named."""

    def __init__(self, amplitudes, labels):
        amplitudes = np.asarray(amplitudes)
        if np.iscomplexobj(amplitudes) and not amplitudes.imag.any():
            amplitudes = amplitudes.real
        dtype = np.complex128 if np.iscomplexobj(amplitudes) else np.float64
        amplitudes = np.ascontiguousarray(amplitudes, dtype=dtype)
        super().__init__(amplitudes, labels)
        width = amplitudes.shape[1]
        if width < 1 or width & (width - 1):
            raise EncodingError(f"amplitude rows must have power-of-two length, got {width}")
        if not np.isfinite(amplitudes).all():
            row = np.argwhere(~np.isfinite(amplitudes))[0, 0]
            raise EncodingError(f"sample {row}: amplitudes contain non-finite entries")
        self.amplitudes = amplitudes
        self.num_qubits = width.bit_length() - 1

    def __getitem__(self, index: int) -> EncodedSample:
        return EncodedSample(StateVector(self.amplitudes[index]), int(self.labels[index]))


def encode_dataset(samples: FeatureSet | Sequence[FeatureVector]) -> EncodedSet:
    """Encode each feature vector x as the unit state x / ||x||, zero-padded,
    preserving order, as real (float64) amplitudes. A FeatureSet is
    encoded without per-row work; a list is stacked into one first."""
    features = samples
    if not isinstance(features, FeatureSet):
        d = samples[0].dimension if samples else 1
        for i, x in enumerate(samples):
            if x.dimension != d:
                raise EncodingError(f"sample {i} has dimension {x.dimension}, expected {d}")
        features = FeatureSet(
            np.reshape([x.values for x in samples], (-1, d)), [x.label for x in samples]
        )
    finite = np.all(np.isfinite(features.values), axis=1)
    # Divide each row by the power of two at or above its largest entry,
    # so no norm overflows; a power-of-two scale is exact, so rows that
    # did not overflow keep every bit of x / ||x||.
    _, exponent = np.frexp(np.max(np.abs(features.values), axis=1))
    values = np.ldexp(features.values, -exponent[:, None])
    # Row-wise dot products: the kernel np.linalg.norm uses for one vector,
    # so each norm is bit-identical to the norm of that row alone.
    norms = np.sqrt((values[:, None, :] @ values[:, :, None])[:, 0, 0])
    bad = np.flatnonzero(~finite | (norms == 0.0))
    if bad.size:
        i = int(bad[0])
        if not finite[i]:
            raise EncodingError(f"sample {i}: feature vector contains non-finite entries")
        raise EncodingError(f"sample {i}: all-zero feature vector cannot be amplitude-encoded")
    d = features.dimension
    amps = np.zeros((len(features), 1 << (d - 1).bit_length()))
    amps[:, :d] = values / norms[:, None]
    return EncodedSet(amps, features.labels)
