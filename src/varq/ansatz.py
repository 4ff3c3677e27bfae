"""Layered parameterized circuit applied to the data qubits.

Each layer applies one RY rotation per data qubit (trainable angles,
layer-major / qubit-minor order), then a ring of CZ entanglers.
Rotations and entanglers are all real, so real input amplitudes stay
real.

The circuit runs on a stack of states with a leading stack axis: each
stack row may carry its own angle vector, so the 2P+1 probes of a
central-difference gradient, or every sample of an accuracy pass, share
one pass. For each angle row the whole circuit is first multiplied out
into one real 2^k x 2^k matrix, layer by layer along the schedule: the
Kronecker product of the layer's RY blocks, times the layer's CZ sign
diagonal, times the product so far. That costs 4^k entries per angle
row (16 at k = 2). One matmul then applies it to the data-qubit axes of
each state. apply_ansatz is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .statevector import GateOp, StateVector

DEFAULT_LAYERS = 4


def _ring_pairs(k: int) -> tuple[tuple[int, int], ...]:
    # k=1 has no entangler; k=2 collapses the ring to a single pair.
    if k == 1:
        return ()
    if k == 2:
        return ((0, 1),)
    return tuple((q, (q + 1) % k) for q in range(k))


@dataclass(frozen=True)
class AnsatzSpec:
    """Circuit skeleton: data-qubit count and layer count."""

    k: int
    layers: int

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"ansatz needs k >= 1 data qubits, got {self.k}")
        if self.layers < 1:
            raise ConfigurationError(f"ansatz needs layers >= 1, got {self.layers}")

    @property
    def parameter_count(self) -> int:
        return self.k * self.layers

    @property
    def entangler_pairs(self) -> tuple[tuple[int, int], ...]:
        return _ring_pairs(self.k)

    @property
    def gate_count(self) -> int:
        """Gates per application: rotations plus entanglers, all layers."""
        return len(self.schedule)

    @cached_property
    def schedule(self) -> tuple[tuple[str, int, int], ...]:
        """The gate sequence on data-qubit positions 0..k-1: ("RY", qubit,
        angle index) and ("CZ", a, b) entries, in application order."""
        gates = []
        for layer in range(self.layers):
            base = layer * self.k
            gates += [("RY", q, base + q) for q in range(self.k)]
            gates += [("CZ", a, b) for a, b in self.entangler_pairs]
        return tuple(gates)

    @cached_property
    def layer_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """The schedule as matrix layers; every layer has the same number
        of gates, one RY per qubit and then its CZs.

        RY(t)[x, y] is cos(t/2) for x == y, else sin(t/2), negated at
        x=0, y=1. So entry (x, y) of a layer's matrix is a sign times a
        product over the qubits q of cos or sin of half of q's angle.
        gather, (layers, k, 2^k, 2^k), indexes those factors in the P
        cosines followed by the P sines; signs, (layers, 2^k, 2^k), holds
        the RY signs times the +-1 diagonal of the layer's CZs.
        """
        dim = 1 << self.k
        bits = (np.arange(dim)[:, None] >> np.arange(self.k - 1, -1, -1)) & 1
        gather = np.zeros((self.layers, self.k, dim, dim), dtype=np.intp)
        signs = np.ones((self.layers, dim, dim))
        per_layer = len(self.schedule) // self.layers
        for i, (kind, a, b) in enumerate(self.schedule):
            layer = i // per_layer
            if kind == "RY":
                x, y = bits[:, a, None], bits[None, :, a]
                gather[layer, a] = b + self.parameter_count * (x != y)
                signs[layer] *= np.where(x < y, -1.0, 1.0)
            else:
                signs[layer] *= (1 - 2 * (bits[:, a] & bits[:, b]))[:, None]
        return gather, signs

    def operations(self, theta: "ParameterVector", data_qubits: Sequence[int]) -> tuple[GateOp, ...]:
        """The concrete gate sequence on the given qubits for angles theta."""
        self._check_shapes(len(theta.values), len(data_qubits))
        return tuple(
            GateOp.ry(data_qubits[a], theta.values[b]) if kind == "RY"
            else GateOp.cz(data_qubits[a], data_qubits[b])
            for kind, a, b in self.schedule
        )

    def _check_shapes(self, num_angles: int, num_data_qubits: int) -> None:
        if num_data_qubits != self.k:
            raise ConfigurationError(
                f"ansatz spans {self.k} qubits, got {num_data_qubits} data qubits"
            )
        if num_angles != self.parameter_count:
            raise ConfigurationError(
                f"theta has {num_angles} angles, spec needs {self.parameter_count}"
            )


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Trainable rotation angles, radians."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ConfigurationError(f"parameter vector must be 1-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("parameter vector contains non-finite values")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]


def default_ansatz(k: int, layers: int = DEFAULT_LAYERS) -> AnsatzSpec:
    """The RY-rotation / CZ-ring circuit on k qubits."""
    return AnsatzSpec(k=k, layers=layers)


def init_parameters(spec: AnsatzSpec, seed: int | None = None) -> ParameterVector:
    """Independent uniform angles in [0, 2*pi), reproducible from seed."""
    rng = np.random.default_rng(seed)
    return ParameterVector(rng.uniform(0.0, 2.0 * np.pi, size=spec.parameter_count))


def _circuit_matrices(spec: AnsatzSpec, thetas: np.ndarray) -> np.ndarray:
    """The real 2^k x 2^k matrix of the whole circuit for each row of
    thetas (T, P), as a (T, 2^k, 2^k) array; qubit 0 is the most
    significant bit of the row and column index."""
    half = thetas / 2.0
    trig = np.concatenate([np.cos(half), np.sin(half)], axis=1)
    # One layer at a time, so the working set stays O(T k 4^k).
    product = None
    for gather, signs in zip(*spec.layer_plan):
        layer = trig.take(gather, axis=1).prod(axis=1) * signs
        product = layer if product is None else layer @ product
    return product


def run_ansatz(
    spec: AnsatzSpec,
    thetas: np.ndarray,
    amplitudes: np.ndarray,
    data_qubits: Sequence[int],
) -> np.ndarray:
    """Apply the circuit to a stack of states, one angle vector per row.

    thetas is (T, P) and amplitudes is (A, 2^q); T and A are equal, or
    one of them is 1 and is broadcast over the other. Returns a new
    (max(T, A), 2^q) complex array; `data_qubits` index the q-qubit
    register, identity elsewhere.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    num_qubits = amplitudes.shape[1].bit_length() - 1
    data_qubits = tuple(data_qubits)
    for q in data_qubits:
        if not 0 <= q < num_qubits:
            raise ConfigurationError(
                f"qubit index {q} out of range for {num_qubits}-qubit state"
            )
    if len(set(data_qubits)) != len(data_qubits):
        raise ConfigurationError(f"repeated qubit index in {data_qubits}")
    spec._check_shapes(thetas.shape[1], len(data_qubits))
    if not np.isfinite(thetas).all():
        raise ConfigurationError("parameter vector contains non-finite values")
    matrices = _circuit_matrices(spec, thetas)[:, None]
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    # With the data qubits on the trailing axes, in ansatz order, a state
    # is a stack of 2^k-vectors, one per environment index, and one matmul
    # applies each row's matrix to all of them: many small products, so
    # no large BLAS call whose threads cost more than the work.
    k = len(data_qubits)
    rows = amplitudes.shape[0]
    if data_qubits == tuple(range(num_qubits - k, num_qubits)):
        out = matrices @ amplitudes.reshape(rows, -1, 1 << k, 1)
        return out.reshape(out.shape[0], -1)
    shape = (rows,) + (2,) * num_qubits
    data_axes = [1 + q for q in data_qubits]
    trailing = range(1 + num_qubits - k, 1 + num_qubits)
    psi = np.moveaxis(amplitudes.reshape(shape), data_axes, trailing)
    out = matrices @ psi.reshape(rows, -1, 1 << k, 1)
    out = out.reshape((out.shape[0],) + psi.shape[1:])
    return np.moveaxis(out, trailing, data_axes).reshape(out.shape[0], -1)


def apply_ansatz(
    spec: AnsatzSpec,
    theta: ParameterVector,
    state: StateVector,
    data_qubits: Sequence[int],
) -> StateVector:
    """Apply the parameterized circuit to `data_qubits`, identity elsewhere."""
    out = run_ansatz(spec, theta.values[None, :], state.amplitudes[None, :], data_qubits)
    return StateVector(state.num_qubits, out[0])
