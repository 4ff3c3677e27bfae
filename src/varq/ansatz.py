"""Layered parameterized circuit applied to the data qubits.

Each layer applies one RY rotation per data qubit (trainable angles,
layer-major / qubit-minor order), then a ring of CZ entanglers.
Rotations and entanglers are all real, so real input amplitudes stay
real.

The circuit runs on a stack of states with a leading stack axis: each
stack row may carry its own angle vector, so the 2P+1 probes of a
central-difference gradient, or every sample of an accuracy pass, take
one kernel call per gate. apply_ansatz is the one-row case.
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


def _ry_rows(psi: np.ndarray, q: int, cos: np.ndarray, sin: np.ndarray) -> None:
    # psi is (rows, 2^num_qubits); the view puts qubit q on axis 2.
    v = psi.reshape(psi.shape[0], 1 << q, 2, -1)
    a, b = v[:, :, 0], v[:, :, 1]
    upper = cos * a - sin * b
    v[:, :, 1] = sin * a + cos * b
    v[:, :, 0] = upper


def _cz_rows(psi: np.ndarray, a: int, b: int) -> None:
    a, b = min(a, b), max(a, b)
    v = psi.reshape(psi.shape[0], 1 << a, 2, 1 << (b - a - 1), 2, -1)
    v[:, :, 1, :, 1] *= -1.0


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
    if not np.all(np.isfinite(thetas)):
        raise ConfigurationError("parameter vector contains non-finite values")
    rows = max(thetas.shape[0], amplitudes.shape[0])
    psi = np.array(np.broadcast_to(amplitudes, (rows, amplitudes.shape[1])), dtype=np.complex128)
    # One cos/sin column per angle, shaped to broadcast over a kernel view.
    cos = np.cos(thetas / 2.0)[:, :, None, None]
    sin = np.sin(thetas / 2.0)[:, :, None, None]
    for kind, a, b in spec.schedule:
        if kind == "RY":
            _ry_rows(psi, data_qubits[a], cos[:, b], sin[:, b])
        else:
            _cz_rows(psi, data_qubits[a], data_qubits[b])
    return psi


def apply_ansatz(
    spec: AnsatzSpec,
    theta: ParameterVector,
    state: StateVector,
    data_qubits: Sequence[int],
) -> StateVector:
    """Apply the parameterized circuit to `data_qubits`, identity elsewhere."""
    out = run_ansatz(spec, theta.values[None, :], state.amplitudes[None, :], data_qubits)
    return StateVector(state.num_qubits, out[0])
