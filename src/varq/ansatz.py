"""Layered parameterized circuit applied to the data qubits.

Each layer applies the gates of `AnsatzSpec.schedule`: one RY rotation
per data qubit (trainable angles, layer-major / qubit-minor order), then
a ring of CZ entanglers.
Rotations and entanglers are all real, so real input amplitudes stay
real.

Each layer is one real 2^k x 2^k matrix G_l: the Kronecker product of
its RY blocks times its CZ sign diagonal (`layer_matrices`, 4^k entries
per layer, 16 at k = 2). The layers are multiplied together in one
place, `forward_sweep`, which returns the state v_l entering every
layer. `circuit_matrix` is the forward sweep of the identity, and
`apply_ansatz` applies it to the data-qubit axes of one state with one
matmul.

Shifting angle j, on qubit q of layer l, by e gives
RY_q(t + e) = (c I + s J_q) RY_q(t) with c, s = cos(e/2), sin(e/2) and
J_q = [[0, -1], [1, 0]] on qubit q, and that factor commutes with the
layer's other rotations. So

    U(theta + e e_j) mu = c U mu + s Q_l J_q v_l

with Q_l = G_{L-1}...G_l. `AnsatzSpec.generator_plan` writes each J_q
as a signed bit flip. `loss` applies it to every v_l of one forward
sweep, builds every Q_l in one backward sweep from the last layer, and
reads Q_l J_q v_l on the rows the swap test compares on data qubit 0, in
both readout modes: linear in the layer count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, check_seed, is_integer
from .statevector import StateVector

DEFAULT_LAYERS = 4


@dataclass(frozen=True)
class AnsatzSpec:
    """Circuit skeleton: data-qubit count and layer count."""

    k: int
    layers: int

    def __post_init__(self):
        if not (is_integer(self.k) and self.k >= 1):
            raise ConfigurationError(f"ansatz needs an integer k >= 1 data qubits, got {self.k!r}")
        if not (is_integer(self.layers) and self.layers >= 1):
            raise ConfigurationError(f"ansatz needs an integer layers >= 1, got {self.layers!r}")

    @property
    def parameter_count(self) -> int:
        return self.k * self.layers

    @property
    def gate_count(self) -> int:
        """Gates per application: every layer's schedule."""
        return self.layers * len(self.schedule)

    def check(self, theta: ParameterVector, *widths: int) -> None:
        """Reject a theta of other than P angles, and data of other than k qubits."""
        if theta.values.shape != (self.parameter_count,):
            raise ConfigurationError(
                f"theta has shape {theta.values.shape}, spec needs ({self.parameter_count},)"
            )
        for width in widths:
            if width != self.k:
                raise ConfigurationError(f"samples have {width} qubits, ansatz spans {self.k}")

    @cached_property
    def schedule(self) -> tuple[tuple[str, int, int], ...]:
        """One layer's gates on data-qubit positions 0..k-1, in application
        order: ("RY", q, q) on every qubit, layer l reading angle l*k + q,
        then ("CZ", q, q + 1 mod k) around the ring (none at k = 1, one pair
        at k = 2). The circuit applies this list `layers` times."""
        ring = range(self.k if self.k > 2 else self.k - 1)
        return tuple([("RY", q, q) for q in range(self.k)]
                     + [("CZ", q, (q + 1) % self.k) for q in ring])

    @cached_property
    def layer_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """`schedule` as matrix layers, from one walk over its gates; every
        layer has the same gates, on its own k angles.

        RY(t)[x, y] is cos(t/2) for x == y, else sin(t/2), negated at
        x=0, y=1. So entry (x, y) of a layer's matrix is a sign times a
        product over the qubits q of cos or sin of half of q's angle.
        gather, (k, layers, 2^k, 2^k), indexes qubit q's factors in the
        interleaved cosines and sines (cos t_0/2, sin t_0/2, cos t_1/2,
        ...), one contiguous block per qubit; signs, (2^k, 2^k), holds the
        RY signs times the +-1 diagonal of the CZs, the same in every
        layer.
        """
        dim = 1 << self.k
        bits = (np.arange(dim)[:, None] >> np.arange(self.k - 1, -1, -1)) & 1
        first = np.zeros((self.k, 1, dim, dim), dtype=np.intp)
        signs = np.ones((dim, dim))
        for kind, a, b in self.schedule:
            if kind == "RY":  # in layer 0, qubit a reads angle b
                x, y = bits[:, a, None], bits[None, :, a]
                first[a] = 2 * b + (x != y)
                signs *= np.where(x < y, -1.0, 1.0)
            else:  # CZ: -1 on the rows where qubits a and b are both 1
                signs *= (1 - 2 * (bits[:, a] & bits[:, b]))[:, None]
        # Layer l reads angles l*k .. l*k + k - 1.
        return first + 2 * self.k * np.arange(self.layers)[:, None, None], signs

    @cached_property
    def generator_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """J_q = [[0, -1], [1, 0]] on qubit q as a signed bit flip:
        (J_q v)[x] = signs[q, x] * v[flips[q, x]]. flips, (k, 2^k),
        toggles q's bit of x; signs, (k, 2^k, 1), is -1 where that bit
        is 0 and +1 where it is 1."""
        masks = 1 << np.arange(self.k - 1, -1, -1)[:, None]
        x = np.arange(1 << self.k)[None, :]
        return x ^ masks, np.where(x & masks, 1.0, -1.0)[:, :, None]


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Trainable rotation angles, radians: a finite, read-only float64 copy."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ConfigurationError(f"parameter vector must be 1-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("parameter vector contains non-finite values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]


def init_parameters(spec: AnsatzSpec, seed: int) -> ParameterVector:
    """Independent uniform angles in [0, 2*pi), reproducible from seed."""
    check_seed(seed)
    if spec.parameter_count > np.iinfo(np.intp).max // 8:  # numpy's ValueError, not MemoryError
        raise ConfigurationError(f"too many angles to allocate: layers={spec.layers} on {spec.k} qubits")
    rng = np.random.default_rng(seed)
    return ParameterVector(rng.uniform(0.0, 2.0 * np.pi, size=spec.parameter_count))


def layer_matrices(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    """The real 2^k x 2^k matrices G_0..G_{L-1} of the layers for angles
    theta (P,), as an (L, 2^k, 2^k) array; qubit 0 is the most
    significant bit of the row and column index."""
    # exp(i t/2) viewed as floats is cos(t/2), sin(t/2), interleaved.
    trig = np.exp(0.5j * theta).view(np.float64)
    gather, signs = spec.layer_plan
    factors = trig.take(gather)
    # The signs are +-1, so multiplying by them first changes no bit.
    layers = factors[0] * signs
    for factor in factors[1:]:
        layers *= factor
    return layers


def forward_sweep(layers: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The states entering each layer, then the output: an (L + 1, 2^k, m)
    array whose row l is v_l = G_{l-1}...G_0 states, for layers
    (L, 2^k, 2^k) and states (2^k, m), one per column. For complex
    states, pass complex layers: one cast costs less than one per product."""
    dtype = np.promote_types(layers.dtype, states.dtype)
    entering = np.empty((len(layers) + 1,) + states.shape, dtype=dtype)
    entering[0] = states
    previous = entering[0]
    # ndarray.dot, not @: these products are tiny, and dot calls cost less.
    for layer in range(len(layers)):
        previous = layers[layer].dot(previous, out=entering[layer + 1])
    return entering


def circuit_matrix(spec: AnsatzSpec, theta: np.ndarray) -> np.ndarray:
    """U = G_{L-1}...G_0, the real 2^k x 2^k matrix of the whole circuit."""
    return forward_sweep(layer_matrices(spec, theta), np.eye(1 << spec.k))[-1]


def apply_ansatz(
    spec: AnsatzSpec,
    theta: ParameterVector,
    state: StateVector,
    data_qubits: Sequence[int],
) -> StateVector:
    """Apply the parameterized circuit to `data_qubits`, identity elsewhere."""
    num_qubits = state.num_qubits
    data_qubits = tuple(data_qubits)
    for q in data_qubits:
        if not 0 <= q < num_qubits:
            raise ConfigurationError(
                f"qubit index {q} out of range for {num_qubits}-qubit state"
            )
    if len(set(data_qubits)) != len(data_qubits):
        raise ConfigurationError(f"repeated qubit index in {data_qubits}")
    k = len(data_qubits)
    spec.check(theta, k)
    matrix = circuit_matrix(spec, theta.values)
    # With the data qubits on the trailing axes, in ansatz order, the state
    # is a stack of 2^k-vectors, one per environment index, and one matmul
    # applies the matrix to all of them: many small products, so no large
    # BLAS call whose threads cost more than the work.
    trailing = range(num_qubits - k, num_qubits)
    psi = np.moveaxis(state.amplitudes.reshape((2,) * num_qubits), data_qubits, trailing)
    out = (matrix @ psi.reshape(-1, 1 << k, 1)).reshape(psi.shape)
    return StateVector(np.moveaxis(out, trailing, data_qubits).reshape(-1))
