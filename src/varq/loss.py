"""Swap-test overlap estimation and the batched loss.

The label state on 1+n qubits, data qubit 0 then the n controls, puts
the class bit in perfect correlation with the address half: weight
1/sqrt(2^n) on data bit 0 over the lower 2^(n-1) addresses and on data
bit 1 over the upper half. It is the output of H on every control then a
CNOT from control 0 (the address MSB) to the data qubit, and the tests
build it. Training minimizes

    loss = 1 - overlap,   overlap = Tr(rho_sub |label><label|)

where rho_sub is the reduced state of the batched circuit output on the
readout qubit (data qubit 0, the most significant bit) plus the control
qubits. On hardware the overlap is read by the ancilla swap test (H, one
CSWAP per compared pair, H, readout), whose ancilla-zero probability is
p0 = (1 + overlap) / 2 (Buhrman et al., "Quantum fingerprinting",
quant-ph/0102001). The label state is pure, so the simulator evaluates
that probability in closed form:

    overlap = || (<label| (x) I_env) psi ||^2

contracting the label with data qubit 0 and the n controls, the last n
qubits of the (k+n)-qubit output psi as `query_superposed` lays it out,
and summing over the other data qubits: `swap_test` returns that p0.
For a batch from a store this contraction sums each class's addresses
into that class's mean state mu_c (2^k amplitudes), which gives

    overlap = 1/4 * sum_e |(U mu_0)_{0,e} + (U mu_1)_{1,e}|^2

with U the ansatz, the first index the readout bit (data qubit 0) and e
the other data qubits. `batched_loss` computes this form from the class
means, whatever the batch size. So the loss measures how well the two
class means land on their readout values, in phase. By Jensen's
inequality this overlap is at most the mean per-sample overlap, the mean
over the batch of p(readout = label), with equality only when each class
maps to one state and the two class terms are equal. The gate-level
CSWAP circuit lives in the test oracles as the reference.

Every trainable gate is an RY, so the loss is a sinusoid in each angle
and its central difference at the shift pi/2 is its exact gradient, the
parameter-shift rule (Mitarai et al., arXiv:1803.00745):

    dL/dtheta_j = (L(theta + pi/2 e_j) - L(theta - pi/2 e_j)) / 2
                = -1/4 Re <a, b_j>

where a and b_j are the readout-paired amplitudes of U mu and Q_l J_q v_l
(see `ansatz`); probe theta +- pi/2 e_j has overlap 1/8 * ||a +- b_j||^2.

Each batch formula is written once, and `_readout_sweep` is the one
reader of a batch: it casts the layers to the means' dtype, runs the
forward sweep and pairs its output into
a = (U mu_0)[:half] + (U mu_1)[half:], half = 2^(k-1), then runs one
backward sweep, in row form from the last layer, for every suffix
product Q_l and so every b_j. `_readout_loss` reads 1 - overlap,
exactly for shots=None, else from the p0 = (1 + overlap) / 2 that
`_read_out` samples. `central_difference` reads a batch from one
`_readout_sweep`: shots=None in closed form, building no probe row
(probe rows would add about 2,000 x 15 us, some 30 ms, to a default
Iris run); a Shots as the 2P+1 probe overlaps, 1/4 |a|^2 and
1/8 (|a|^2 + |b_j|^2 +- 2 Re <a, b_j>), in one binomial draw. Either
way a batch is O(L 8^k) work and O(L 4^k) memory. `batched_loss`, the
exact loss of one stored batch, is `central_difference`'s loss on the
store's class means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzSpec, ParameterVector, forward_sweep, layer_matrices
from .errors import ConfigurationError, check_seed, is_integer
from .qram import QramStore
from .statevector import StateVector


@dataclass(frozen=True)
class Shots:
    """Sampled readout: number of ancilla measurements and RNG seed."""

    count: int
    seed: int

    def __post_init__(self):
        # numpy's binomial draw takes an integer count below 2^63.
        if not (is_integer(self.count) and 1 <= self.count < 2**63):
            raise ConfigurationError(f"shot count must be in [1, 2^63), got {self.count}")
        check_seed(self.seed, "shot seed")


def _read_out(p_zero: np.ndarray, shots: Shots | None) -> np.ndarray:
    """The reported p0 of each row: p0 itself for shots=None; for a Shots
    the hit frequency of Binomial(count, p0), every row from one
    default_rng(seed) in one draw, O(1) memory in the shot count."""
    if shots is None:
        return p_zero
    if isinstance(shots, Shots):
        # Rounding can put p_zero a few ulps above 1.
        hits = np.random.default_rng(shots.seed).binomial(shots.count, np.minimum(p_zero, 1.0))
        return hits / shots.count
    raise ConfigurationError(f"shots must be None or Shots(...), got {shots!r}")


def swap_test(
    data_state: StateVector, label: StateVector, shots: Shots | None = None
) -> float:
    """Ancilla swap test between a label state on 1+n qubits, data qubit
    0 then the n controls, and the subsystem of the data state that
    `query_superposed` lays out for it: data qubit 0, the readout, and
    the last n qubits, the controls. The loss's label has weight
    1/sqrt(2^n) on data bit 0 over the lower address half and on data
    bit 1 over the upper half.

    The readout is paired with the label's data qubit and each control
    with its label counterpart, as the CSWAPs of the circuit would pair
    them. The compared qubits become one axis of size 2^(n+1) and the
    other data qubits the environment axis; contracting the label over
    the first leaves one amplitude per environment index, whose squared
    norm is the overlap. Returns the reported p0 = (1 + overlap) / 2:
    exact for shots=None, else the hit frequency over shots.count.
    """
    n = label.num_qubits - 1
    k = data_state.num_qubits - n
    if n < 0 or k < 1:
        raise ConfigurationError(
            f"{data_state.num_qubits}-qubit state too narrow for a {label.num_qubits}-qubit label"
        )
    grouped = data_state.amplitudes.reshape(2, 1 << (k - 1), 1 << n).transpose(0, 2, 1)
    amps = label.amplitudes.conj() @ grouped.reshape(2 << n, 1 << (k - 1))
    p_zero = 0.5 * (1.0 + np.sum(np.abs(amps) ** 2))
    return float(_read_out(p_zero, shots))


def class_means(blocks: np.ndarray) -> np.ndarray:
    """Class-mean states of address-ordered batches: each (2^n, 2^k) block
    of blocks (..., 2^n, 2^k), class 0 in the lower address half, becomes
    its two class means, (..., 2, 2^k) with class 0 first."""
    *batches, size, dim = blocks.shape
    return blocks.reshape(*batches, 2, size // 2, dim).mean(axis=-2)


def _readout_sweep(means, spec, theta):
    """a = pair(U means.T) (2^(k-1),), the amplitudes the swap test
    compares, with pair(out) = out[:half, 0] + out[half:, 1]; and
    b_j = pair(Q_l J_q v_l) for every angle j = l*k + q, (P, 2^(k-1)), the
    suffix products Q_l = G_{L-1}...G_l from one backward sweep in row
    form, Q_l = Q_{l+1} G_l. Unchecked: means (2, 2^k), float64 or
    complex128; theta (P,)."""
    layers = layer_matrices(spec, theta).astype(means.dtype, copy=False)
    entering = forward_sweep(layers, means.T)
    dim = 1 << spec.k
    half = dim // 2
    paired = entering[-1, :half, 0] + entering[-1, half:, 1]
    suffix = layers.copy()
    for layer in range(spec.layers - 2, -1, -1):
        suffix[layer + 1].dot(layers[layer], out=suffix[layer])
    # pair(Q_l w) sums w[x, c] Q_l[c * half + m, x] over x and c: one
    # product of each w = J_q v_l, flattened, with Q_l regrouped to ((x, c), m).
    regrouped = suffix.reshape(spec.layers, 2, half, dim).transpose(0, 3, 1, 2)
    # J_q v_l for every layer l and qubit q, angle l*k + q's shift direction.
    flips, signs = spec.generator_plan
    terms = (entering[:-1].take(flips, axis=1) * signs).reshape(spec.layers, spec.k, 2 * dim)
    shifts = np.matmul(terms, regrouped.reshape(spec.layers, 2 * dim, half))
    return paired, shifts.reshape(-1, half)


def _readout_loss(overlap, shots: Shots | None):
    """1 - overlap as the readout reports it: exact for shots=None, else
    from the sampled p0 = (1 + overlap) / 2 of `_read_out`. overlap is
    one value or an array of rows."""
    if shots is None:
        return 1.0 - overlap
    return 1.0 - (2.0 * _read_out(0.5 * (1.0 + overlap), shots) - 1.0)


def central_difference(
    means: np.ndarray,
    spec: AnsatzSpec,
    theta: np.ndarray,
    shots: Shots | None = None,
) -> tuple[float, np.ndarray]:
    """One batch's loss at theta and its gradient, the central difference
    at the shift pi/2, from one `_readout_sweep`. shots=None builds no
    probe row: loss 1 - 1/4 |a|^2, gradient j -1/4 Re <a, b_j>. A Shots
    samples the 2P+1 probe rows, theta then theta + pi/2 e_j and
    theta - pi/2 e_j for each j, in one draw: loss rows[0], gradient
    (rows[1::2] - rows[2::2]) / 2. Nothing is checked: means are (2, 2^k),
    float64 or complex128; `train` checks theta's length once and keeps
    it finite (`ParameterVector`, then `_step` after every step).
    """
    paired, shifts = _readout_sweep(means, spec, theta)
    norm = np.vdot(paired, paired).real
    dots = shifts.dot(paired.conj()).real
    if shots is None:
        return float(_readout_loss(0.25 * norm, None)), dots * -0.25
    spread = norm + np.einsum("ij,ij->i", shifts.conj(), shifts).real
    cross = 2.0 * dots
    overlaps = np.empty(2 * spec.parameter_count + 1)
    overlaps[0] = 0.25 * norm
    overlaps[1::2] = 0.125 * (spread + cross)
    overlaps[2::2] = 0.125 * (spread - cross)
    rows = _readout_loss(overlaps, shots)
    return float(rows[0]), (rows[1::2] - rows[2::2]) / 2.0


def batched_loss(store: QramStore, spec: AnsatzSpec, theta: ParameterVector) -> float:
    """1 - overlap for one batch, read out exactly: retrieve, apply the
    ansatz to the data qubits, swap-test against the label state for the
    store's n. It is the loss `central_difference` returns for shots=None
    on the store's class means."""
    spec.check(theta, store.k)
    return central_difference(class_means(store.block), spec, theta.values)[0]
