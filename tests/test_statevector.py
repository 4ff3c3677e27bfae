"""StateVector, and the gate-level references the suite relies on.

The package runs circuits only as circuit matrices in `ansatz`; gate
records (`oracles.GateOp`) are built and executed by the test oracles
alone. So besides the package's state record, this module checks those
references against closed-form answers: `oracles.GateOp` validation,
`oracles.apply_gates_local` (the gate-by-gate simulator behind every
gate-level loss) against the dense Kronecker matrices,
`oracles.brute_force_partial_trace` (the reduced-state oracle) against
the known reductions, and `oracles.probability` against the dense
projector.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from oracles import GateOp
from varq import ConfigurationError, StateVector

RNG = np.random.default_rng(7)


def random_gate(rng, n):
    arity = {"H": 1, "X": 1, "RY": 1, "RZ": 1, "CNOT": 2, "CZ": 2, "CSWAP": 3}
    kinds = [kind for kind, need in arity.items() if need <= n]
    kind = rng.choice(kinds)
    qubits = [int(q) for q in rng.choice(n, size=arity[kind], replace=False)]
    if kind in ("H", "X"):
        return GateOp(kind, (qubits[0],))
    if kind in ("RY", "RZ"):
        return GateOp(kind, (qubits[0],), angle=float(rng.uniform(0, 2 * np.pi)))
    if kind in ("CNOT", "CZ"):
        return GateOp(kind, (qubits[1],), (qubits[0],))
    return GateOp("CSWAP", (qubits[1], qubits[2]), (qubits[0],))


def inverse(gate):
    """H, X, CNOT, CZ, CSWAP are involutions; rotations negate the angle."""
    if gate.angle is None:
        return gate
    return GateOp(gate.kind, gate.targets, gate.controls, -gate.angle)


class TestStateVector:
    def test_zero_state(self):
        s = StateVector(oracles.basis_state(3, 0))
        assert s.num_qubits == 3
        assert s.amplitudes[0] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_basis_state_uses_qubit0_as_msb(self):
        amps = oracles.basis_state(2, 2)
        assert amps[2] == 1.0
        assert oracles.probability(amps, 0, 1) == 1.0
        assert oracles.probability(amps, 1, 0) == 1.0
        with pytest.raises(ValueError):
            oracles.basis_state(2, 4)

    def test_length_must_match_qubit_count(self):
        # The length is 2^q for a count of q qubits, so it is a power of two.
        for amps in (np.ones(0), np.ones(3), np.ones(6), np.eye(2)):
            with pytest.raises(ConfigurationError):
                StateVector(amps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan), complex(-np.inf, 0)])
    def test_non_finite_amplitudes_rejected(self, bad):
        amps = oracles.random_state(RNG, 2)
        amps[3] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            StateVector(amps)


class TestGateOp:
    def test_wrong_target_count_rejected(self):
        with pytest.raises(ValueError):
            GateOp("H", (0, 1))

    def test_missing_angle_rejected(self):
        with pytest.raises(ValueError):
            GateOp("RY", (0,))

    def test_unexpected_angle_rejected(self):
        with pytest.raises(ValueError):
            GateOp("X", (0,), angle=1.0)

    def test_repeated_qubit_rejected(self):
        with pytest.raises(ValueError):
            GateOp.cnot(1, 1)
        with pytest.raises(ValueError):
            GateOp.cswap(0, 1, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GateOp("TOFFOLI", (0,))


class TestApplyGate:
    """oracles.apply_gates_local, the gate-by-gate reference simulator."""

    def test_hadamard_on_zero(self):
        out = oracles.apply_gates_local([1.0, 0.0], 1, [GateOp.h(0)])
        assert_allclose(out, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)

    def test_x_is_an_involution(self):
        for n in (1, 3):
            amps = oracles.random_state(RNG, n)
            q = int(RNG.integers(n))
            back = oracles.apply_gates_local(amps, n, [GateOp.x(q), GateOp.x(q)])
            assert_allclose(back, amps, atol=1e-15)

    def test_ry_on_zero_matches_2x2_oracle(self):
        for _ in range(100):
            theta = float(RNG.uniform(-4 * np.pi, 4 * np.pi))
            out = oracles.apply_gates_local([1.0, 0.0], 1, [GateOp.ry(0, theta)])
            expected = oracles.ry_matrix(theta) @ np.array([1.0, 0.0])
            assert_allclose(out, expected, atol=1e-12)
            assert_allclose(out.real, [np.cos(theta / 2), np.sin(theta / 2)], atol=1e-12)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            oracles.apply_gates_local(oracles.basis_state(2, 0), 2, [GateOp.h(2)])
        with pytest.raises(ValueError):
            oracles.apply_gates_local(oracles.basis_state(2, 0), 2, [GateOp.cnot(0, 5)])

    def test_every_gate_matches_dense_oracle_up_to_6_qubits(self):
        for n in range(1, 7):
            for _ in range(30):
                gate = random_gate(RNG, n)
                amps = oracles.random_state(RNG, n)
                out = oracles.apply_gates_local(amps, n, [gate])
                expected = oracles.gate_matrix(n, gate) @ amps
                assert_allclose(out, expected, atol=1e-12)

    def test_norm_preserved_over_random_sequences(self):
        for n in (2, 4, 6):
            amps = oracles.random_state(RNG, n)
            seq = [random_gate(RNG, n) for _ in range(40)]
            out = oracles.apply_gates_local(amps, n, seq)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_gate_then_inverse_recovers_input(self):
        for n in (2, 3, 5):
            amps = oracles.random_state(RNG, n)
            for _ in range(20):
                gate = random_gate(RNG, n)
                out = oracles.apply_gates_local(amps, n, [gate, inverse(gate)])
                assert_allclose(out, amps, atol=1e-10)

    def test_apply_gates_equals_sequential_apply_gate(self):
        n = 4
        amps = oracles.random_state(RNG, n)
        seq = [random_gate(RNG, n) for _ in range(10)]
        batched = oracles.apply_gates_local(amps, n, seq)
        stepped = amps
        for g in seq:
            stepped = oracles.apply_gates_local(stepped, n, [g])
        assert_allclose(batched, stepped, atol=1e-13)

    def test_input_state_is_not_mutated(self):
        amps = oracles.basis_state(2, 0)
        before = amps.copy()
        oracles.apply_gates_local(amps, 2, [GateOp.h(0)])
        assert_allclose(amps, before, atol=0)


class TestPartialTrace:
    """oracles.brute_force_partial_trace, the reduced-state oracle."""

    def test_keep_all_returns_pure_projector(self):
        amps = oracles.random_state(RNG, 3)
        rho = oracles.brute_force_partial_trace(amps, 3, [0, 1, 2])
        assert_allclose(rho, np.outer(amps, amps.conj()), atol=1e-15)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = np.array([np.sqrt(0.5), 0, 0, np.sqrt(0.5)], dtype=complex)
        rho = oracles.brute_force_partial_trace(bell, 2, [0])
        assert_allclose(rho, np.eye(2) / 2, atol=1e-15)

    def test_matches_brute_force_double_sum(self):
        # Against the tensor form: kept qubits as rows, the rest as columns.
        amps = oracles.random_state(RNG, 4)
        mat = np.transpose(amps.reshape([2] * 4), [1, 2, 0, 3]).reshape(4, 4)
        rho = oracles.brute_force_partial_trace(amps, 4, [1, 2])
        assert_allclose(rho, mat @ mat.conj().T, atol=1e-12)

    def test_keep_order_controls_row_ordering(self):
        amps = oracles.random_state(RNG, 3)
        rho_01 = oracles.brute_force_partial_trace(amps, 3, [0, 1])
        rho_10 = oracles.brute_force_partial_trace(amps, 3, [1, 0])
        swap = [0, 2, 1, 3]  # index of |ab> in the |ba> ordering
        assert_allclose(rho_10, rho_01[np.ix_(swap, swap)], atol=1e-12)
        assert not np.allclose(rho_01, rho_10, atol=1e-3)

    def test_duplicate_or_invalid_indices_rejected(self):
        amps = oracles.basis_state(2, 0)
        with pytest.raises(ValueError):
            oracles.brute_force_partial_trace(amps, 2, [0, 0])
        with pytest.raises(ValueError):
            oracles.brute_force_partial_trace(amps, 2, [5])
        with pytest.raises(ValueError):
            oracles.brute_force_partial_trace(amps, 2, [])

    def test_reduced_state_satisfies_density_matrix_invariants(self):
        for _ in range(10):
            amps = oracles.random_state(RNG, 5)
            rho = oracles.brute_force_partial_trace(amps, 5, [0, 3])
            assert_allclose(rho, rho.conj().T, atol=1e-12)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10


class TestMeasureProbability:
    """oracles.probability, the single-qubit readout used by the tests."""

    def test_basis_state_is_certain(self):
        amps = oracles.basis_state(1, 1)
        assert oracles.probability(amps, 0, 1) == 1.0
        assert oracles.probability(amps, 0, 0) == 0.0

    def test_uniform_superposition_is_half_everywhere(self):
        amps = np.full(16, 0.25, dtype=complex)
        for q in range(4):
            assert_allclose(oracles.probability(amps, q, 0), 0.5, atol=1e-12)

    def test_outcomes_sum_to_one(self):
        amps = oracles.random_state(RNG, 3)
        for q in range(3):
            total = oracles.probability(amps, q, 0) + oracles.probability(amps, q, 1)
            assert_allclose(total, 1.0, atol=1e-12)

    def test_matches_projector_oracle(self):
        amps = oracles.random_state(RNG, 3)
        for q in range(3):
            proj = oracles.kron_place(3, {q: oracles.P1})
            expected = np.real(np.conj(amps) @ proj @ amps)
            assert_allclose(oracles.probability(amps, q, 1), expected, atol=1e-12)

    def test_invalid_outcome_rejected(self):
        with pytest.raises(ValueError):
            oracles.probability(oracles.basis_state(1, 0), 0, 2)
