"""Parameterized circuit template: structure, application, batching identity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from varq import (
    AnsatzSpec,
    ConfigurationError,
    EncodedSet,
    ParameterVector,
    StateVector,
    TrainConfig,
    accuracy,
    apply_ansatz,
    batched_loss,
    build_store,
    init_parameters,
    query_superposed,
    train,
)
from test_qram import random_samples

RNG = np.random.default_rng(17)


def dense_ansatz_matrix(spec, theta, n, data_qubits):
    return oracles.circuit_matrix(n, oracles.ansatz_gates(spec, theta, data_qubits))


def assert_states_match_gate_reference(spec, num_qubits, data_qubits, rng):
    """apply_ansatz on groups of 1 and 3 states, one call per state,
    against the gate list applied one gate at a time to each state."""
    for rows in (1, 3):
        theta = rng.uniform(0, 2 * np.pi, spec.parameter_count)
        amps = np.array([oracles.random_state(rng, num_qubits) for _ in range(rows)])
        ops = oracles.ansatz_gates(spec, theta, data_qubits)
        for state in amps:
            out = apply_ansatz(spec, ParameterVector(theta), StateVector(state), data_qubits)
            expected = oracles.apply_gates_local(state, num_qubits, ops)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


class TestAnsatzSpec:
    def test_single_qubit_single_layer(self):
        spec = AnsatzSpec(1, 1)
        assert spec.parameter_count == 1
        assert spec.schedule == (("RY", 0, 0),)
        assert spec.gate_count == 1

    def test_two_qubits_three_layers(self):
        spec = AnsatzSpec(2, 3)
        assert spec.parameter_count == 6
        assert spec.schedule == (("RY", 0, 0), ("RY", 1, 1), ("CZ", 0, 1))
        assert spec.gate_count == 9

    def test_three_qubits_have_full_ring(self):
        spec = AnsatzSpec(3, 1)
        ring = [(a, b) for kind, a, b in spec.schedule if kind == "CZ"]
        assert ring == [(0, 1), (1, 2), (2, 0)]

    def test_parameter_ordering_is_layer_major(self):
        spec = AnsatzSpec(2, 2)
        ry = [(a, b) for kind, a, b in spec.schedule if kind == "RY"]
        assert ry == [(0, 0), (1, 1)]
        # The layer matrices read qubit q of layer l from angle l*k + q:
        # gather holds 2 * angle for its cosine and 2 * angle + 1 for its sine.
        gather = spec.layer_plan[0]
        read = [(q, np.unique(gather[q, layer] // 2).tolist()) for layer in (0, 1) for q in (0, 1)]
        assert read == [(0, [0]), (1, [1]), (0, [2]), (1, [3])]

    @pytest.mark.parametrize("layers", range(1, 4))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_schedule_names_the_oracle_gate_list(self, k, layers):
        # Angle j is the number j, so an RY record's angle is its index. The
        # circuit is the one-layer schedule `layers` times, layer l reading
        # angle l*k + q where the schedule names angle q.
        spec = AnsatzSpec(k, layers)
        gates = oracles.ansatz_gates(spec, np.arange(spec.parameter_count), range(k))
        named = [
            ("RY", g.targets[0], int(g.angle)) if g.kind == "RY"
            else (g.kind, g.controls[0], g.targets[0])
            for g in gates
        ]
        repeated = [
            (kind, a, layer * k + b if kind == "RY" else b)
            for layer in range(layers)
            for kind, a, b in spec.schedule
        ]
        assert named == repeated

    @pytest.mark.parametrize("layers", range(1, 4))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_gate_count_and_layer_plan_build_no_schedule(self, k, layers):
        # Both read the one-layer schedule, which does not grow with the
        # layer count: neither lists every gate.
        spec = AnsatzSpec(k, layers)
        assert spec.schedule == AnsatzSpec(k, 1).schedule
        gates = oracles.ansatz_gates(spec, np.zeros(spec.parameter_count), range(k))
        assert spec.gate_count == layers * len(spec.schedule) == len(gates)
        assert spec.layer_plan[0].shape == (k, layers, 1 << k, 1 << k)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            AnsatzSpec(k=0, layers=1)
        with pytest.raises(ConfigurationError):
            AnsatzSpec(k=2, layers=0)

    def test_zero_angles_even_layers_pin_to_identity(self):
        # Two CZ per pair cancel, RY(0) is the identity rotation.
        spec = AnsatzSpec(2, 2)
        mat = dense_ansatz_matrix(spec, ParameterVector(np.zeros(4)), 2, (0, 1))
        assert_allclose(mat, np.eye(4), atol=1e-12)

    def test_zero_angles_odd_layers_pin_to_cz(self):
        spec = AnsatzSpec(2, 1)
        mat = dense_ansatz_matrix(spec, ParameterVector(np.zeros(2)), 2, (0, 1))
        assert_allclose(mat, np.diag([1, 1, 1, -1]), atol=1e-12)


class TestParameterVector:
    def test_length(self):
        assert len(ParameterVector([0.0, 1.0])) == 2

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterVector([np.nan])
        with pytest.raises(ConfigurationError):
            ParameterVector([np.inf, 0.0])

    def test_values_are_a_read_only_copy(self):
        source = np.array([0.1, 0.2])
        theta = ParameterVector(source)
        with pytest.raises(ValueError):
            theta.values[0] = 5.0
        source[0] = np.nan
        assert theta.values.tolist() == [0.1, 0.2]

    def test_wrong_length_rejected_at_operations(self):
        # Every entry point that takes angles refuses too few and too many.
        spec = AnsatzSpec(2, 2)
        state = StateVector(oracles.basis_state(2, 0))
        encoded = EncodedSet(np.eye(4), [0, 0, 1, 1])
        store = build_store(random_samples(np.random.default_rng(5), 1, 2))
        operations = (
            lambda theta: apply_ansatz(spec, theta, state, (0, 1)),
            lambda theta: accuracy(encoded, spec, theta),
            lambda theta: batched_loss(store, spec, theta),
            lambda theta: train(encoded, encoded, spec, TrainConfig(n=1, epochs=1),
                                initial_theta=theta),
        )
        for operation in operations:
            for angles in ([0.1], [0.1] * 5):
                with pytest.raises(ConfigurationError,
                                   match=r"theta has shape \(\d,\), spec needs \(4,\)"):
                    operation(ParameterVector(angles))
        with pytest.raises(ValueError):
            oracles.ansatz_gates(spec, ParameterVector([0.1]), (0, 1))


class TestInitParameters:
    def test_range_and_length(self):
        spec = AnsatzSpec(2, 4)
        theta = init_parameters(spec, seed=0)
        assert len(theta) == 8
        assert np.all(theta.values >= 0)
        assert np.all(theta.values < 2 * np.pi)

    def test_seed_reproducibility(self):
        spec = AnsatzSpec(3, 2)
        a = init_parameters(spec, seed=42)
        b = init_parameters(spec, seed=42)
        c = init_parameters(spec, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_seed_required(self):
        # Every initial draw names its seed, so a run repeats byte for byte.
        with pytest.raises(TypeError):
            init_parameters(AnsatzSpec(2, 4))


class TestCircuitMatrix:
    @pytest.mark.parametrize("layers", range(1, 4))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_matches_gate_reference(self, k, layers):
        # One spare qubit, before or after the data qubits, is the
        # identity environment.
        rng = np.random.default_rng(10 * k + layers)
        spec = AnsatzSpec(k, layers)
        assert_states_match_gate_reference(spec, k + 1, tuple(range(k)), rng)
        assert_states_match_gate_reference(spec, k + 1, tuple(range(1, k + 1)), rng)

    @pytest.mark.parametrize("num_qubits, data_qubits", [(3, (0, 2)), (4, (3, 1))])
    def test_matches_gate_reference_on_non_leading_qubits(self, num_qubits, data_qubits):
        rng = np.random.default_rng(num_qubits)
        for layers in (1, 3):
            spec = AnsatzSpec(2, layers)
            assert_states_match_gate_reference(spec, num_qubits, data_qubits, rng)


class TestApplyAnsatz:
    def test_bare_sample_matches_dense_oracle(self):
        spec = AnsatzSpec(2, 4)
        for _ in range(10):
            theta = init_parameters(spec, seed=int(RNG.integers(1 << 30)))
            amps = oracles.random_state(RNG, 2)
            out = apply_ansatz(spec, theta, StateVector(amps), (0, 1))
            expected = dense_ansatz_matrix(spec, theta, 2, (0, 1)) @ amps
            assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_projecting_controls_equals_per_sample_application(self):
        spec = AnsatzSpec(2, 3)
        theta = init_parameters(spec, seed=5)
        store = build_store(random_samples(RNG, 1, 2))
        batched = apply_ansatz(spec, theta, query_superposed(store), (0, 1))
        for addr, row in enumerate(store.block):
            projected = oracles.project_controls(batched.amplitudes, 2, 1, addr)
            single = apply_ansatz(spec, theta, StateVector(row), (0, 1))
            assert_allclose(projected, single.amplitudes, atol=1e-10)

    def test_full_shift_by_two_pi_changes_only_global_phase(self):
        spec = AnsatzSpec(2, 2)
        theta = init_parameters(spec, seed=9)
        shifted_values = theta.values.copy()
        shifted_values[2] += 2 * np.pi
        amps = oracles.random_state(RNG, 2)
        out_a = apply_ansatz(spec, theta, StateVector(amps), (0, 1))
        out_b = apply_ansatz(spec, ParameterVector(shifted_values), StateVector(amps), (0, 1))
        assert_allclose(abs(np.vdot(out_a.amplitudes, out_b.amplitudes)), 1.0, atol=1e-10)

    def test_control_measurements_unchanged(self):
        spec = AnsatzSpec(2, 4)
        theta = init_parameters(spec, seed=21)
        store = build_store(random_samples(RNG, 2, 2))
        before = query_superposed(store)
        after = apply_ansatz(spec, theta, before, (0, 1))
        for control in (2, 3):
            assert_allclose(
                oracles.probability(after.amplitudes, control, 1),
                oracles.probability(before.amplitudes, control, 1),
                atol=1e-12,
            )

    def test_wrong_qubit_count_rejected(self):
        spec = AnsatzSpec(2, 1)
        theta = ParameterVector([0.0, 0.0])
        state = StateVector(oracles.basis_state(3, 0))
        for data_qubits in ((0,), (0, 1, 2)):
            with pytest.raises(ConfigurationError,
                               match=f"samples have {len(data_qubits)} qubits, ansatz spans 2"):
                apply_ansatz(spec, theta, state, data_qubits)

    def test_works_on_non_contiguous_qubits(self):
        spec = AnsatzSpec(2, 2)
        theta = init_parameters(spec, seed=3)
        amps = oracles.random_state(RNG, 3)
        out = apply_ansatz(spec, theta, StateVector(amps), (0, 2))
        expected = dense_ansatz_matrix(spec, theta, 3, (0, 2)) @ amps
        assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_preserves_real_amplitudes(self):
        spec = AnsatzSpec(2, 4)
        theta = init_parameters(spec, seed=8)
        cell = oracles.random_real_state(RNG, 2)
        out = apply_ansatz(spec, theta, StateVector(cell), (0, 1))
        assert_allclose(out.amplitudes.imag, 0.0, atol=1e-15)
