"""The label state, the swap test, and the batched fidelity loss."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from oracles import GateOp
from varq import (
    AnsatzSpec,
    ConfigurationError,
    EncodedSet,
    ParameterVector,
    Shots,
    StateVector,
    VarqError,
    apply_ansatz,
    batched_loss,
    build_store,
    cost_table,
    query_superposed,
    swap_test,
)
from varq import loss
from varq.ansatz import DEFAULT_LAYERS, circuit_matrix
from varq.loss import central_difference, class_means
from test_qram import random_samples, sample_from_amps

RNG = np.random.default_rng(19)


def label_state(n):
    """The label state on 1+n qubits, data qubit 0 then the n controls,
    from the basis-sum oracle."""
    return StateVector(oracles.label_state_vector(n))


def embedded_label_state(n):
    """The label state viewed as a data state with k=1 data qubit."""
    return label_state(n)


def label_circuit_gates(n):
    """The label-state preparation circuit: H on every control, then a
    CNOT from control 0 (register qubit 1, the address MSB) to the data
    qubit."""
    return [GateOp.h(q) for q in range(1, n + 1)] + [GateOp.cnot(1, 0)]


def init_theta(spec):
    return ParameterVector(RNG.uniform(0, 2 * np.pi, size=spec.parameter_count))


def init_theta_seeded(spec, seed):
    rng = np.random.default_rng(seed)
    return ParameterVector(rng.uniform(0, 2 * np.pi, size=spec.parameter_count))


class TestPrepareLabelState:
    # The label state as the oracle builds it, against the circuit that
    # prepares it: H on every control, then one CNOT.
    def test_single_control_gives_bell_state(self):
        state = label_state(1)
        assert_allclose(state.amplitudes, [np.sqrt(0.5), 0, 0, np.sqrt(0.5)], atol=1e-15)

    def test_two_controls_give_half_amplitudes_on_matched_halves(self):
        state = label_state(2)
        expected = np.zeros(8)
        expected[[0, 1, 6, 7]] = 0.5
        assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_circuit_route_matches_closed_form(self):
        for n in range(1, 7):
            circuit = oracles.circuit_matrix(n + 1, label_circuit_gates(n))[:, 0]
            assert_allclose(label_state(n).amplitudes, circuit, atol=1e-12)

    def test_data_qubit_is_unbiased(self):
        for n in range(1, 6):
            state = label_state(n)
            assert_allclose(oracles.probability(state.amplitudes, 0, 1), 0.5, atol=1e-12)

    def test_circuit_gate_list_is_hadamards_then_one_cnot(self):
        gates = label_circuit_gates(3)
        assert [g.kind for g in gates] == ["H", "H", "H", "CNOT"]
        assert gates[-1].controls == (1,)
        assert gates[-1].targets == (0,)


class TestSwapTest:
    def test_identical_states_read_zero_with_certainty(self):
        for n in (1, 2, 3):
            label = label_state(n)
            p = swap_test(embedded_label_state(n), label)
            assert_allclose(p, 1.0, atol=1e-10)
            assert_allclose(2 * p - 1, 1.0, atol=1e-10)

    def test_orthogonal_states_read_half(self):
        for n in (1, 2):
            label = label_state(n)
            flipped = StateVector(oracles.apply_gates_local(
                embedded_label_state(n).amplitudes, n + 1, [GateOp.x(0)]))
            p = swap_test(flipped, label)
            assert_allclose(p, 0.5, atol=1e-10)
            assert_allclose(2 * p - 1, 0.0, atol=1e-10)

    def test_matches_reduced_state_oracle_on_random_inputs(self):
        n = 2
        label = label_state(n)
        for _ in range(200):
            k = int(RNG.integers(1, 4))
            amps = oracles.random_state(RNG, k + n)
            controls = tuple(range(k, k + n))
            p = swap_test(StateVector(amps), label)
            expected = oracles.swap_test_p_zero(
                amps, k + n, 0, controls, label.amplitudes
            )
            assert_allclose(p, expected, atol=1e-10)

    def test_closed_form_matches_cswap_circuit(self):
        # Random widths; readout data qubit 0, the n controls last.
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            amps = oracles.random_state(rng, k + n)
            controls = tuple(range(k, k + n))
            label = label_state(n)
            got = swap_test(StateVector(amps), label)
            want = oracles.swap_test_circuit_p_zero(amps, k + n, 0, controls, label.amplitudes)
            assert abs(got - want) < 1e-12

    def test_p_zero_never_below_half_in_exact_mode(self):
        label = label_state(2)
        for _ in range(50):
            amps = oracles.random_state(RNG, 4)
            p = swap_test(StateVector(amps), label)
            assert 0.5 - 1e-10 <= p <= 1 + 1e-10

    def test_label_wider_than_state_rejected(self):
        label = label_state(2)
        with pytest.raises(ConfigurationError, match="2-qubit state too narrow for a 3-qubit"):
            swap_test(StateVector(oracles.basis_state(2, 0)), label)

    def test_gate_count_is_affine_in_controls(self):
        rows = cost_table(1, 7, AnsatzSpec(2, DEFAULT_LAYERS))
        counts = {row["n"]: row["swap_test_gates"] for row in rows}
        assert counts[2] == 5
        assert np.all(np.diff(list(counts.values())) == 1)


class TestShotsMode:
    def test_shot_count_validated(self):
        with pytest.raises(ConfigurationError):
            Shots(0, seed=0)
        with pytest.raises(ConfigurationError):
            Shots(-5, seed=0)
        with pytest.raises(ConfigurationError):
            Shots(2**63, seed=0)
        with pytest.raises(ConfigurationError):
            Shots(64, seed=-1)

    def test_shot_count_and_seed_are_integers(self):
        # A float count would draw floor(count) trials and divide by count;
        # a bool is not a count or a seed.
        for count in (64.5, True):
            with pytest.raises(ConfigurationError, match=r"^shot count must be in \[1, 2\^63\)"):
                Shots(count, 1)
        for seed in (1.5, True):
            with pytest.raises(ConfigurationError, match=r"^shot seed must be an integer >= 0"):
                Shots(64, seed)
        shots = Shots(np.int64(64), np.uint32(1))
        label = label_state(1)
        state = StateVector(oracles.random_state(RNG, 3))
        assert swap_test(state, label, shots) == swap_test(state, label, Shots(64, 1))

    def test_shot_seed_required(self):
        # Every sampled readout names its seed, so it repeats byte for byte.
        with pytest.raises(TypeError):
            Shots(64)

    def test_unknown_mode_rejected(self):
        label = label_state(1)
        state = StateVector(oracles.random_state(RNG, 3))
        with pytest.raises(ConfigurationError, match="shots must be None or Shots"):
            swap_test(state, label, shots="approximate")

    def test_non_finite_state_never_reaches_the_sampled_readout(self):
        # The state is refused where it is built, so numpy's binomial draw
        # never sees a NaN p0.
        label = label_state(1)
        amps = oracles.random_state(RNG, 3)
        amps[5] = np.nan
        with pytest.raises(VarqError, match="non-finite"):
            swap_test(StateVector(amps), label, Shots(64, 1))

    def test_same_seed_reproduces_estimate(self):
        label = label_state(1)
        state = embedded_label_state(1)
        a = swap_test(state, label, Shots(128, seed=4))
        b = swap_test(state, label, Shots(128, seed=4))
        c = swap_test(state, label, Shots(128, seed=5))
        assert a == b
        assert isinstance(c, float)

    def test_estimate_is_an_empirical_frequency(self):
        label = label_state(1)
        amps = oracles.random_state(RNG, 3)
        p = swap_test(StateVector(amps), label, Shots(64, seed=0))
        assert 0.0 <= p <= 1.0
        assert round(p * 64) == pytest.approx(p * 64)

    def test_estimator_is_unbiased_over_many_repetitions(self):
        # Statistical check: 1000 repetitions of a 1024-shot estimate.
        label = label_state(1)
        amps = oracles.random_state(RNG, 3)
        state = StateVector(amps)
        exact = swap_test(state, label)
        estimates = [
            swap_test(state, label, Shots(1024, seed=s))
            for s in range(1000)
        ]
        stderr = np.sqrt(exact * (1 - exact) / 1024)
        assert abs(np.mean(estimates) - exact) < 3 * stderr

    def test_huge_shot_count_needs_no_per_shot_memory(self):
        label = label_state(1)
        state = StateVector(oracles.random_state(RNG, 3))
        exact = swap_test(state, label)
        p = swap_test(state, label, Shots(10**11, seed=0))
        assert abs(p - exact) < 1e-4
        largest = swap_test(state, label, Shots(2**63 - 1, seed=0))
        assert abs(largest - exact) < 1e-4

    def test_swap_test_reads_the_scalar_binomial_stream(self):
        label = label_state(2)
        state = StateVector(oracles.random_state(RNG, 4))
        exact = swap_test(state, label)
        for s in range(100):
            expected = np.random.default_rng(s).binomial(4096, exact) / 4096
            assert swap_test(state, label, Shots(4096, seed=s)) == expected

    @staticmethod
    def probe_case():
        rng = np.random.default_rng(23)
        spec = AnsatzSpec(2, 4)
        means = class_means(build_store(random_samples(rng, 2, 2)).block)
        theta = rng.uniform(0, 2 * np.pi, spec.parameter_count)
        exact = oracles.probe_row_losses(circuit_matrix, means, spec, theta, np.pi / 2)
        return means, spec, theta, exact

    def test_shot_loss_and_gradient_are_unbiased(self):
        means, spec, theta, exact = self.probe_case()
        draws = [central_difference(means, spec, theta, Shots(4096, seed=s)) for s in range(1000)]
        losses = np.array([value for value, _ in draws])
        grads = np.array([grad for _, grad in draws])
        # A row's loss is 2 - 2 * (hits / 4096), hits ~ Binomial(4096, p0),
        # and gradient j is half the difference of rows 2j+1 and 2j+2.
        p_zero = 1.0 - exact / 2.0
        row_var = 4.0 * p_zero * (1.0 - p_zero) / 4096
        assert grads.shape == (1000, spec.parameter_count)
        exact_loss, exact_grad = central_difference(means, spec, theta)
        assert abs(losses.mean() - exact_loss) <= 3 * np.sqrt(row_var[0] / 1000)
        grad_stderr = np.sqrt((row_var[1::2] + row_var[2::2]) / 4 / 1000)
        assert np.all(np.abs(grads.mean(axis=0) - exact_grad) <= 3 * grad_stderr)

    def test_shot_probe_rows_are_one_binomial_draw_in_row_order(self, monkeypatch):
        means, spec, theta, exact = self.probe_case()
        read_out = loss._read_out
        seen = []

        def spy(p_zero, shots):
            seen.append(p_zero.copy())
            return read_out(p_zero, shots)

        monkeypatch.setattr(loss, "_read_out", spy)
        for s in (0, 1, 17, 4242):
            value, grad = central_difference(means, spec, theta, Shots(4096, seed=s))
            p_zero = seen.pop()
            assert p_zero.shape == (2 * spec.parameter_count + 1,)
            assert np.max(np.abs(p_zero - (1.0 - exact / 2.0))) < 1e-12
            hits = np.random.default_rng(s).binomial(4096, np.minimum(p_zero, 1.0))
            rows = 1.0 - (2.0 * hits / 4096 - 1.0)
            assert value == rows[0]
            assert np.array_equal(grad, (rows[1::2] - rows[2::2]) / 2.0)
        assert seen == []


class TestBatchedLoss:
    def test_perfectly_aligned_store_has_zero_loss(self):
        spec = AnsatzSpec(2, 2)
        theta = ParameterVector(np.zeros(4))
        store = build_store(
            [sample_from_amps([1, 0, 0, 0], 0)] * 2
            + [sample_from_amps([0, 0, 1, 0], 1)] * 2
        )
        assert_allclose(batched_loss(store, spec, theta), 0.0, atol=1e-10)

    def test_label_swapped_store_has_unit_loss(self):
        spec = AnsatzSpec(2, 2)
        theta = ParameterVector(np.zeros(4))
        store = build_store(
            [sample_from_amps([0, 0, 1, 0], 0)] * 2
            + [sample_from_amps([1, 0, 0, 0], 1)] * 2
        )
        assert_allclose(batched_loss(store, spec, theta), 1.0, atol=1e-10)

    def test_matches_density_matrix_oracle_on_random_stores(self):
        spec = AnsatzSpec(2, 3)
        label_amps = oracles.label_state_vector(2)
        for _ in range(25):
            store = build_store(random_samples(RNG, 2, 2))
            theta = init_theta(spec)
            value = batched_loss(store, spec, theta)
            state = apply_ansatz(spec, theta, query_superposed(store), (0, 1))
            rho = oracles.brute_force_partial_trace(state.amplitudes, 4, [0, 2, 3])
            fidelity = np.real(np.conj(label_amps) @ rho @ label_amps)
            assert_allclose(value, 1.0 - fidelity, atol=1e-10)

    def test_loss_stays_in_unit_interval(self):
        spec = AnsatzSpec(2, 4)
        for _ in range(30):
            store = build_store(random_samples(RNG, int(RNG.integers(1, 4)), 2))
            value = batched_loss(store, spec, init_theta(spec))
            assert -1e-10 <= value <= 1 + 1e-10

    def test_loss_is_the_central_difference_loss_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for k, n, state in itertools.product(
            (1, 2, 3), (1, 2, 3), (oracles.random_real_state, oracles.random_state)
        ):
            spec = AnsatzSpec(k, 3)
            half = 1 << (n - 1)
            store = build_store(
                [sample_from_amps(state(rng, k), c) for c in (0, 1) for _ in range(half)]
            )
            theta = ParameterVector(rng.uniform(0, 2 * np.pi, spec.parameter_count))
            value = batched_loss(store, spec, theta)
            assert value == central_difference(class_means(store.block), spec, theta.values)[0]

    def test_matches_swap_test_on_the_query_circuit(self):
        # The paper's path, query then ansatz then swap test, against the
        # class-mean fast path.
        rng = np.random.default_rng(37)
        for trial in range(300):
            k, n, layers = (int(v) for v in rng.integers(1, (4, 5, 5)))
            spec = AnsatzSpec(k, layers)
            samples = random_samples(rng, n, k)
            if trial % 2:
                samples = [
                    sample_from_amps(oracles.random_state(rng, k), s.label) for s in samples
                ]
            store = build_store(samples)
            assert store.block.dtype == (np.complex128 if trial % 2 else np.float64)
            theta = ParameterVector(rng.uniform(0, 2 * np.pi, spec.parameter_count))
            circuit = apply_ansatz(spec, theta, query_superposed(store), range(k))
            paper = 1.0 - (2 * swap_test(circuit, label_state(n)) - 1)
            assert abs(batched_loss(store, spec, theta) - paper) <= 1e-12

    def test_loss_decreases_as_fidelity_increases(self):
        label = label_state(1)
        losses, fidelities = [], []
        for angle in np.linspace(0.0, np.pi, 7):
            state = StateVector(oracles.apply_gates_local(
                embedded_label_state(1).amplitudes, 2, [GateOp.ry(0, angle)]))
            p = swap_test(state, label)
            fidelities.append(2 * p - 1)
            losses.append(1.0 - (2 * p - 1))
        order = np.argsort(fidelities)
        assert np.all(np.diff(np.array(losses)[order]) <= 0)
        assert len(set(np.round(losses, 12))) == len(losses)

    def test_single_data_qubit_loss_equals_mean_readout_error(self):
        # With one data qubit and two addresses the batched statistic
        # collapses to the average per-sample misread probability.
        spec = AnsatzSpec(1, 3)
        store = build_store(
            [sample_from_amps([1, 0], 0), sample_from_amps([0, 1], 1)]
        )
        for seed in range(10):
            theta = init_theta_seeded(spec, seed)
            value = batched_loss(store, spec, theta)
            errors = []
            for row, label in zip(store.block, np.repeat([0, 1], len(store.block) // 2)):
                out = apply_ansatz(spec, theta, StateVector(row), (0,))
                errors.append(oracles.probability(out.amplitudes, 0, 1 - label))
            assert_allclose(value, np.mean(errors), atol=1e-10)

    def test_batch_overlap_is_at_most_the_mean_per_sample_overlap(self):
        # Jensen's inequality on the class means; equality needs each
        # class to map to one state and the two class terms to be equal.
        rng = np.random.default_rng(191)
        for k, n in ((1, 1), (2, 2), (3, 3), (2, 4)):
            spec = AnsatzSpec(k, 2)
            store = build_store(random_samples(rng, n, k))
            theta = ParameterVector(rng.uniform(0, 2 * np.pi, spec.parameter_count))
            overlap = 1.0 - batched_loss(store, spec, theta)
            per_sample = [
                oracles.probability(
                    apply_ansatz(spec, theta, StateVector(row), range(k)).amplitudes,
                    0,
                    int(label),
                )
                for row, label in zip(store.block, np.repeat([0, 1], len(store.block) // 2))
            ]
            assert overlap <= np.mean(per_sample) + 1e-12

    def test_store_and_spec_width_must_agree(self):
        store = build_store(random_samples(RNG, 1, 2))
        for k in (1, 3):
            spec = AnsatzSpec(k, 1)
            with pytest.raises(ConfigurationError, match=f"samples have 2 qubits, ansatz spans {k}"):
                batched_loss(store, spec, ParameterVector(np.zeros(k)))


class TestExpectedBatchLoss:
    @pytest.mark.parametrize("complex_amps", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mean_over_every_batch_pair_is_the_closed_form(self, k, complex_amps):
        # 4 rows per class: at n = 2 every pair of 2-row class subsets is one
        # store, 6 x 6 in all, and train draws each with equal probability.
        # n = 1 enumerates 4 x 4 stores; at n = 3 the one store holds both
        # whole classes, the variance term is 0 and the centroid loss remains.
        rng = np.random.default_rng(41 + k)
        spec = AnsatzSpec(k, 3)
        theta = ParameterVector(rng.uniform(0, 2 * np.pi, spec.parameter_count))
        draw = oracles.random_state if complex_amps else oracles.random_real_state
        amps = np.array([draw(rng, k) for _ in range(8)])
        labels = np.repeat([0, 1], 4)
        expected = {}
        for n in (1, 2, 3):
            subsets = list(itertools.combinations(range(4), 1 << (n - 1)))
            losses = [
                batched_loss(build_store(EncodedSet(amps[rows], labels[rows])), spec, theta)
                for rows in (list(a) + [4 + i for i in b] for a in subsets for b in subsets)
            ]
            assert len(losses) == len(subsets) ** 2
            expected[n] = oracles.expected_batch_loss(amps, labels, spec, theta, n)
            assert abs(np.mean(losses) - expected[n]) <= 1e-12
        # The variance term lowers the expected loss and shrinks as h grows.
        assert expected[1] < expected[2] < expected[3]


class TestCentralDifference:
    """The exact-mode kernel against probe rows built from one circuit
    matrix per probe angle."""

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize(
        "epsilon, tolerance", [(1e-3, 1e-11), (1.0, 1e-11), (np.pi / 2, 1e-13)]
    )
    def test_matches_the_difference_of_probe_rows(self, k, epsilon, tolerance):
        # The loss is a sinusoid in each angle, so the central difference
        # at any step eps is sin(eps)/eps times the gradient; at eps = pi/2
        # this is the parameter shift. Unnormalized real and complex
        # means, 1..6 layers.
        rng = np.random.default_rng(500 + k)
        for layers in range(1, 7):
            spec = AnsatzSpec(k, layers)
            theta = rng.uniform(0, 2 * np.pi, spec.parameter_count)
            real = rng.standard_normal((2, 1 << k))
            for means in (real, real + 1j * rng.standard_normal((2, 1 << k))):
                rows = oracles.probe_row_losses(circuit_matrix, means, spec, theta, epsilon)
                loss, grad = central_difference(means, spec, theta)
                difference = (rows[1::2] - rows[2::2]) / (2 * epsilon)
                assert grad.shape == (spec.parameter_count,)
                assert abs(loss - rows[0]) < 1e-13
                assert np.max(np.abs(np.sin(epsilon) / epsilon * grad - difference)) < tolerance

    def test_real_means_keep_the_gradient_real(self):
        rng = np.random.default_rng(47)
        spec = AnsatzSpec(3, 2)
        means = rng.standard_normal((2, 8))
        loss, grad = central_difference(means, spec, rng.uniform(0, 6, 6))
        assert isinstance(loss, float) and grad.dtype == np.float64
