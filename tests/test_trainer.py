"""Gradient descent loop: gradients, batching, classification, metrics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
import varq.ansatz
from varq import (
    AnsatzSpec,
    ConfigurationError,
    EncodedSet,
    OptimizationError,
    ParameterVector,
    Shots,
    StateVector,
    TrainConfig,
    VarqError,
    accuracy,
    apply_ansatz,
    batched_loss,
    build_store,
    default_data_path,
    encode_dataset,
    init_parameters,
    load_iris,
    make_task,
    numerical_gradient,
    train,
)
from varq.ansatz import circuit_matrix
from varq.loss import central_difference, class_means
from varq.trainer import _batch_rows, _class_rows
from test_qram import random_samples, sample_from_amps

RNG = np.random.default_rng(23)


def batch_rows(labels, n, seed, epoch):
    """train's batch rows for one epoch, from the labels alone."""
    return _batch_rows(_class_rows(labels, n), n, seed, epoch)


def empty_set(k=2):
    """A split with no rows, 2^k amplitudes wide."""
    return EncodedSet(np.zeros((0, 1 << k)), [])


def predict(states, spec, theta):
    """Decisions as accuracy makes them: a row is class 1 when accuracy
    scores it correct as a one-row set labelled 1."""
    return np.array([int(accuracy(EncodedSet(row[None], [1]), spec, theta)) for row in states])


def per_sample_batches(train_set, n, seed, epoch):
    """An epoch's batching as a loop over per-sample objects: the reference
    for which rows each of train's batches holds, and in what order."""
    half = 1 << (n - 1)
    class0 = [s for s in train_set if s.label == 0]
    class1 = [s for s in train_set if s.label == 1]
    rng = np.random.default_rng(seed + epoch)
    order0 = rng.permutation(len(class0))
    order1 = rng.permutation(len(class1))
    batches = []
    for b in range(min(len(class0), len(class1)) // half):
        chunk0 = [class0[i] for i in order0[b * half : (b + 1) * half]]
        chunk1 = [class1[i] for i in order1[b * half : (b + 1) * half]]
        batches.append(chunk0 + chunk1)
    return batches


@pytest.fixture(scope="module")
def iris_task():
    records = load_iris(default_data_path())
    task = make_task(records, "setosa", "versicolor", seed=0)
    return encode_dataset(task.train), encode_dataset(task.test)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        config = TrainConfig()
        assert config.n == 2
        assert config.epochs == 100
        assert config.learning_rate == 0.05

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value, rule", [
        ("n", 2.5, ">= 1"),
        ("n", True, ">= 1"),
        ("epochs", 2.5, ">= 1"),
        ("epochs", True, ">= 1"),
        ("seed", -1, ">= 0"),
        ("seed", -2, ">= 0"),
        ("seed", 1.5, ">= 0"),
        ("seed", True, ">= 0"),
    ])
    def test_counts_and_seed_are_integers(self, field, value, rule):
        # A float count breaks range() in train and True counts as 1. Epoch
        # e shuffles with default_rng(seed + e), which a negative seed
        # shifts (-1) or breaks (-2).
        with pytest.raises(ConfigurationError, match=f"^{field} must be an integer {rule}"):
            TrainConfig(**{field: value})

    def test_large_seed_trains(self, iris_task):
        spec = AnsatzSpec(2, 1)
        config = TrainConfig(epochs=1, seed=2**70)
        theta, history = train(*iris_task, spec, config, init_parameters(spec, 2**70))
        assert history[0].steps == 20 and np.isfinite(history[0].train_loss)
        assert np.all(np.isfinite(theta.values))

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=-0.1)

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_nan_learning_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(learning_rate=float("nan"))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(shots="sampled")


class TestNumericalGradient:
    def test_constant_function_has_zero_gradient(self):
        grad = numerical_gradient(lambda th: 3.5, ParameterVector([0.1, 0.2]), 1e-3)
        assert_allclose(grad, [0.0, 0.0], atol=0)

    def test_sine_gradient_at_zero(self):
        grad = numerical_gradient(
            lambda th: float(np.sin(th.values[0])), ParameterVector([0.0, 1.0]), 1e-3
        )
        assert_allclose(grad[0], 1.0, atol=1e-6)

    def test_two_epsilon_consistency_on_batched_loss(self):
        spec = AnsatzSpec(2, 4)
        store = build_store(random_samples(RNG, 2, 2))
        for seed in range(5):
            theta = init_parameters(spec, seed=seed)
            loss_fn = lambda th: batched_loss(store, spec, th)
            g3 = numerical_gradient(loss_fn, theta, 1e-3)
            g4 = numerical_gradient(loss_fn, theta, 1e-4)
            assert np.max(np.abs(g3 - g4)) < 1e-4

    def test_gradient_is_periodic_in_each_coordinate(self):
        spec = AnsatzSpec(2, 2)
        store = build_store(random_samples(RNG, 1, 2))
        theta = init_parameters(spec, seed=2)
        loss_fn = lambda th: batched_loss(store, spec, th)
        base = numerical_gradient(loss_fn, theta, 1e-3)
        for j in range(len(theta)):
            shifted = theta.values.copy()
            shifted[j] += 2 * np.pi
            wrapped = numerical_gradient(loss_fn, ParameterVector(shifted), 1e-3)
            assert_allclose(wrapped, base, atol=1e-9)

    def test_non_finite_loss_raises_optimization_error(self):
        with pytest.raises(OptimizationError):
            numerical_gradient(lambda th: float("nan"), ParameterVector([0.0]), 1e-3)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            numerical_gradient(lambda th: 0.0, ParameterVector([0.0]), 0.0)


class TestStackedPass:
    def test_probe_order_is_base_then_plus_minus_per_coordinate(self):
        probes = oracles.probe_angles([0.5, -1.0], 0.25)
        assert_allclose(
            probes,
            [[0.5, -1.0], [0.75, -1.0], [0.25, -1.0], [0.5, -0.75], [0.5, -1.25]],
            atol=0,
        )

    @pytest.mark.parametrize("n", range(1, 10))
    def test_loss_and_gradient_match_per_probe_gate_level_circuit(self, n):
        # The reference runs each probe alone through the gate list and
        # the CSWAP swap-test circuit. Its joint register has 2^(2n+k+2)
        # amplitudes, so the large-n cases use one layer to stay fast,
        # and k = 3 runs up to n = 6.
        rng = np.random.default_rng(300 + n)
        widths = (2, 1)
        if n <= 6:
            widths += (3,)
        for k in widths:
            spec = AnsatzSpec(k, 4 if n <= 6 else 1)
            store = build_store(random_samples(rng, n, k))
            theta = ParameterVector(rng.uniform(0, 2 * np.pi, spec.parameter_count))
            cells = list(store.block)

            def reference(th):
                ops = oracles.ansatz_gates(spec, th, range(k))
                return oracles.gate_level_loss(cells, n, ops, 0)

            means = class_means(store.block)
            loss, grad = central_difference(means, spec, theta.values)
            shift = np.pi / 2 * numerical_gradient(reference, theta, np.pi / 2)
            assert abs(loss - reference(theta)) < 1e-12
            assert abs(batched_loss(store, spec, theta) - loss) < 1e-12
            assert np.max(np.abs(grad - shift)) < 1e-12

    @pytest.mark.parametrize("k", range(1, 5))
    def test_sweep_rows_match_a_stacked_pass_at_the_probe_angles(self, k, monkeypatch):
        # The reference multiplies out each probe's whole circuit and runs
        # it on the class means, one probe row at a time. The rows are the
        # p0 array a sampled readout hands to its one draw.
        read_out = varq.loss._read_out
        seen = []

        def spy(p_zero, shots):
            seen.append(p_zero.copy())
            return read_out(p_zero, shots)

        monkeypatch.setattr("varq.loss._read_out", spy)
        rng = np.random.default_rng(400 + k)
        for layers in range(1, 7):
            spec = AnsatzSpec(k, layers)
            theta = rng.uniform(0, 2 * np.pi, spec.parameter_count)
            probes = oracles.probe_angles(theta, np.pi / 2)
            for state in (oracles.random_real_state, oracles.random_state):
                store = build_store([sample_from_amps(state(rng, k), c) for c in (0, 0, 1, 1)])
                means = class_means(store.block)
                stacked = StateVector(means.reshape(-1))
                psi = np.array([
                    apply_ansatz(spec, ParameterVector(row), stacked, range(1, k + 1)).amplitudes
                    for row in probes
                ])
                grouped = psi.reshape(len(probes), 2, 2, -1)
                amps = grouped[:, 0, 0] + grouped[:, 1, 1]
                expected = 1.0 - 0.25 * np.sum(np.abs(amps) ** 2, axis=1)
                central_difference(means, spec, theta, Shots(64, seed=0))
                rows = 1.0 - (2.0 * seen.pop() - 1.0)
                assert rows.shape == expected.shape
                assert np.max(np.abs(rows - expected)) < 1e-12
                assert abs(batched_loss(store, spec, ParameterVector(theta)) - rows[0]) < 1e-15

    def test_twenty_thousand_layers_give_a_finite_loss_and_gradient(self):
        spec = AnsatzSpec(2, 20_000)
        store = build_store(random_samples(np.random.default_rng(17), 2, 2))
        theta = init_parameters(spec, seed=5)
        count = spec.parameter_count
        means = class_means(store.block)
        loss, grad = central_difference(means, spec, theta.values)
        assert np.isfinite(loss)
        for j in (0, count // 2, count - 1):
            up, down = theta.values.copy(), theta.values.copy()
            up[j] += np.pi / 2
            down[j] -= np.pi / 2
            lp = batched_loss(store, spec, ParameterVector(up))
            lm = batched_loss(store, spec, ParameterVector(down))
            assert abs(grad[j] - (lp - lm) / 2) < 1e-9

    def test_non_finite_probe_loss_names_the_parameter(self, iris_task, monkeypatch):
        # The step that would apply a non-finite gradient names its first
        # bad parameter, whichever readout produced it: the exact closed
        # form, or a sampled probe row.
        spec = AnsatzSpec(2, 2)
        original = varq.trainer.central_difference
        read_out = varq.loss._read_out

        def poisoned(means, spec, theta, shots):
            if shots is not None:
                return original(means, spec, theta, shots)
            grad = np.zeros(len(theta))
            grad[1:] = np.nan
            return 0.5, grad

        def poisoned_read_out(p_zero, shots):
            rows = read_out(p_zero, shots)
            rows[3] = np.nan  # theta + pi/2 * e_1
            return rows

        monkeypatch.setattr("varq.trainer.central_difference", poisoned)
        monkeypatch.setattr("varq.loss._read_out", poisoned_read_out)
        for shots in (None, Shots(64, seed=1)):
            with pytest.raises(OptimizationError, match="parameter 1:"):
                train(*iris_task, spec, TrainConfig(epochs=1, shots=shots),
                      initial_theta=init_parameters(spec, 0))

    def test_accuracy_matches_per_sample_gate_level_decisions(self):
        rng = np.random.default_rng(31)
        spec = AnsatzSpec(2, 3)
        theta = init_parameters(spec, seed=4)
        ops = oracles.ansatz_gates(spec, theta, (0, 1))
        samples = [
            sample_from_amps(oracles.random_real_state(rng, 2), int(rng.integers(2)))
            for _ in range(1025)
        ]
        decisions = []
        for s in samples:
            evolved = oracles.apply_gates_local(s.state.amplitudes, 2, ops)
            p_one = float(np.sum(np.abs(evolved[2:]) ** 2))
            decisions.append(1 if p_one >= 0.5 else 0)
        stack = np.array([s.state.amplitudes for s in samples])
        assert predict(stack, spec, theta).tolist() == decisions
        hits = sum(d == s.label for d, s in zip(decisions, samples))
        encoded = EncodedSet(stack, [s.label for s in samples])
        assert accuracy(encoded, spec, theta) == hits / len(samples)

    def test_accuracy_rejects_a_sample_of_the_wrong_width(self):
        # An empty split is as wide as its encoding, so its width is
        # checked too.
        spec = AnsatzSpec(2, 1)
        for encoded in (EncodedSet([[1.0, 0.0], [0.0, 1.0]], [0, 1]), empty_set(k=1),
                        EncodedSet(np.eye(8)[:2], [0, 1])):
            with pytest.raises(ConfigurationError,
                               match=f"samples have {encoded.num_qubits} qubits, ansatz spans 2"):
                accuracy(encoded, spec, ParameterVector([0.0, 0.0]))

    def test_accuracy_rejects_theta_of_the_wrong_length(self):
        spec = AnsatzSpec(2, 1)
        encoded = EncodedSet([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], [0, 1])
        for count in (1, 3):
            with pytest.raises(ConfigurationError, match="theta has shape"):
                accuracy(encoded, spec, ParameterVector(np.zeros(count)))


class TestMakeBatches:
    """Train's batching: _batch_rows picks each batch's rows, and
    class_means of the amplitude rows gives the batch's class means."""

    def test_full_iris_epoch_tiles_into_twenty_stores(self, iris_task):
        train_set, _ = iris_task
        rows = batch_rows(train_set.labels, n=2, seed=0, epoch=1)
        assert rows.shape == (20, 4)
        assert (train_set.labels[rows] == [0, 0, 1, 1]).all()
        assert len(np.unique(rows)) == rows.size

    def test_mean_batch_loss_is_the_closed_form_expectation(self, iris_task):
        # At fixed angles, the batch loss averaged over 2,000 seeded epochs
        # of train's batches lies within 4 standard errors of
        # oracles.expected_batch_loss, and the variance term of each n is
        # told apart from that of every other n by more than 20.
        train_set, _ = iris_task
        spec = AnsatzSpec(2, 4)
        theta = init_parameters(spec, seed=1).values
        matrix = circuit_matrix(spec, theta)
        expected = {
            n: oracles.expected_batch_loss(train_set.amplitudes, train_set.labels, spec, theta, n)
            for n in (1, 2, 3)
        }
        for n in expected:
            epoch_means = []
            for epoch in range(1, 2001):
                rows = batch_rows(train_set.labels, n, seed=2, epoch=epoch)
                out = class_means(train_set.amplitudes[rows]) @ matrix.T
                paired = out[:, 0, :2] + out[:, 1, 2:]
                epoch_means.append(np.mean(1.0 - 0.25 * np.sum(np.abs(paired) ** 2, axis=1)))
            se = np.std(epoch_means, ddof=1) / np.sqrt(len(epoch_means))
            gaps = {m: abs(np.mean(epoch_means) - value) for m, value in expected.items()}
            assert gaps.pop(n) <= 4 * se
            assert min(gaps.values()) > 20 * se

    def test_blocks_match_a_per_sample_reference(self, monkeypatch):
        # _batch_rows picks each batch's rows in the reference's order, and
        # every batch train scores, in order, has the class means of the
        # reference batch, to the bit.
        seen = []

        def spy(means, spec, theta, shots):
            seen.append(means.copy())
            return 0.0, np.zeros(len(theta))

        monkeypatch.setattr("varq.trainer.central_difference", spy)
        table = load_iris(default_data_path())
        spec = AnsatzSpec(2, 1)
        for class0, class1 in (
            ("setosa", "versicolor"), ("virginica", "versicolor"), ("setosa", "virginica")
        ):
            for split_seed in range(5):
                train_set = encode_dataset(make_task(table, class0, class1, seed=split_seed).train)
                for n in (1, 2, 3):
                    expected = []
                    for epoch in (1, 2, 3):
                        rows = batch_rows(train_set.labels, n, seed=2, epoch=epoch)
                        reference = per_sample_batches(train_set, n, 2, epoch)
                        assert np.array_equal(
                            train_set.amplitudes[rows],
                            [[s.state.amplitudes for s in batch] for batch in reference],
                        )
                        assert train_set.labels[rows].tolist() == [
                            [s.label for s in batch] for batch in reference
                        ]
                        expected += [
                            [
                                np.mean([s.state.amplitudes for s in batch if s.label == c], axis=0)
                                for c in (0, 1)
                            ]
                            for batch in reference
                        ]
                    seen.clear()
                    train(train_set, empty_set(), spec, TrainConfig(n=n, epochs=3, seed=2),
                          initial_theta=init_parameters(spec, 2))
                    assert len(seen) == len(expected)
                    for got, means in zip(seen, expected):
                        assert np.array_equal(got, means)

    def test_two_per_class_makes_two_minimal_stores(self):
        rows = batch_rows(np.array([0, 1, 0, 1]), n=1, seed=0, epoch=1)
        assert rows.shape == (2, 2)
        assert sorted(rows[:, 0]) == [0, 2] and sorted(rows[:, 1]) == [1, 3]

    def test_same_seed_and_epoch_reproduce_batches(self, iris_task):
        train_set, _ = iris_task
        a = batch_rows(train_set.labels, n=2, seed=7, epoch=3)
        b = batch_rows(train_set.labels, n=2, seed=7, epoch=3)
        assert np.array_equal(a, b)

    def test_different_epochs_reshuffle(self, iris_task):
        train_set, _ = iris_task
        a = batch_rows(train_set.labels, n=2, seed=7, epoch=1)
        b = batch_rows(train_set.labels, n=2, seed=7, epoch=2)
        assert not np.array_equal(a, b)

    def test_leftovers_are_dropped(self):
        labels = np.array([0] * 5 + [1] * 3)
        rows = batch_rows(labels, n=1, seed=0, epoch=1)
        assert rows.shape == (3, 2)
        assert (labels[rows] == [0, 1]).all()
        assert len(np.unique(rows)) == 6

    def test_insufficient_class_rejected(self):
        with pytest.raises(ConfigurationError, match=r"2\^0 samples per class for n=1, got 1 / 0"):
            _class_rows(np.array([0]), n=1)
        one_per_class = EncodedSet([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        with pytest.raises(ConfigurationError, match=r"2\^1 samples per class for n=2, got 1 / 1"):
            spec = AnsatzSpec(1, 1)
            train(one_per_class, empty_set(k=1), spec, TrainConfig(n=2, epochs=1),
                  initial_theta=init_parameters(spec, 0))


class TestClassify:
    """Decisions as accuracy makes them, row by row and on a whole stack."""

    def test_basis_state_with_identity_circuit(self):
        spec = AnsatzSpec(2, 2)
        theta = ParameterVector(np.zeros(4))
        states = np.array([[0, 0, 1, 0], [1, 0, 0, 0]], dtype=float)
        assert predict(states, spec, theta).tolist() == [1, 0]
        assert accuracy(EncodedSet(states, [1, 0]), spec, theta) == 1.0

    def test_tie_breaks_toward_class_one(self):
        # Under the identity circuit, p(readout = 1) of exactly 1/2 is
        # class 1 and a state just below it is class 0.
        spec = AnsatzSpec(2, 2)
        theta = ParameterVector(np.zeros(4))
        p = 0.5 - 1e-12
        states = np.array([[0.5, 0.5, 0.5, 0.5], np.sqrt([1 - p, 1 - p, p, p]) / np.sqrt(2)])
        p_one = [
            oracles.probability(
                apply_ansatz(spec, theta, StateVector(row), (0, 1)).amplitudes, 0, 1
            )
            for row in states
        ]
        assert p_one[0] == 0.5 and p_one[1] < 0.5
        assert predict(states, spec, theta).tolist() == [1, 0]
        assert accuracy(EncodedSet(states, [1, 0]), spec, theta) == 1.0

    def test_agrees_with_projector_oracle_decision(self):
        spec = AnsatzSpec(2, 3)
        for seed in range(10):
            theta = init_parameters(spec, seed=seed)
            amps = oracles.random_real_state(RNG, 2)
            mat = oracles.circuit_matrix(2, oracles.ansatz_gates(spec, theta, (0, 1)))
            evolved = mat @ amps
            proj = oracles.kron_place(2, {0: oracles.P1})
            p_one = np.real(np.conj(evolved) @ proj @ evolved)
            expected = 1 if p_one >= 0.5 else 0
            assert predict(amps[None, :], spec, theta).tolist() == [expected]

    def test_accuracy_builds_one_circuit_matrix_per_call(self, monkeypatch):
        rng = np.random.default_rng(37)
        spec = AnsatzSpec(2, 3)
        theta = init_parameters(spec, seed=6)
        states = rng.standard_normal((2049, 4))
        labels = rng.integers(0, 2, len(states))
        built = []
        original = varq.trainer.circuit_matrix

        def spy(spec, theta):
            built.append(theta.shape)
            return original(spec, theta)

        monkeypatch.setattr("varq.trainer.circuit_matrix", spy)
        hits = np.count_nonzero(predict(states, spec, theta) == labels)
        built.clear()
        assert accuracy(EncodedSet(states, labels), spec, theta) == hits / len(states)
        assert built == [(spec.parameter_count,)]

    def test_accuracy_of_empty_set_is_none(self):
        spec = AnsatzSpec(2, 1)
        assert accuracy(empty_set(), spec, ParameterVector([0.0, 0.0])) is None


class TestTrain:
    def test_single_epoch_emits_single_metrics_row(self, iris_task):
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        config = TrainConfig(epochs=1)
        theta0 = init_parameters(spec, config.seed)
        theta, metrics = train(train_set, test_set, spec, config, initial_theta=theta0)
        assert len(metrics) == 1
        assert metrics[0].epoch == 1
        assert len(theta) == spec.parameter_count

    def test_zero_learning_rate_keeps_theta_and_metrics_constant(self, iris_task):
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        theta0 = init_parameters(spec, seed=1)
        config = TrainConfig(epochs=3, learning_rate=0.0)
        theta, metrics = train(train_set, test_set, spec, config, initial_theta=theta0)
        assert np.array_equal(theta.values, theta0.values)
        assert len({m.train_accuracy for m in metrics}) == 1
        assert len({m.test_accuracy for m in metrics}) == 1

    def test_exact_mode_is_deterministic(self, iris_task):
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        config = TrainConfig(epochs=2)
        theta0 = init_parameters(spec, seed=1)
        run_a = train(train_set, test_set, spec, config, initial_theta=theta0)
        run_b = train(train_set, test_set, spec, config, initial_theta=theta0)
        assert np.array_equal(run_a[0].values, run_b[0].values)
        assert run_a[1] == run_b[1]

    def test_metrics_satisfy_range_invariants(self, iris_task):
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        config = TrainConfig(epochs=2)
        theta0 = init_parameters(spec, config.seed)
        _, metrics = train(train_set, test_set, spec, config, initial_theta=theta0)
        for m in metrics:
            assert -1e-10 <= m.train_loss <= 1 + 1e-10
            assert 0.0 <= m.train_accuracy <= 1.0
            assert 0.0 <= m.test_accuracy <= 1.0

    def test_final_accuracy_matches_recomputation_from_theta(self, iris_task):
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        config = TrainConfig(epochs=2)
        theta0 = init_parameters(spec, config.seed)
        theta, metrics = train(train_set, test_set, spec, config, initial_theta=theta0)
        assert metrics[-1].train_accuracy == accuracy(train_set, spec, theta)
        assert metrics[-1].test_accuracy == accuracy(test_set, spec, theta)

    def test_empty_test_set_reports_none(self, iris_task):
        train_set, _ = iris_task
        spec = AnsatzSpec(2, 4)
        config = TrainConfig(epochs=1)
        theta0 = init_parameters(spec, config.seed)
        _, metrics = train(train_set, empty_set(), spec, config, initial_theta=theta0)
        assert metrics[0].test_accuracy is None

    @pytest.mark.parametrize(
        "rate, seed, init_seed, epochs, shots",
        # 1e308 overflows the step itself, which numpy would warn about.
        # An init_seed of None draws the initial angles from the batch seed.
        # Both readouts stop at the first step that leaves theta non-finite.
        [(float("inf"), 0, None, 1, None), (1e308, 2, 1, 3, None),
         (float("inf"), 0, None, 1, Shots(64, 1))],
        ids=["inf-0-None-1", "1e+308-2-1-3", "inf-0-None-1-shots"],
    )
    def test_infinite_learning_rate_raises_optimization_error(
        self, iris_task, rate, seed, init_seed, epochs, shots
    ):
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        config = TrainConfig(epochs=epochs, learning_rate=rate, seed=seed, shots=shots)
        theta0 = init_parameters(spec, config.seed if init_seed is None else init_seed)
        with pytest.raises(OptimizationError, match=f"epoch {epochs}"):
            train(train_set, test_set, spec, config, initial_theta=theta0)

    def test_empty_training_set_rejected(self):
        spec = AnsatzSpec(2, 1)
        with pytest.raises(ConfigurationError, match=r"2\^1 samples per class for n=2, got 0 / 0"):
            train(empty_set(), empty_set(), spec, TrainConfig(epochs=1),
                  initial_theta=init_parameters(spec, 0))

    def test_non_finite_data_is_refused_before_any_readout(self, iris_task):
        # A NaN amplitude must stop with a VarqError, not numpy's ValueError
        # from the binomial draw or a silent score from exact accuracy.
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        amps = train_set.amplitudes.copy()
        amps[7, 1] = np.nan
        with pytest.raises(VarqError, match="sample 7"):
            train(EncodedSet(amps, train_set.labels), test_set, spec,
                  TrainConfig(epochs=1, shots=Shots(64, 1)), initial_theta=init_parameters(spec, 0))
        with pytest.raises(VarqError, match="sample 7"):
            accuracy(EncodedSet(amps, train_set.labels), spec, init_parameters(spec, 0))

    def test_spec_and_data_width_must_agree(self, iris_task):
        train_set, test_set = iris_task
        spec = AnsatzSpec(3, 2)
        with pytest.raises(ConfigurationError, match="ansatz spans 3"):
            train(train_set, test_set, spec, TrainConfig(epochs=1),
                  initial_theta=init_parameters(spec, 0))
        # A test split of another width is refused before any step, too.
        spec = AnsatzSpec(2, 2)
        wide = EncodedSet(np.eye(8)[:2], [0, 1])
        with pytest.raises(ConfigurationError, match="samples have 3 qubits, ansatz spans 2"):
            train(train_set, wide, spec, TrainConfig(epochs=1),
                  initial_theta=init_parameters(spec, 0))

    def test_shots_mode_runs_and_differs_from_exact(self, iris_task):
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        theta0 = init_parameters(spec, seed=1)
        exact_cfg = TrainConfig(epochs=1)
        shots_cfg = TrainConfig(epochs=1, shots=Shots(256, seed=3))
        _, exact_metrics = train(train_set, test_set, spec, exact_cfg, initial_theta=theta0)
        _, shots_metrics = train(train_set, test_set, spec, shots_cfg, initial_theta=theta0)
        assert shots_metrics[0].train_loss != exact_metrics[0].train_loss
        assert abs(shots_metrics[0].train_loss - exact_metrics[0].train_loss) < 0.2

    def test_shots_training_draws_one_sub_seed_per_batch(self, iris_task, monkeypatch):
        # Each batch reads all its probe rows with one Shots(count, s), with
        # s the next scalar draw of default_rng(shots seed).
        spec = AnsatzSpec(2, 4)
        readouts = []
        original = varq.trainer.central_difference

        def spy(means, spec, theta, shots):
            readouts.append(shots)
            return original(means, spec, theta, shots)

        monkeypatch.setattr("varq.trainer.central_difference", spy)
        train(*iris_task, spec, TrainConfig(epochs=2, shots=Shots(256, seed=7)),
              initial_theta=init_parameters(spec, 0))
        stream = np.random.default_rng(7)
        assert len(readouts) == 2 * 20
        assert readouts == [Shots(256, int(stream.integers(1 << 62))) for _ in readouts]

    def test_complex_training_data_trains_like_its_real_part(self, iris_task):
        # A global phase on every sample leaves every overlap unchanged, so
        # the complex path through the trainer must match the real one.
        train_set, test_set = iris_task
        phased = EncodedSet(1j * train_set.amplitudes, train_set.labels)
        spec = AnsatzSpec(2, 4)
        config = TrainConfig(epochs=2)
        theta0 = init_parameters(spec, config.seed)
        theta_real, real = train(train_set, test_set, spec, config, initial_theta=theta0)
        theta_phased, phased_metrics = train(phased, test_set, spec, config, initial_theta=theta0)
        assert_allclose(theta_phased.values, theta_real.values, atol=1e-10)
        for a, b in zip(real, phased_metrics):
            assert abs(a.train_loss - b.train_loss) < 1e-12
            assert a.train_accuracy == b.train_accuracy

    def test_training_builds_no_circuit_per_probe(self, iris_task, monkeypatch):
        # Every circuit the trainer builds is at theta itself: one set of
        # layer matrices per batch and one circuit matrix per epoch.
        spec = AnsatzSpec(2, 4)
        angle_shapes = []
        original = varq.ansatz.layer_matrices

        def spy(spec, theta):
            angle_shapes.append(theta.shape)
            return original(spec, theta)

        monkeypatch.setattr(varq.ansatz, "layer_matrices", spy)
        monkeypatch.setattr(varq.loss, "layer_matrices", spy)
        train(*iris_task, spec, TrainConfig(epochs=2), initial_theta=init_parameters(spec, 0))
        assert angle_shapes == [(spec.parameter_count,)] * (2 * 20 + 2)

    def test_exact_training_reads_no_probe_rows(self, iris_task, monkeypatch):
        # Exact mode takes the closed form and reads out no probe row; shots
        # mode reads out the 2P+1 rows once per batch. Both modes run one
        # readout sweep per batch.
        spec = AnsatzSpec(2, 4)
        built, swept = [], []
        original_read_out = varq.loss._read_out
        original_sweep = varq.loss._readout_sweep

        def read_out_spy(p_zero, shots):
            built.append(p_zero.shape)
            return original_read_out(p_zero, shots)

        def sweep_spy(*args):
            swept.append(args[2].shape)
            return original_sweep(*args)

        monkeypatch.setattr("varq.loss._read_out", read_out_spy)
        monkeypatch.setattr("varq.loss._readout_sweep", sweep_spy)
        theta0 = init_parameters(spec, 0)
        train(*iris_task, spec, TrainConfig(epochs=2), initial_theta=theta0)
        assert built == []
        assert swept == [(spec.parameter_count,)] * (2 * 20)
        swept.clear()
        train(*iris_task, spec, TrainConfig(epochs=2, shots=Shots(64, seed=1)), initial_theta=theta0)
        assert built == [(1 + 2 * spec.parameter_count,)] * (2 * 20)
        assert swept == [(spec.parameter_count,)] * (2 * 20)

    @pytest.mark.parametrize("phase", [1.0, np.exp(0.7j)])
    def test_training_matches_a_probe_row_reference_loop(self, iris_task, phase):
        # The reference steps on (rows[1::2] - rows[2::2]) / 2 of probe rows
        # at pi/2 built from one circuit matrix per probe angle, and classifies
        # through the gate list; a global phase makes the data complex
        # without changing any overlap.
        train_set, test_set = iris_task
        train_set = EncodedSet(phase * train_set.amplitudes, train_set.labels)
        spec = AnsatzSpec(2, 4)
        theta0 = init_parameters(spec, seed=1)
        config = TrainConfig(epochs=12, seed=2)
        theta, metrics = train(train_set, test_set, spec, config, initial_theta=theta0)
        ref_theta, ref_metrics = oracles.probe_row_training(
            circuit_matrix, train_set, test_set, spec, theta0.values, config
        )
        assert np.max(np.abs(theta.values - ref_theta)) < 1e-10
        assert len(metrics) == len(ref_metrics) == config.epochs
        for m, (loss, train_acc, test_acc) in zip(metrics, ref_metrics):
            assert abs(m.train_loss - loss) < 1e-12
            assert (m.train_accuracy, m.test_accuracy) == (train_acc, test_acc)

    def test_batches_of_whole_classes_make_training_seed_free(self):
        # At h = 2^(n-1) = M_c every batch holds each whole class, so the
        # batch covariance C_n is 0 and the batch seed can move the angles
        # by rounding alone. With two batches per class it steers them.
        table = oracles.synthetic_iris(40, seed=1)
        task = make_task(table, "virginica", "versicolor", seed=0)
        train_set, test_set = encode_dataset(task.train), encode_dataset(task.test)
        assert np.count_nonzero(train_set.labels == 0) == 32
        spec = AnsatzSpec(2, 4)
        theta0 = init_parameters(spec, seed=1)

        def final_angles(n):
            return [
                train(train_set, test_set, spec, TrainConfig(n=n, epochs=300, seed=seed),
                      initial_theta=theta0)[0].values
                for seed in (2, 7, 11)
            ]

        whole = final_angles(6)
        assert max(np.max(np.abs(angles - whole[0])) for angles in whole[1:]) <= 1e-12
        halves = final_angles(5)
        assert min(np.max(np.abs(angles - halves[0])) for angles in halves[1:]) > 1e-6

    def test_shots_mode_is_reproducible_given_seed(self, iris_task):
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        theta0 = init_parameters(spec, seed=1)
        config = TrainConfig(epochs=2, shots=Shots(128, seed=9))
        run_a = train(train_set, test_set, spec, config, initial_theta=theta0)
        run_b = train(train_set, test_set, spec, config, initial_theta=theta0)
        assert np.array_equal(run_a[0].values, run_b[0].values)
        assert run_a[1] == run_b[1]

    def test_wrong_initial_theta_length_rejected(self, iris_task):
        train_set, test_set = iris_task
        spec = AnsatzSpec(2, 4)
        with pytest.raises(ConfigurationError):
            train(
                train_set,
                test_set,
                spec,
                TrainConfig(epochs=1),
                initial_theta=ParameterVector([0.0]),
            )
