"""End-to-end acceptance checks for the batched variational classifier.

Each test prints one PASS or FAIL line naming its criterion. Every
default-configuration Iris run (n = 2, 100 epochs) comes from
`iris_run`, cached by species pair, split seed and (init, batch) seed
pair. The first two criteria share a module-scoped fixture holding
fifteen of them: three species pairs, five train/test split seeds each,
seeds (1, 2). The initialisation test reads the same fifteen from the
cache, so each is trained once.
"""

import functools
import json
import time

import numpy as np
import pytest

import oracles
from varq import (
    AnsatzSpec,
    ParameterVector,
    StateVector,
    TrainConfig,
    apply_ansatz,
    build_store,
    cost_table,
    default_data_path,
    encode_dataset,
    init_parameters,
    load_iris,
    make_task,
    numerical_gradient,
    query_superposed,
    swap_test,
    train,
)
from varq.ansatz import DEFAULT_LAYERS
from varq.cli import main
from varq.loss import Shots, batched_loss
from test_loss import label_state
from test_qram import random_samples

TASKS = (
    ("setosa", "versicolor"),
    ("virginica", "versicolor"),
    ("setosa", "virginica"),
)
SPLIT_SEEDS = (0, 1, 2, 3, 4)
# Criterion 1's band of final (train, test) accuracy for each task.
BANDS = {
    ("setosa", "versicolor"): lambda tr, te: tr == 1.0 and te == 1.0,
    ("virginica", "versicolor"): lambda tr, te: tr >= 0.875 and te >= 0.85,
    ("setosa", "virginica"): lambda tr, te: tr >= 0.95 and te >= 0.90,
}

LOSS_EPS = 1e-10


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {status}: {description}{detail}")
    assert ok, f"acceptance criterion {num} failed: {description}{detail}"


@functools.cache
def iris_run(pair, split_seed, init_seed, batch_seed):
    """The per-epoch metrics of one default Iris run on pair's split."""
    task = make_task(load_iris(default_data_path()), *pair, seed=split_seed)
    train_set, test_set = encode_dataset(task.train), encode_dataset(task.test)
    spec = AnsatzSpec(train_set.num_qubits, DEFAULT_LAYERS)
    config = TrainConfig(n=2, epochs=100, seed=batch_seed)
    theta0 = init_parameters(spec, seed=init_seed)
    return train(train_set, test_set, spec, config, initial_theta=theta0)[1]


@pytest.fixture(scope="module")
def iris_runs():
    return {pair: [iris_run(pair, s, 1, 2) for s in SPLIT_SEEDS] for pair in TASKS}


def test_criterion_1_iris_table_reproduction(iris_runs):
    details = []
    ok = True
    for pair, in_band in BANDS.items():
        hits = sum(
            1
            for metrics in iris_runs[pair]
            if in_band(metrics[-1].train_accuracy, metrics[-1].test_accuracy)
        )
        details.append(f"{pair[0]}-vs-{pair[1]} {hits}/5 in band")
        ok = ok and hits >= 4
    report(1, "Iris accuracy table reproduced within bands", ok, f" ({'; '.join(details)})")


@pytest.mark.parametrize("n", (1, 3, 5))
def test_equal_steps_reach_criterion_1_band_at_every_n(n):
    # 2,000 angle updates at batch size 2^n: the 40 training rows per class
    # make 40 / 2^(n-1) batches per epoch. At the default 100 epochs a
    # larger n takes fewer steps; at equal steps it stays in the band.
    records = load_iris(default_data_path())
    task = make_task(records, "virginica", "versicolor", seed=0)
    train_set, test_set = encode_dataset(task.train), encode_dataset(task.test)
    spec = AnsatzSpec(train_set[0].state.num_qubits, DEFAULT_LAYERS)
    config = TrainConfig(n=n, epochs=2000 // (40 >> (n - 1)), seed=2)
    _, metrics = train(
        train_set, test_set, spec, config, initial_theta=init_parameters(spec, seed=1)
    )
    assert sum(m.steps for m in metrics) == 2000
    assert metrics[-1].train_accuracy >= 0.875 and metrics[-1].test_accuracy >= 0.85


@pytest.mark.parametrize("pair", TASKS, ids="-vs-".join)
def test_criterion_1_band_holds_across_initialisations(pair):
    # Criterion 1 trains one (init, batch) seed pair, 1 and 2. Five pairs,
    # init i + 1 and batch 2 + 100 i, on each of the five splits: the band
    # must not hang on that one pair.
    hits = 0
    for split_seed in SPLIT_SEEDS:
        for i in range(5):
            final = iris_run(pair, split_seed, i + 1, 2 + 100 * i)[-1]
            hits += BANDS[pair](final.train_accuracy, final.test_accuracy)
    assert hits >= 23, f"{'-vs-'.join(pair)}: {hits}/25 runs in criterion 1's band"


def test_criterion_2_loss_descends_and_stays_bounded(iris_runs):
    ok = True
    worst = -np.inf
    for per_seed in iris_runs.values():
        for metrics in per_seed:
            losses = [m.train_loss for m in metrics]
            ok = ok and losses[-1] < losses[0]
            ok = ok and all(-LOSS_EPS <= v <= 1 + LOSS_EPS for v in losses)
            worst = max(worst, losses[-1] - losses[0])
    report(
        2,
        "final epoch loss below first epoch loss, all losses within [0, 1]",
        ok,
        f" (max final-minus-first delta {worst:+.3f})",
    )


def test_criterion_3_swap_test_matches_reduced_state_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = 1 + trial % 3
        k = int(rng.integers(1, 4))
        label = label_state(n)
        amps = oracles.random_state(rng, k + n)
        controls = tuple(range(k, k + n))
        got = swap_test(StateVector(amps), label)
        want = oracles.swap_test_p_zero(amps, k + n, 0, controls, label.amplitudes)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    report(
        3,
        "1000 swap tests match the reduced-state formula",
        ok,
        f" (max error {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_4_retrieval_state_correctness():
    rng = np.random.default_rng(103)
    worst_place, worst_project = 0.0, 0.0
    for trial in range(200):
        n = 1 + trial % 3
        store = build_store(random_samples(rng, n, 2))
        out = query_superposed(store).amplitudes
        expected = oracles.amplitude_placement(list(store.block), n)
        worst_place = max(worst_place, np.max(np.abs(out - expected)))
        for addr, row in enumerate(store.block):
            recovered = oracles.project_controls(out, store.k, n, addr)
            worst_project = max(worst_project, np.max(np.abs(recovered - row)))
    ok = worst_place < 1e-12 and worst_project < 1e-10
    report(
        4,
        "200 random stores match the amplitude-placement oracle",
        ok,
        f" (placement {worst_place:.2e}, projection {worst_project:.2e})",
    )


def test_criterion_5_batching_identity():
    rng = np.random.default_rng(105)
    spec = AnsatzSpec(2, 4)
    worst = 0.0
    for trial in range(100):
        n = 1 + trial % 2
        store = build_store(random_samples(rng, n, 2))
        theta = ParameterVector(rng.uniform(0, 2 * np.pi, spec.parameter_count))
        batched = apply_ansatz(spec, theta, query_superposed(store), (0, 1))
        for addr, row in enumerate(store.block):
            projected = oracles.project_controls(batched.amplitudes, 2, n, addr)
            single = apply_ansatz(spec, theta, StateVector(row), (0, 1)).amplitudes
            worst = max(worst, np.max(np.abs(projected - single)))
    ok = worst < 1e-10
    report(
        5,
        "superposed ansatz application equals per-sample application",
        ok,
        f" (max deviation {worst:.2e})",
    )


def test_criterion_6_gradient_epsilon_consistency():
    rng = np.random.default_rng(107)
    spec = AnsatzSpec(2, 4)
    worst = 0.0
    for _ in range(20):
        store = build_store(random_samples(rng, 2, 2))
        theta = ParameterVector(rng.uniform(0, 2 * np.pi, spec.parameter_count))
        loss_fn = lambda th: batched_loss(store, spec, th)
        g_coarse = numerical_gradient(loss_fn, theta, 1e-3)
        g_fine = numerical_gradient(loss_fn, theta, 1e-4)
        worst = max(worst, np.max(np.abs(g_coarse - g_fine)))
    ok = worst < 1e-4
    report(
        6,
        "central differences agree between eps=1e-3 and eps=1e-4",
        ok,
        f" (max per-coordinate gap {worst:.2e})",
    )


def test_criterion_7_cost_scaling():
    spec = AnsatzSpec(2, 4)
    rows = cost_table(1, 12, spec)
    totals = [row["total"] for row in rows]
    increments = {b - a for a, b in zip(totals, totals[1:])}
    affine = len(increments) == 1
    per_sample = {row["sequential_baseline"] // row["N"] for row in rows}
    linear = len(per_sample) == 1 and all(
        row["sequential_baseline"] % row["N"] == 0 for row in rows
    )
    ratios = [
        row["sequential_baseline"] / row["total"] for row in rows if row["N"] >= 8
    ]
    growing = all(b > a for a, b in zip(ratios, ratios[1:]))
    ok = affine and linear and growing
    report(
        7,
        "batched total affine in log N, baseline linear in N, ratio increasing",
        ok,
        f" (increment {increments}, per-sample {per_sample})",
    )


def test_criterion_8_shot_estimator_is_unbiased():
    rng = np.random.default_rng(109)
    label = label_state(2)
    ok = True
    worst_sigma = 0.0
    for instance in range(10):
        amps = oracles.random_state(rng, 4)
        state = StateVector(amps)
        exact = swap_test(state, label)
        estimates = [
            swap_test(state, label, Shots(4096, seed=1000 * instance + r))
            for r in range(1000)
        ]
        tolerance = 3.0 * np.sqrt(exact * (1.0 - exact) / 4096.0)
        gap = abs(float(np.mean(estimates)) - exact)
        ok = ok and gap < tolerance
        if tolerance > 0:
            worst_sigma = max(worst_sigma, 3.0 * gap / tolerance)
    report(
        8,
        "4096-shot estimator mean within 3 standard errors of exact",
        ok,
        f" (worst deviation {worst_sigma:.2f} sigma)",
    )


def test_criterion_9_metrics_files_are_byte_identical(tmp_path):
    outputs = []
    for name in ("a", "b"):
        run_dir = tmp_path / name
        run_dir.mkdir()
        code = main(
            [
                "train",
                "--task", "setosa-vs-versicolor",
                "--epochs", "5",
                "--out-metrics", str(run_dir / "metrics.jsonl"),
                "--out-summary", str(run_dir / "summary.json"),
                "--out-params", str(run_dir / "params.json"),
            ]
        )
        assert code == 0
        outputs.append((run_dir / "metrics.jsonl").read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    rows = [json.loads(line) for line in outputs[0].splitlines()]
    ok = ok and [row["epoch"] for row in rows] == [1, 2, 3, 4, 5]
    report(
        9,
        "identical seeded runs write byte-identical metrics",
        ok,
        f" ({len(outputs[0])} bytes)",
    )
