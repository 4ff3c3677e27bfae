"""Child-process entry points of the benchmark; run one per process.

    probes.py setup  --csv PATH|- --task A-vs-B
    probes.py traced --trace-out FILE -- <varq arguments>
    probes.py sweep  --out FILE --ns 2,6,9,12 --seed S
    probes.py oracle --csv PATH|- --task A-vs-B --n N
                     --params FILE --train-acc A --test-acc B [--metrics FILE]

`varq` is imported from PYTHONPATH, which the harness points at the
checkout's `src`. Each mode writes JSON (to stdout or --out) and exits 0,
or exits non-zero with the reason on stderr.
"""

import time

_T_START = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import runpy  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SWEEP_STAGES = ("encode", "build_store", "query", "ansatz", "loss", "gradient", "classify")
SWEEP_K = 2
SWEEP_LAYERS = 4
AMPLITUDE_BYTES = 16
# A stage whose computed working set is larger is skipped, not run.
SWEEP_BUDGET_BYTES = 256 << 20
# varq train's defaults, which every training workload keeps.
SPLIT_SEED = 0
INIT_SEED = 1
BATCH_SEED = 2
LEARNING_RATE = 0.05
# A replayed training run may differ from varq's by this much in each
# epoch's loss and in each final angle. varq's central differences
# (epsilon 1e-3) stray from the exact gradient by O(epsilon^2): on the
# packaged Iris run that moves the losses by up to 7e-8, while a learning
# rate 0.1% off moves them by 4e-4.
TRAINING_TOLERANCE = 1e-6


def sweep_working_set(stage: str, n: int, k: int = SWEEP_K) -> int:
    """Computed bytes a stage holds at once for a batch of 2^n samples."""
    samples = (1 << n) * (AMPLITUDE_BYTES << k)
    if stage in ("encode", "build_store", "classify"):
        return samples
    if stage == "query":
        return AMPLITUDE_BYTES << (k + n)
    if stage == "ansatz":
        return 2 * (AMPLITUDE_BYTES << (k + n))
    # loss and gradient hold the swap test's joint register.
    return AMPLITUDE_BYTES << (2 * n + k + 2)


def _data_path(varq, csv: str):
    return varq.default_data_path(None if csv == "-" else csv)


def cmd_setup(args) -> int:
    import varq

    records = varq.load_iris(_data_path(varq, args.csv))
    class0, class1 = args.task.split("-vs-")
    task = varq.make_task(records, class0, class1, test_fraction=0.2, seed=SPLIT_SEED)
    varq.encode_dataset(task.train)
    varq.encode_dataset(task.test)
    return 0


def cmd_traced(args) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import_s = time.time() - _T_START
    sys.argv = ["varq", *args.rest]
    code = 0
    try:
        runpy.run_module("varq", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    report = tracer.report()
    report["import_s"] = import_s
    report["t_start"] = _T_START
    report["t_end"] = time.time()
    Path(args.trace_out).write_text(json.dumps(report))
    return code


def _timed(fn, min_reps=3, min_s=0.5, max_single_s=1.0):
    """Median wall time of fn in ms; one run when a single call is slow."""
    times = []
    total = 0.0
    while True:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        total += dt
        if dt > max_single_s or (len(times) >= min_reps and total >= min_s):
            return statistics.median(times) * 1e3


def cmd_sweep(args) -> int:
    import numpy as np
    import varq

    ns = [int(v) for v in args.ns.split(",")]
    rng = np.random.default_rng(args.seed)
    spec = varq.AnsatzSpec(k=SWEEP_K, layers=SWEEP_LAYERS)
    theta = varq.init_parameters(spec, args.seed)
    results: dict[str, dict] = {}
    for n in ns:
        size = 1 << n
        labels = [0] * (size // 2) + [1] * (size // 2)
        feats = rng.uniform(0.5, 7.5, size=(size, 1 << SWEEP_K))
        try:
            vectors = [varq.FeatureVector(f, lab) for f, lab in zip(feats, labels)]
            encoded = varq.encode_dataset(vectors)
            store = varq.build_store(encoded)
            state = varq.query_superposed(store)
        except AttributeError as exc:
            for stage in SWEEP_STAGES:
                results[f"sweep.{stage}.n{n}_ms"] = {"skipped": f"absent: {exc}"}
            continue
        data_qubits = tuple(range(SWEEP_K))
        stages = {
            "encode": lambda: varq.encode_dataset(vectors),
            "build_store": lambda: varq.build_store(encoded),
            "query": lambda: varq.query_superposed(store),
            "ansatz": lambda: varq.apply_ansatz(spec, theta, state, data_qubits),
            "loss": lambda: varq.batched_loss(store, spec, theta),
            "gradient": lambda: varq.numerical_gradient(
                lambda th: varq.batched_loss(store, spec, th), theta, 1e-3),
            "classify": lambda: varq.accuracy(encoded, spec, theta),
        }
        for stage in SWEEP_STAGES:
            key = f"sweep.{stage}.n{n}_ms"
            need = sweep_working_set(stage, n)
            if need > SWEEP_BUDGET_BYTES:
                results[key] = {"skipped": f"computed working set {need >> 20} MiB exceeds "
                                           f"the {SWEEP_BUDGET_BYTES >> 20} MiB budget"}
                continue
            try:
                results[key] = {"value": _timed(stages[stage]), "working_set_bytes": need}
            except AttributeError as exc:
                results[key] = {"skipped": f"absent: {exc}"}
    Path(args.out).write_text(json.dumps(results))
    return 0


def cmd_oracle(args) -> int:
    """Recompute final accuracies and one batch's loss with dense matrices;
    with --metrics, also replay the training run from its initial angles."""
    import numpy as np

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import oracle
    import varq

    theta = json.loads(Path(args.params).read_text())
    path = _data_path(varq, args.csv)
    class0, class1 = args.task.split("-vs-")
    train, test = oracle.split_task(oracle.read_iris_csv(path), class0, class1, SPLIT_SEED)
    problems = []
    out = {}
    for split, samples, claimed in (("train", train, args.train_acc), ("test", test, args.test_acc)):
        acc, near = oracle.accuracy(samples, theta)
        out[f"{split}_acc"] = acc
        if abs(acc - claimed) > near / len(samples):
            problems.append(f"{split} accuracy {claimed} but the oracle gives {acc}")

    half = 1 << (args.n - 1)
    batch = [s for s in train if s[1] == 0][:half] + [s for s in train if s[1] == 1][:half]
    expected = float(oracle.batch_losses(oracle.encode(np.array([f for f, _ in batch])), theta)[0])
    encoded = varq.encode_dataset([varq.FeatureVector(f, lab) for f, lab in batch])
    spec = varq.AnsatzSpec(k=encoded[0].state.num_qubits, layers=len(theta) // encoded[0].state.num_qubits)
    got = varq.batched_loss(varq.build_store(encoded), spec, varq.ParameterVector(np.array(theta)))
    out.update(loss_oracle=expected, loss_varq=got)
    if not (math.isfinite(got) and abs(got - expected) <= 1e-10):
        problems.append(f"batch loss {got!r} but the oracle gives {expected!r}")

    if args.metrics:
        claimed = [json.loads(line)["loss"] for line in Path(args.metrics).read_text().splitlines()]
        theta0 = np.random.default_rng(INIT_SEED).uniform(0.0, 2.0 * np.pi, size=len(theta))
        losses, final = oracle.replay_training(train, theta0, args.n, len(claimed),
                                               LEARNING_RATE, BATCH_SEED)
        loss_gap = max(abs(a - b) for a, b in zip(losses, claimed))
        theta_gap = float(np.max(np.abs(final - np.array(theta))))
        out.update(training_loss_gap=loss_gap, training_theta_gap=theta_gap)
        if not (loss_gap <= TRAINING_TOLERANCE and theta_gap <= TRAINING_TOLERANCE):
            problems.append(f"training differs from the replay: losses by {loss_gap!r}, "
                            f"final angles by {theta_gap!r}")
    out["problems"] = problems
    print(json.dumps(out))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="probes.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--csv", required=True)
    p.add_argument("--task", required=True)
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("traced")
    p.add_argument("--trace-out", required=True)
    p.add_argument("rest", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_traced)
    p = sub.add_parser("sweep")
    p.add_argument("--out", required=True)
    p.add_argument("--ns", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser("oracle")
    p.add_argument("--csv", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--train-acc", type=float, required=True)
    p.add_argument("--test-acc", type=float, required=True)
    p.add_argument("--metrics", help="metrics.jsonl of an exact-mode training run to replay")
    p.set_defaults(func=cmd_oracle)
    args = parser.parse_args(argv)
    if args.mode == "traced" and args.rest[:1] == ["--"]:
        args.rest = args.rest[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
