"""Command-line entry point: train, eval, cost.

`train` runs one experiment and writes three artifacts: a JSONL metrics
file (one record per epoch), a JSON summary holding final accuracies and
a complete config echo, and the final angles as a JSON array. `eval`
recomputes accuracies from a saved angle file. `cost` prints the
batched-vs-sequential cost table.

Flag values override config-file values, which override the defaults
below. Exit codes: 0 success, 2 configuration or input error, 3
optimization failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .ansatz import AnsatzSpec, ParameterVector, init_parameters
from .costmodel import cost_table
from .dataset import SPECIES, default_data_path, load_iris, make_task
from .encoding import encode_dataset
from .errors import ConfigurationError, OptimizationError, VarqError
from .loss import EXACT, Shots
from .trainer import TrainConfig, accuracy, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OPTIMIZATION = 3

DEFAULTS = {
    "task": None,
    "data": None,
    "n": 2,
    "template": "ry_cz_ring",
    "layers": 4,
    "epochs": 100,
    "lr": 0.05,
    "fd_eps": 1e-3,
    "cadence": "per_batch",
    "seed_split": 0,
    "seed_init": 1,
    "seed_batch": 2,
    "seed_shots": 3,
    "shots": None,
    "decision_threshold": 0.5,
    "readout_qubit": 0,
    "out_metrics": "metrics.jsonl",
    "out_summary": "summary.json",
    "out_params": "params.json",
}


def _parse_task(task: str | None) -> tuple[str, str]:
    if not task:
        raise ConfigurationError("no task given; use --task CLASS0-vs-CLASS1")
    if not isinstance(task, str):
        raise ConfigurationError(f"task must be a string like 'setosa-vs-versicolor', got {task!r}")
    parts = task.lower().split("-vs-")
    if len(parts) != 2:
        raise ConfigurationError(
            f"task must look like 'setosa-vs-versicolor', got {task!r}"
        )
    for name in parts:
        if name not in SPECIES:
            raise ConfigurationError(f"unknown species {name!r} in task {task!r}")
    return parts[0], parts[1]


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 text: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _merge_options(args: argparse.Namespace) -> dict:
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _cast(opts: dict, key: str, kind: type):
    """opts[key] checked against its type: an int option takes an integer,
    a float option any number, a str option a string. Config-file values
    of another type are a configuration error, not a crash."""
    value = opts[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and not isinstance(value, bool):
        return kind(value)
    raise ConfigurationError(f"option {key} must be {kind.__name__}, got {value!r}")


def _build_run(opts: dict):
    """Validate every option up front and assemble the run ingredients."""
    class0, class1 = _parse_task(opts["task"])
    data_path = default_data_path(None if opts["data"] is None else _cast(opts, "data", str))
    records = load_iris(data_path)
    task = make_task(records, class0, class1, test_fraction=0.2, seed=_cast(opts, "seed_split", int))
    train_enc = encode_dataset(task.train)
    test_enc = encode_dataset(task.test)
    if not train_enc:
        raise ConfigurationError("training split is empty")
    k = train_enc[0].state.num_qubits
    spec = AnsatzSpec(k=k, layers=_cast(opts, "layers", int), template=opts["template"])
    mode = EXACT
    if opts["shots"] is not None:
        mode = Shots(_cast(opts, "shots", int), _cast(opts, "seed_shots", int))
    config = TrainConfig(
        n=_cast(opts, "n", int),
        epochs=_cast(opts, "epochs", int),
        learning_rate=_cast(opts, "lr", float),
        fd_epsilon=_cast(opts, "fd_eps", float),
        update_cadence=opts["cadence"],
        seed=_cast(opts, "seed_batch", int),
        mode=mode,
        decision_threshold=_cast(opts, "decision_threshold", float),
        readout_qubit=_cast(opts, "readout_qubit", int),
    )
    return task, train_enc, test_enc, spec, config, str(data_path)


def _output_paths(opts: dict) -> tuple[Path, Path, Path]:
    """The three artifact paths, checked for writability before training."""
    paths = []
    for key in ("out_metrics", "out_summary", "out_params"):
        path = Path(_cast(opts, key, str))
        if not path.parent.is_dir():
            raise ConfigurationError(f"option {key}: directory {path.parent} does not exist")
        if path.is_dir():
            raise ConfigurationError(f"option {key}: {path} is a directory")
        if not os.access(path.parent, os.W_OK) or (path.exists() and not os.access(path, os.W_OK)):
            raise ConfigurationError(f"option {key}: {path} is not writable")
        paths.append(path)
    return tuple(paths)


def _config_echo(opts: dict, data_path: str, k: int) -> dict:
    echo = {key: opts[key] for key in DEFAULTS}
    echo["data"] = data_path
    echo["k"] = k
    echo["version"] = __version__
    return echo


def _print_results_table(rows: list[tuple[str, str, float, float | None]]) -> None:
    print(f"{'Class 0':<12} {'Class 1':<12} {'Training Acc.':>14} {'Testing Acc.':>14}")
    for class0, class1, train_acc, test_acc in rows:
        test_str = f"{test_acc:.3f}" if test_acc is not None else "n/a"
        print(f"{class0:<12} {class1:<12} {train_acc:>14.3f} {test_str:>14}")


def cmd_train(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    task, train_enc, test_enc, spec, config, data_path = _build_run(opts)
    metrics_path, summary_path, params_path = _output_paths(opts)
    theta0 = init_parameters(spec, _cast(opts, "seed_init", int))

    start = time.perf_counter()
    theta, metrics = train(train_enc, test_enc, spec, config, initial_theta=theta0)
    wall = time.perf_counter() - start

    with open(metrics_path, "w") as f:
        for m in metrics:
            f.write(
                json.dumps(
                    {
                        "epoch": m.epoch,
                        "loss": m.train_loss,
                        "train_acc": m.train_accuracy,
                        "test_acc": m.test_accuracy,
                    }
                )
                + "\n"
            )

    params_path.write_text(json.dumps(list(theta.values)) + "\n")

    final = metrics[-1]
    summary = {
        "task": f"{task.class0}-vs-{task.class1}",
        "class0": task.class0,
        "class1": task.class1,
        "final_train_acc": final.train_accuracy,
        "final_test_acc": final.test_accuracy,
        "final_loss": final.train_loss,
        "epochs_run": len(metrics),
        "wall_time_s": wall,
        "config": _config_echo(opts, data_path, spec.k),
    }
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    _print_results_table([(task.class0, task.class1, final.train_accuracy, final.test_accuracy)])
    print(
        f"wrote {metrics_path}, {summary_path}, {params_path} "
        f"({wall:.1f}s, {len(metrics)} epochs)"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    task, train_enc, test_enc, spec, config, data_path = _build_run(opts)

    params_path = getattr(args, "params", None) or _cast(opts, "out_params", str)
    try:
        values = json.loads(Path(params_path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"parameter file not found: {params_path}")
    except OSError as exc:
        raise ConfigurationError(f"cannot read parameter file {params_path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"parameter file {params_path} is not UTF-8 text: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"parameter file {params_path} is not valid JSON: {exc}")
    if not isinstance(values, list) or len(values) != spec.parameter_count:
        raise ConfigurationError(
            f"parameter file holds {len(values) if isinstance(values, list) else 'non-list'}"
            f" values, ansatz needs {spec.parameter_count}"
        )
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ConfigurationError(f"parameter file {params_path} must hold a list of numbers")
    theta = ParameterVector(values)

    report = {
        "task": f"{task.class0}-vs-{task.class1}",
        "train_acc": accuracy(
            train_enc, spec, theta, config.readout_qubit, config.decision_threshold
        ),
        "test_acc": accuracy(
            test_enc, spec, theta, config.readout_qubit, config.decision_threshold
        ),
        "params": str(params_path),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    n_min = 1 if args.n_min is None else args.n_min
    n_max = 12 if args.n_max is None else args.n_max
    spec = AnsatzSpec(k=2, layers=_cast(opts, "layers", int), template=opts["template"])
    rows = cost_table(n_min, n_max, spec)
    cols = ["N", "hadamards", "qram_routing", "ansatz_gates", "swap_test_gates", "total", "sequential_baseline"]
    print(" ".join(f"{c:>19}" for c in cols))
    for row in rows:
        print(" ".join(f"{row[c]:>19d}" for c in cols))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varq",
        description="Batched variational classifier: train, evaluate, and cost-model runs.",
    )
    parser.add_argument("--version", action="version", version=f"varq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--task", help="species pair, e.g. setosa-vs-versicolor")
        p.add_argument("--data", help="iris CSV path (default: $VARQ_DATA_DIR or packaged copy)")
        p.add_argument("--n", type=int, help="control qubits per batch (batch size 2^n)")
        p.add_argument("--layers", type=int, help="ansatz layers")
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float, help="gradient-descent step size")
        p.add_argument("--fd-eps", type=float, dest="fd_eps", help="finite-difference step")
        p.add_argument("--cadence", choices=["per_batch", "per_epoch"], help="update cadence")
        p.add_argument("--seed-split", type=int, dest="seed_split")
        p.add_argument("--seed-init", type=int, dest="seed_init")
        p.add_argument("--seed-batch", type=int, dest="seed_batch")
        p.add_argument("--seed-shots", type=int, dest="seed_shots")
        p.add_argument("--shots", type=int, help="ancilla shots per readout (default: exact)")
        p.add_argument("--out-metrics", dest="out_metrics")
        p.add_argument("--out-summary", dest="out_summary")
        p.add_argument("--out-params", dest="out_params")

    p_train = sub.add_parser("train", help="train one task and write artifacts")
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="recompute accuracies from a saved parameter file")
    add_common(p_eval)
    p_eval.add_argument("--params", help="parameter file (default: the --out-params path)")
    p_eval.set_defaults(func=cmd_eval)

    p_cost = sub.add_parser("cost", help="print the batched vs sequential cost table")
    add_common(p_cost)
    p_cost.add_argument("--n-min", type=int, dest="n_min", help="smallest n (default 1)")
    p_cost.add_argument("--n-max", type=int, dest="n_max", help="largest n (default 12)")
    p_cost.set_defaults(func=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OptimizationError as exc:
        print(f"optimization error: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZATION
    except VarqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())
