"""Command-line entry point: train, eval, cost.

`train` runs one experiment and writes three artifacts: a JSONL metrics
file (one record per epoch), a JSON summary holding final accuracies and
a complete config echo, and the final angles as a JSON array. `eval`
recomputes accuracies from a saved angle file, whose length fixes the
circuit depth. `cost` prints the batched-vs-sequential cost table.

Every option's name, type, default and flag help is declared once, in
OPTIONS; the training defaults come from `TrainConfig`. COMMANDS names
the options each command reads and has flags for: `train` all of them,
`eval` four, `cost` only `layers`. A config file may hold any OPTIONS
key, so one file serves `train` and `eval`; each command reads its own
keys and skips the rest unread. Flag values override config-file values,
which override those defaults. No artifact may name the run's config
file or data file. Each artifact is written to a temporary file beside
it and then moved into place. Exit codes: 0 success, 2 configuration or
input error, 3 optimization failure, 1 a stdout closed before the output
was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .ansatz import DEFAULT_LAYERS, AnsatzSpec, ParameterVector, init_parameters
from .costmodel import cost_table
from .dataset import default_data_path, load_iris, make_task
from .encoding import encode_dataset
from .errors import ConfigurationError, OptimizationError, VarqError
from .loss import Shots
from .trainer import TrainConfig, accuracy, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OPTIMIZATION = 3


class Option(NamedTuple):
    kind: type  # int, float or str
    default: object
    help: str


# Every option, in --help order. A flag is "--" plus the name with "_"
# turned into "-"; a config-file key is the name itself.
OPTIONS = {
    "task": Option(str, None, "species pair, e.g. setosa-vs-versicolor"),
    "data": Option(str, None, "iris CSV path (default: the packaged copy)"),
    "n": Option(int, TrainConfig.n, "control qubits per batch (batch size 2^n)"),
    "layers": Option(int, DEFAULT_LAYERS, "ansatz layers"),
    "epochs": Option(int, TrainConfig.epochs, "training epochs"),
    "lr": Option(float, TrainConfig.learning_rate, "gradient-descent step size"),
    "seed_split": Option(int, 0, "seed of the train/test split"),
    "seed_init": Option(int, 1, "seed of the initial angles"),
    "seed_batch": Option(int, TrainConfig.seed, "seed of the per-epoch batch shuffle"),
    "seed_shots": Option(int, 3, "seed of the shot sampling"),
    "shots": Option(int, TrainConfig.shots, "ancilla shots per readout (default: exact)"),
    "out_metrics": Option(str, "metrics.jsonl", "per-epoch metrics file (JSON lines)"),
    "out_summary": Option(str, "summary.json", "run summary file"),
    "out_params": Option(str, "params.json", "final angles file"),
}

# The OPTIONS each command reads, in OPTIONS order: its flags and config keys.
COMMANDS = {
    "train": tuple(OPTIONS),
    "eval": ("task", "data", "seed_split", "out_params"),
    "cost": ("layers",),
}


def _parse_task(task: str | None) -> tuple[str, str]:
    if not task:
        raise ConfigurationError("no task given; use --task CLASS0-vs-CLASS1")
    parts = task.lower().split("-vs-")
    if len(parts) != 2:
        raise ConfigurationError(
            f"task must look like 'setosa-vs-versicolor', got {task!r}"
        )
    return parts[0], parts[1]


def _read_json(path: str, what: str):
    """The JSON value in a UTF-8 file; failing to read it is a ConfigurationError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"{what} not found: {path}")
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{what} {path} is not UTF-8 text: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} {path} is not valid JSON: {exc}")


def _merge_options(args: argparse.Namespace) -> dict:
    """The value of each option the command reads, flag over config file
    over default, checked: an int option takes an integer, a float option
    any number a float can hold, a str option a string; no bools, None only
    where the default is None, and no seed below 0. Config keys of other
    commands' options are skipped unread."""
    config = _read_json(args.config, "config file") if args.config else {}
    if not isinstance(config, dict):
        raise ConfigurationError(f"config file {args.config} must hold a JSON object")
    unknown = set(config) - set(OPTIONS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for name in COMMANDS[args.command]:
        opt = OPTIONS[name]
        value = getattr(args, name)
        if value is None:
            value = config.get(name, opt.default)
        if value is not None or opt.default is not None:
            accepted = (int, float) if opt.kind is float else opt.kind
            if not isinstance(value, accepted) or isinstance(value, bool):
                raise ConfigurationError(
                    f"option {name} must be {opt.kind.__name__}, got {value!r}"
                )
            if name.startswith("seed_") and value < 0:
                raise ConfigurationError(f"option {name} must be >= 0, got {value}")
            try:
                value = opt.kind(value)
            except OverflowError:
                raise ConfigurationError(f"option {name} is out of range for a float")
        merged[name] = value
    return merged


def _load_run(opts: dict):
    """Load, split and encode the task's data; also the data's path."""
    class0, class1 = _parse_task(opts["task"])
    data_path = default_data_path(opts["data"])
    table = load_iris(data_path)
    task = make_task(table, class0, class1, seed=opts["seed_split"])
    return task, encode_dataset(task.train), encode_dataset(task.test), data_path


def _output_paths(opts: dict, inputs: dict) -> tuple[Path, Path, Path]:
    """The three artifact paths, checked for writability before training.

    An existing path must be a regular file: the artifact is moved over
    it, and a FIFO or device there would become a plain file. No two may
    name one file, or the later artifact would overwrite the earlier, and
    none may name a file the run reads: inputs maps option names to
    paths, None for an option not given."""
    inputs = {name: Path(path) for name, path in inputs.items() if path is not None}
    paths = {}
    for key in ("out_metrics", "out_summary", "out_params"):
        path = Path(opts[key])
        if not path.parent.is_dir():
            raise ConfigurationError(f"option {key}: directory {path.parent} does not exist")
        if path.exists() and not path.is_file():
            raise ConfigurationError(f"option {key}: {path} is not a regular file")
        if not os.access(path.parent, os.W_OK) or (path.exists() and not os.access(path, os.W_OK)):
            raise ConfigurationError(f"option {key}: {path} is not writable")
        for other, seen in {**inputs, **paths}.items():
            if seen.resolve() == path.resolve():
                raise ConfigurationError(f"options {other} and {key} name one file: {path}")
        paths[key] = path
    return tuple(paths.values())


def _write_atomic(path: Path, text: str) -> None:
    """Write text beside path, then move it over path: never a partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cmd_train(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    start = time.perf_counter()
    task, train_enc, test_enc, data_path = _load_run(opts)
    spec = AnsatzSpec(k=train_enc.num_qubits, layers=opts["layers"])
    config = TrainConfig(
        n=opts["n"],
        epochs=opts["epochs"],
        learning_rate=opts["lr"],
        seed=opts["seed_batch"],
        shots=None if opts["shots"] is None else Shots(opts["shots"], opts["seed_shots"]),
    )
    prepare_s = time.perf_counter() - start
    inputs = {"config": args.config, "data": data_path}
    metrics_path, summary_path, params_path = _output_paths(opts, inputs)
    theta0 = init_parameters(spec, opts["seed_init"])

    start = time.perf_counter()
    theta, metrics = train(train_enc, test_enc, spec, config, initial_theta=theta0)
    wall = time.perf_counter() - start

    records = [
        {
            "epoch": m.epoch,
            "loss": m.train_loss,
            "train_acc": m.train_accuracy,
            "test_acc": m.test_accuracy,
        }
        for m in metrics
    ]
    start = time.perf_counter()
    _write_atomic(metrics_path, "".join(json.dumps(r) + "\n" for r in records))
    _write_atomic(params_path, json.dumps(list(theta.values)) + "\n")
    write_s = time.perf_counter() - start

    final = metrics[-1]
    summary = {
        "task": f"{task.class0}-vs-{task.class1}",
        "class0": task.class0,
        "class1": task.class1,
        "final_train_acc": final.train_accuracy,
        "final_test_acc": final.test_accuracy,
        "final_loss": final.train_loss,
        "epochs_run": len(metrics),
        "steps": sum(m.steps for m in metrics),
        # Seconds per phase: load + split + encode, training, and writing
        # metrics.jsonl and params.json (this file is written last).
        "timings": {"prepare_s": prepare_s, "train_s": wall, "write_s": write_s},
        "config": {**opts, "data": str(data_path), "k": spec.k, "version": __version__},
    }
    _write_atomic(summary_path, json.dumps(summary, indent=2) + "\n")

    test_str = f"{final.test_accuracy:.3f}" if final.test_accuracy is not None else "n/a"
    print(f"{'Class 0':<12} {'Class 1':<12} {'Training Acc.':>14} {'Testing Acc.':>14}")
    print(f"{task.class0:<12} {task.class1:<12} {final.train_accuracy:>14.3f} {test_str:>14}")
    print(
        f"wrote {metrics_path}, {summary_path}, {params_path} "
        f"({wall:.1f}s, {len(metrics)} epochs)"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    task, train_enc, test_enc, _ = _load_run(opts)

    params_path = args.params or opts["out_params"]
    values = _read_json(params_path, "parameter file")
    # The data fixes k, so the file's length fixes the depth: k angles a layer.
    k = train_enc.num_qubits
    if not isinstance(values, list) or not values or len(values) % k:
        raise ConfigurationError(
            f"parameter file holds {len(values) if isinstance(values, list) else 'non-list'}"
            f" values, ansatz needs a positive multiple of {k}"
        )
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ConfigurationError(f"parameter file {params_path} must hold a list of numbers")
    try:
        theta = ParameterVector(values)
    except OverflowError:
        raise ConfigurationError(f"parameter file {params_path} holds a number too large for a float")
    spec = AnsatzSpec(k, len(values) // k)

    report = {
        "task": f"{task.class0}-vs-{task.class1}",
        "train_acc": accuracy(train_enc, spec, theta),
        "test_acc": accuracy(test_enc, spec, theta),
        "params": str(params_path),
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    opts = _merge_options(args)
    spec = AnsatzSpec(k=2, layers=opts["layers"])
    rows = cost_table(args.n_min, args.n_max, spec)
    cols = [c for c in rows[0] if c != "n"]
    # Each column is as wide as its widest cell, and at least 19, the
    # longest header: a row of huge counts still lines up under it.
    widths = [max([19, *(len(str(row[c])) for row in rows)]) for c in cols]
    print(" ".join(f"{c:>{w}}" for c, w in zip(cols, widths)))
    for row in rows:
        print(" ".join(f"{row[c]:>{w}d}" for c, w in zip(cols, widths)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varq",
        description="Batched variational classifier: train, evaluate, and cost-model runs.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"varq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(command: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for name in COMMANDS[command]:
            opt = OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, type=opt.kind, help=opt.help)
        p.set_defaults(func=func)
        return p

    add_command("train", cmd_train, "train one task and write artifacts")
    p_eval = add_command("eval", cmd_eval, "recompute accuracies from a saved parameter file")
    p_eval.add_argument("--params", help="parameter file (default: the --out-params path)")

    p_cost = add_command("cost", cmd_cost, "print the batched vs sequential cost table")
    p_cost.add_argument("--n-min", type=int, default=1, help="smallest n (default %(default)s)")
    p_cost.add_argument("--n-max", type=int, default=12, help="largest n (default %(default)s)")

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
    except MemoryError as exc:
        # numpy's message names the size and shape of the failed array.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
