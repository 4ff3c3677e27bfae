"""Command-line behavior: artifacts, config precedence, exit codes."""

import argparse
import json
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varq
from varq import (
    AnsatzSpec,
    ParameterVector,
    TrainConfig,
    accuracy,
    cli,
    default_data_path,
    encode_dataset,
    init_parameters,
    load_iris,
    make_task,
    train,
)
from varq.cli import main

TRAIN_ARGS = ["train", "--task", "setosa-vs-versicolor", "--epochs", "3"]


def run_train(tmp_path, extra=(), epochs=3, task="setosa-vs-versicolor"):
    args = [
        "train",
        "--task",
        task,
        "--epochs",
        str(epochs),
        "--out-metrics",
        str(tmp_path / "metrics.jsonl"),
        "--out-summary",
        str(tmp_path / "summary.json"),
        "--out-params",
        str(tmp_path / "params.json"),
        *extra,
    ]
    return main(args)


def read_metrics(tmp_path):
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


class TestTrainCommand:
    def test_writes_all_three_artifacts(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        rows = read_metrics(tmp_path)
        assert [row["epoch"] for row in rows] == [1, 2, 3]
        for row in rows:
            assert set(row) == {"epoch", "loss", "train_acc", "test_acc"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["task"] == "setosa-vs-versicolor"
        assert summary["epochs_run"] == 3
        assert summary["final_loss"] == rows[-1]["loss"]
        params = json.loads((tmp_path / "params.json").read_text())
        assert len(params) == 8
        out = capsys.readouterr().out
        assert "setosa" in out and "versicolor" in out

    def test_single_epoch_emits_single_row(self, tmp_path):
        assert run_train(tmp_path, epochs=1) == 0
        assert len(read_metrics(tmp_path)) == 1

    def test_summary_echo_reproduces_the_run(self, tmp_path):
        assert run_train(tmp_path) == 0
        echo = json.loads((tmp_path / "summary.json").read_text())["config"]
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        args = [
            "train",
            "--task", echo["task"],
            "--data", echo["data"],
            "--n", str(echo["n"]),
            "--layers", str(echo["layers"]),
            "--epochs", str(echo["epochs"]),
            "--lr", str(echo["lr"]),
            "--seed-split", str(echo["seed_split"]),
            "--seed-init", str(echo["seed_init"]),
            "--seed-batch", str(echo["seed_batch"]),
            "--out-metrics", str(rerun / "metrics.jsonl"),
            "--out-summary", str(rerun / "summary.json"),
            "--out-params", str(rerun / "params.json"),
        ]
        assert main(args) == 0
        assert (rerun / "metrics.jsonl").read_bytes() == (
            tmp_path / "metrics.jsonl"
        ).read_bytes()
        assert (rerun / "params.json").read_bytes() == (
            tmp_path / "params.json"
        ).read_bytes()

    def test_identical_runs_write_identical_metrics(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        assert run_train(first) == 0
        assert run_train(second) == 0
        assert (first / "metrics.jsonl").read_bytes() == (
            second / "metrics.jsonl"
        ).read_bytes()

    def test_default_run_matches_the_library_defaults(self, tmp_path):
        # varq train's defaults are TrainConfig's: the library run on the
        # same split and initial angles writes the same metrics bytes.
        assert run_train(tmp_path) == 0
        defaults = {name: option.default for name, option in cli.OPTIONS.items()}
        task = make_task(
            load_iris(default_data_path()), "setosa", "versicolor", seed=defaults["seed_split"]
        )
        train_set, test_set = encode_dataset(task.train), encode_dataset(task.test)
        spec = AnsatzSpec(train_set.num_qubits, defaults["layers"])
        theta0 = init_parameters(spec, defaults["seed_init"])
        _, metrics = train(train_set, test_set, spec, TrainConfig(epochs=3), theta0)
        rows = [
            {"epoch": m.epoch, "loss": m.train_loss, "train_acc": m.train_accuracy,
             "test_acc": m.test_accuracy}
            for m in metrics
        ]
        expected = "".join(json.dumps(row) + "\n" for row in rows)
        assert (tmp_path / "metrics.jsonl").read_text() == expected

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        code = run_train(tmp_path, extra=["--data", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["data-dir", "data-bytes", "config-bytes", "params-bytes"])
    def test_unreadable_input_file_exits_2(self, tmp_path, capsys, case):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff" + np.random.default_rng(0).bytes(200))
        flag, path = {
            "data-dir": ("--data", tmp_path),
            "data-bytes": ("--data", binary),
            "config-bytes": ("--config", binary),
            "params-bytes": ("--params", binary),
        }[case]
        command = "eval" if flag == "--params" else "train"
        code = main([command, "--task", "setosa-vs-versicolor", flag, str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_unknown_species_exits_2(self, tmp_path, capsys):
        assert run_train(tmp_path, task="setosa-vs-slugs") == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "slugs" in err

    def test_iris_prefixed_task_trains_as_the_plain_task(self, tmp_path):
        plain, prefixed = tmp_path / "plain", tmp_path / "prefixed"
        plain.mkdir()
        prefixed.mkdir()
        assert run_train(plain) == 0
        assert run_train(prefixed, task="Iris-setosa-vs-Iris-versicolor") == 0
        summary = json.loads((prefixed / "summary.json").read_text())
        assert summary["task"] == "setosa-vs-versicolor"
        metrics = [(d / "metrics.jsonl").read_bytes() for d in (plain, prefixed)]
        assert metrics[0] == metrics[1]

    def test_malformed_task_exits_2(self, tmp_path):
        assert run_train(tmp_path, task="setosa") == 2

    def test_infinite_learning_rate_exits_3(self, tmp_path, capsys):
        code = run_train(tmp_path, extra=["--lr", "inf"], epochs=1)
        assert code == 3
        assert "optimization" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lr"])
    def test_nan_step_settings_exit_2(self, tmp_path, capsys, flag):
        code = run_train(tmp_path, extra=[flag, "nan"], epochs=1)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_unwritable_output_exits_2_before_training(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        code = run_train(tmp_path, extra=["--out-metrics", str(tmp_path / "absent" / "m.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "absent" in err
        assert not (tmp_path / "summary.json").exists()
        assert not (tmp_path / "params.json").exists()

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--out-metrics", "same.json", "--out-summary", "same.json"],
             "options out_metrics and out_summary name one file: same.json"),
            (["--out-metrics", "./a.json", "--out-params", "a.json"],
             "options out_metrics and out_params name one file: a.json"),
            (["--out-summary", "a.json", "--out-params", "{cwd}/a.json"],
             "options out_summary and out_params name one file: {cwd}/a.json"),
        ],
        ids=["same-spelling", "dot-slash", "absolute"],
    )
    def test_two_artifacts_on_one_path_exit_2_before_training(
        self, tmp_path, capsys, monkeypatch, extra, named
    ):
        # The later artifact would overwrite the earlier one.
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        monkeypatch.chdir(tmp_path)
        extra = [arg.format(cwd=tmp_path) for arg in extra]
        code = main(["train", "--task", "setosa-vs-versicolor", "--epochs", "1", *extra])
        assert code == 2
        assert capsys.readouterr().err == f"error: {named.format(cwd=tmp_path)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", ["config", "data", "packaged-data"])
    def test_artifact_on_an_input_exits_2_and_leaves_it_unchanged(
        self, tmp_path, capsys, monkeypatch, case
    ):
        # Writing an artifact over the run's config file or data would
        # destroy the inputs that reproduce it.
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        monkeypatch.chdir(tmp_path)
        packaged = default_data_path()
        Path("run.json").write_text(json.dumps({"task": "setosa-vs-versicolor", "epochs": 1}))
        Path("mydata.csv").write_bytes(packaged.read_bytes())
        extra, named, path = {
            "config": (["--out-summary", "run.json"], "config and out_summary", Path("run.json")),
            "data": (["--data", "mydata.csv", "--out-metrics", "mydata.csv"],
                     "data and out_metrics", Path("mydata.csv")),
            "packaged-data": (["--out-params", str(packaged)], "data and out_params", packaged),
        }[case]
        before = path.read_bytes()
        listing = sorted(tmp_path.iterdir())
        assert main(["train", "--config", "run.json", *extra]) == 2
        assert capsys.readouterr().err == f"error: options {named} name one file: {path}\n"
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == listing

    @pytest.mark.parametrize(
        "make, is_kind", [(os.mkfifo, stat.S_ISFIFO), (os.mkdir, stat.S_ISDIR)],
        ids=["fifo", "directory"],
    )
    def test_output_path_that_is_not_a_regular_file_exits_2_and_is_left_in_place(
        self, tmp_path, capsys, monkeypatch, make, is_kind
    ):
        # Moving the artifact over a FIFO or a device would replace it with
        # a regular file, so such a path is refused before training.
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        special = tmp_path / "special"
        make(special)
        code = run_train(tmp_path, extra=["--out-metrics", str(special)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: option out_metrics: {special} is not a regular file\n"
        assert is_kind(special.stat().st_mode)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["special"]

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_out_of_range_readout_qubit_exits_2_before_any_work(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "train", no_work)
        monkeypatch.setattr(cli, "accuracy", no_work)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"readout_qubit": 0}))
        params = tmp_path / "params.json"
        params.write_text(json.dumps([0.0] * 8))
        argv = [command, "--task", "setosa-vs-versicolor", "--config", str(config),
                "--params" if command == "eval" else "--out-params", str(params)]
        # The readout is data qubit 0, not an option: the key is unknown, and
        # it is rejected before train's output paths, so the absent directory
        # goes unreported.
        if command == "train":
            argv += ["--out-metrics", str(tmp_path / "absent" / "m.jsonl")]
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: unknown config keys: ['readout_qubit']\n"

    def test_memory_error_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        # Stands in for an allocation the machine cannot serve (a circuit
        # matrix per gradient probe at --layers 100000 once asked for 596
        # GiB); the test itself allocates nothing large.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 596. GiB for an array with shape (400001, 200000)")

        monkeypatch.setattr(cli, "train", out_of_memory)
        code = run_train(tmp_path, extra=["--layers", "100000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate 596. GiB")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "metrics.jsonl").exists()

    def test_summary_reports_phase_timings(self, tmp_path):
        assert run_train(tmp_path, epochs=1) == 0
        timings = json.loads((tmp_path / "summary.json").read_text())["timings"]
        assert sorted(timings) == ["prepare_s", "train_s", "write_s"]
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert set(read_metrics(tmp_path)[0]) == {"epoch", "loss", "train_acc", "test_acc"}

    def test_artifacts_replace_old_files_and_leave_no_temporary_file(self, tmp_path):
        names = ["metrics.jsonl", "params.json", "summary.json"]
        for name in names:
            (tmp_path / name).write_text("stale")
        assert run_train(tmp_path, epochs=1) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == names
        assert len(read_metrics(tmp_path)) == 1
        assert len(json.loads((tmp_path / "params.json").read_text())) == 8

    @pytest.mark.parametrize(
        "extra, config, named",
        [
            (["--seed-split", "-1"], None, "seed_split"),
            (["--seed-init", "-1"], None, "seed_init"),
            (["--seed-batch", "-5"], None, "seed_batch"),
            (["--seed-shots", "-1", "--shots", "10"], None, "seed_shots"),
            ([], {"seed_batch": -1}, "seed_batch"),
            (["--shots", str(2**63)], None, "shot count"),
            (["--n", str(10**20)], None, "n="),
            (["--n", str(2**62)], None, "n="),
            (["--layers", str(2**62)], None, "layers="),
            (["--layers", str(2**60)], None, "layers="),
        ],
        ids=[
            "seed-split", "seed-init", "seed-batch", "seed-shots", "config-seed", "shots-2^63",
            "n-10^20", "n-2^62", "layers-2^62", "layers-2^60",
        ],
    )
    def test_negative_seed_or_oversized_shot_count_exits_2(
        self, tmp_path, capsys, extra, config, named
    ):
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            extra = [*extra, "--config", str(tmp_path / "run.json")]
        assert run_train(tmp_path, extra=extra, epochs=1) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert named in err

    def test_shots_mode_completes(self, tmp_path):
        code = run_train(tmp_path, extra=["--shots", "64", "--seed-shots", "11"], epochs=1)
        assert code == 0
        assert len(read_metrics(tmp_path)) == 1

    def test_parameter_shift_step_makes_shots_training_learn(self, tmp_path):
        # Every trainable gate is an RY, so the gradient is the parameter
        # shift (L(theta + pi/2) - L(theta - pi/2)) / 2: no truncation error,
        # and the shot noise of the two probe rows is divided by 2, not by a
        # small step.
        assert run_train(tmp_path, extra=["--shots", "4096"], epochs=25) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["final_train_acc"], summary["final_test_acc"]) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "extra, steps",
        [([], 2000), (["--n", "4"], 500)],
        ids=["defaults", "n-4"],
    )
    def test_summary_counts_the_angle_updates(self, tmp_path, extra, steps):
        # 40 training rows per class: 20 batches of 4 per epoch at n = 2 and
        # 5 batches of 16 at n = 4, one update per batch.
        assert run_train(tmp_path, extra=extra, epochs=100) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["steps"] == steps

    # Retired options: the gradient has no step to choose, and theta steps
    # after every batch. Old config files and summary echoes naming them
    # exit 2, and no command declares their flags. `template` and
    # `decision_threshold` were config-only keys of one value.
    RETIRED_FLAGS = [("fd_eps", 0.001), ("cadence", "per_epoch")]
    RETIRED = RETIRED_FLAGS + [("template", "ry_cz_ring"), ("decision_threshold", 0.5)]

    @pytest.mark.parametrize("key, value", RETIRED, ids=[key for key, _ in RETIRED])
    def test_retired_config_key_exits_2(self, tmp_path, capsys, key, value):
        (tmp_path / "run.json").write_text(json.dumps({key: value}))
        assert run_train(tmp_path, extra=["--config", str(tmp_path / "run.json")]) == 2
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"

    @pytest.mark.parametrize("command", ["train", "eval", "cost"])
    @pytest.mark.parametrize(
        "key, value", RETIRED_FLAGS, ids=[key for key, _ in RETIRED_FLAGS]
    )
    def test_retired_flag_is_an_argparse_error(self, capsys, key, value, command):
        flag = "--" + key.replace("_", "-")
        argv = {
            "train": TRAIN_ARGS,
            "eval": ["eval", "--task", "setosa-vs-versicolor", "--params", "params.json"],
            "cost": ["cost"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [flag, str(value)])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestConfigFile:
    def test_values_are_read_from_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"task": "setosa-vs-versicolor", "epochs": 1}))
        args = [
            "train",
            "--config", str(config),
            "--out-metrics", str(tmp_path / "m.jsonl"),
            "--out-summary", str(tmp_path / "s.json"),
            "--out-params", str(tmp_path / "p.json"),
        ]
        assert main(args) == 0
        assert len((tmp_path / "m.jsonl").read_text().splitlines()) == 1

    def test_flags_override_config_values(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"task": "setosa-vs-versicolor", "epochs": 50}))
        args = [
            "train",
            "--config", str(config),
            "--epochs", "2",
            "--out-metrics", str(tmp_path / "m.jsonl"),
            "--out-summary", str(tmp_path / "s.json"),
            "--out-params", str(tmp_path / "p.json"),
        ]
        assert main(args) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["epochs_run"] == 2
        assert summary["config"]["epochs"] == 2

    def test_every_option_is_a_flag_and_echoed(self, tmp_path):
        # Each command has a flag for exactly the options it reads, besides
        # --config and its own extras; train reads them all, and a default
        # run's summary.json echoes every one: no config-file-only knob.
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        extras = {"train": set(), "eval": {"--params"}, "cost": {"--n-min", "--n-max"}}
        assert set(commands.choices) == set(cli.COMMANDS) == set(extras)
        assert cli.COMMANDS["train"] == tuple(cli.OPTIONS)
        for command, names in cli.COMMANDS.items():
            flags = {s for a in commands.choices[command]._actions for s in a.option_strings}
            declared = {"--" + name.replace("_", "-") for name in names}
            assert flags - {"-h", "--help", "--config"} - extras[command] == declared, command
        assert run_train(tmp_path, epochs=1) == 0
        echo = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert set(cli.OPTIONS) <= set(echo)

    @pytest.mark.parametrize(
        "command, name",
        [(command, name) for command in ("eval", "cost") for name in cli.OPTIONS
         if name not in cli.COMMANDS[command]],
    )
    def test_another_commands_flag_is_an_argparse_error(
        self, capsys, monkeypatch, command, name
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for function in ("load_iris", "train", "accuracy"):
            monkeypatch.setattr(cli, function, no_work)
        flag = "--" + name.replace("_", "-")
        value = {"task": "setosa-vs-versicolor", "data": "iris.csv", "shots": "3"}.get(
            name, str(cli.OPTIONS[name].default)
        )
        argv = [command, flag, value]
        if command == "eval":
            argv += ["--task", "setosa-vs-versicolor", "--params", "params.json"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        # Prefix matching is off, so cost's --n is no abbreviation of
        # --n-min or --n-max: every foreign flag is unrecognized.
        assert "error: unrecognized arguments: " in err and flag in err

    @pytest.mark.parametrize(
        "argv",
        [["train", "--epoch", "1"],
         ["eval", "--task", "setosa-vs-versicolor", "--out", "p.json"],
         ["cost", "--n", "3"]],
        ids=["train-epoch", "eval-out", "cost-n"],
    )
    def test_abbreviated_flag_is_an_argparse_error(self, capsys, monkeypatch, argv):
        # Only a flag's full spelling is accepted: --epoch is not --epochs,
        # --out is not --out-params, --n is not --n-min.
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for function in ("load_iris", "train", "accuracy"):
            monkeypatch.setattr(cli, function, no_work)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_eval_reads_a_config_file_shared_with_train(self, tmp_path, capsys, monkeypatch):
        # One file holds every option; eval reads its own four keys, skips
        # the training keys unread and builds no training config. Its
        # parameter file's six angles fix the depth, the file's three layers.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "task": "versicolor-vs-virginica",
            "data": str(varq.default_data_path()),
            "n": 1,
            "layers": 3,
            "epochs": 3,
            "lr": 0.2,
            "seed_split": 5,
            "seed_init": 1,
            "seed_batch": 2,
            "seed_shots": 3,
            "shots": 256,
            "out_metrics": str(tmp_path / "m.jsonl"),
            "out_summary": str(tmp_path / "s.json"),
            "out_params": str(tmp_path / "p.json"),
        }))
        assert set(json.loads(config.read_text())) == set(cli.OPTIONS)
        assert main(["train", "--config", str(config)]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())

        def no_training_config(*args, **kwargs):
            raise AssertionError("training config built")

        monkeypatch.setattr(cli, "TrainConfig", no_training_config)
        monkeypatch.setattr(cli, "Shots", no_training_config)
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["task"] == "versicolor-vs-virginica"
        assert report["params"] == str(tmp_path / "p.json")
        assert report["train_acc"] == summary["final_train_acc"]
        assert report["test_acc"] == summary["final_test_acc"]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"task": "setosa-vs-versicolor", "lerning_rate": 1}))
        assert main(["train", "--config", str(config)]) == 2
        assert "lerning_rate" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("{not json")
        assert main(["train", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "content",
        [{"n": "abc"}, {"task": 5}, {"lr": [1]}, {"n": 2.7}, {"out_params": 5}, {"lr": 10**400}],
    )
    def test_mistyped_config_values_exit_2(self, tmp_path, capsys, content):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"task": "setosa-vs-versicolor", **content}))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2


# Bytes that make any JSON text invalid wherever they land: control
# characters other than JSON whitespace, and bytes that are not UTF-8
# next to ASCII.
POISON_BYTES = [b for b in range(0x20) if b not in b"\t\n\r"] + list(range(0x80, 0x100))


def broken_json(rng, value):
    """The JSON text of value, truncated or with one byte poisoned."""
    text = json.dumps(value).encode()
    if rng.random() < 0.5:
        return text[: rng.randrange(len(text))]
    flipped = bytearray(text)
    flipped[rng.randrange(len(text))] = rng.choice(POISON_BYTES)
    return bytes(flipped)


def malformed_config(rng, base, names):
    """The bytes of one malformed config file for a command that reads the
    options in names: its mistyped and out-of-range values are theirs."""
    kind = rng.choice(["broken", "top-level", "unknown", "type", "range"])
    if kind == "broken":
        return broken_json(rng, base)
    if kind == "top-level":
        return json.dumps(rng.choice([[], [base], 1, 2.5, "x", None, True])).encode()
    if kind == "unknown":
        key = rng.choice(
            [
                "template", "learning_rate", "seed", "Task", "fd-eps", "fd_eps",
                "decision_threshold", "readout_qubit", "cadence", "x" * rng.randint(1, 9),
            ]
        )
        assert key not in cli.OPTIONS
        return json.dumps({**base, key: 1}).encode()
    if kind == "type":
        name = rng.choice(sorted(names))
        option = cli.OPTIONS[name]
        wrong = [[1], {"a": 1}, True, False]
        wrong += [5] if option.kind is str else ["abc"]
        wrong += [2.0, 2.5] if option.kind is int else []
        wrong += [None] if option.default is not None else []
        return json.dumps({**base, name: rng.choice(wrong)}).encode()
    cases = [
        ("n", rng.randint(-5, 0)),
        ("epochs", rng.randint(-5, 0)),
        ("lr", float("nan")),
        ("shots", rng.randint(-5, 0)),
        ("shots", 2**63 + rng.randint(0, 10**6)),
        *(("seed_" + seed, -rng.randint(1, 99)) for seed in ("split", "init", "batch", "shots")),
    ]
    name, value = rng.choice([(name, value) for name, value in cases if name in names])
    return json.dumps({**base, name: value}).encode()


def malformed_params(rng):
    """One malformed parameter file for the 2-qubit Iris data, which
    takes any positive even number of angles."""
    good = [rng.uniform(0.0, 6.0) for _ in range(8)]
    kind = rng.choice(["broken", "top-level", "length", "entry"])
    if kind == "broken":
        return broken_json(rng, good)
    if kind == "top-level":
        return json.dumps(rng.choice([{"theta": good}, 1.5, "x", None, [good]])).encode()
    if kind == "length":
        return json.dumps([0.5] * rng.choice([0, 1, 7, 9, 15, 33])).encode()
    bad = list(good)
    bad[rng.randrange(8)] = rng.choice(
        ["0.5", "a", True, False, None, float("nan"), float("inf"), [0.5], {"x": 1}]
    )
    return json.dumps(bad).encode()


class TestMalformedFileFuzz:
    def test_every_malformed_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        rng = random.Random(20201)
        good_params = tmp_path / "good.json"
        good_params.write_text(json.dumps([0.0] * 8))
        base = {
            "task": "setosa-vs-versicolor",
            "epochs": 1,
            "out_metrics": str(tmp_path / "m.jsonl"),
            "out_summary": str(tmp_path / "s.json"),
            "out_params": str(tmp_path / "p.json"),
        }
        case_file = tmp_path / "case.json"
        for case in range(200):
            if case % 3 == 2:
                case_file.write_bytes(malformed_params(rng))
                argv = ["eval", "--task", "setosa-vs-versicolor", "--params", str(case_file)]
            else:
                command = "eval" if rng.random() < 0.3 else "train"
                case_file.write_bytes(malformed_config(rng, base, cli.COMMANDS[command]))
                argv = [command, "--config", str(case_file)]
                if command == "eval":
                    argv += ["--params", str(good_params)]
            code = main(argv)
            err = capsys.readouterr().err
            detail = f"case {case}: {argv[0]} {case_file.read_bytes()!r}: {err!r}"
            assert code == 2, detail
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, detail
        assert sorted(path.name for path in tmp_path.iterdir()) == ["case.json", "good.json"]


# Eleven lines: a header and ten rows; the first row's norm overflows a
# float64 dot product.
OVERFLOW_CSV = """sepal_length,sepal_width,petal_length,petal_width,species
5.1e200,3.5,1.4,0.2,Iris-setosa
4.9,3.0,1.4,0.2,Iris-setosa
4.7,3.2,1.3,0.2,Iris-setosa
4.6,3.1,1.5,0.2,Iris-setosa
5.0,3.6,1.4,0.2,Iris-setosa
7.0,3.2,4.7,1.4,Iris-versicolor
6.4,3.2,4.5,1.5,Iris-versicolor
6.9,3.1,4.9,1.5,Iris-versicolor
5.5,2.3,4.0,1.3,Iris-versicolor
6.5,2.8,4.6,1.5,Iris-versicolor
"""


class TestEvalCommand:
    def test_row_whose_norm_overflows_is_encoded_as_a_unit_state(self, tmp_path):
        data = tmp_path / "overflow.csv"
        data.write_text(OVERFLOW_CSV)
        params = tmp_path / "zeros.json"
        params.write_text(json.dumps([0.0] * 8))
        proc = subprocess.run(
            [
                sys.executable, "-m", "varq", "eval",
                "--task", "setosa-vs-versicolor",
                "--data", str(data),
                "--params", str(params),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        task = make_task(load_iris(data), "setosa", "versicolor", test_fraction=0.2, seed=0)
        with np.errstate(all="raise"):
            rows = np.concatenate(
                [encode_dataset(task.train).amplitudes, encode_dataset(task.test).amplitudes]
            )
        assert len(rows) == 10
        assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) < 1e-15

    @pytest.mark.parametrize(
        "text", ["", "sepal_length,sepal_width,petal_length,petal_width,species\n"]
    )
    def test_csv_without_rows_exits_2_with_one_line(self, tmp_path, text):
        # No reader warning (numpy's loadtxt warns on empty input) may
        # reach stderr.
        data = tmp_path / "rows.csv"
        data.write_text(text)
        params = tmp_path / "zeros.json"
        params.write_text(json.dumps([0.0] * 8))
        proc = subprocess.run(
            [
                sys.executable, "-m", "varq", "eval",
                "--task", "setosa-vs-versicolor",
                "--data", str(data),
                "--params", str(params),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: {data}: no data rows\n"

    def test_matches_the_producing_run_exactly(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        capsys.readouterr()
        code = main(
            [
                "eval",
                "--task", "setosa-vs-versicolor",
                "--params", str(tmp_path / "params.json"),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["train_acc"] == summary["final_train_acc"]
        assert report["test_acc"] == summary["final_test_acc"]

    def test_zero_parameters_still_evaluate(self, tmp_path, capsys):
        params = tmp_path / "zeros.json"
        params.write_text(json.dumps([0.0] * 8))
        code = main(
            ["eval", "--task", "setosa-vs-versicolor", "--params", str(params)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["train_acc"] <= 1.0
        assert 0.0 <= report["test_acc"] <= 1.0

    def test_wrong_parameter_count_exits_2(self, tmp_path, capsys, monkeypatch):
        # The 2-qubit data takes 2 angles a layer: 7 make no whole layer,
        # and 0 no circuit.
        def no_work(*args, **kwargs):
            raise AssertionError("accuracy pass started")

        monkeypatch.setattr(cli, "accuracy", no_work)
        params = tmp_path / "short.json"
        for count in (7, 0):
            params.write_text(json.dumps([0.0] * count))
            code = main(
                ["eval", "--task", "setosa-vs-versicolor", "--params", str(params)]
            )
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: parameter file holds {count} values,"
                " ansatz needs a positive multiple of 2\n"
            )

    def test_parameter_count_fixes_the_depth(self, tmp_path, capsys):
        values = np.random.default_rng(4).uniform(0.0, 2.0 * np.pi, 6).tolist()
        params = tmp_path / "six.json"
        params.write_text(json.dumps(values))
        assert main(["eval", "--task", "setosa-vs-versicolor", "--params", str(params)]) == 0
        report = json.loads(capsys.readouterr().out)
        task = make_task(load_iris(default_data_path()), "setosa", "versicolor", seed=0)
        spec, theta = AnsatzSpec(2, 3), ParameterVector(values)
        assert report["train_acc"] == accuracy(encode_dataset(task.train), spec, theta)
        assert report["test_acc"] == accuracy(encode_dataset(task.test), spec, theta)

    def test_reads_the_depth_a_train_run_chose(self, tmp_path, capsys):
        assert run_train(tmp_path, extra=["--layers", "3"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        capsys.readouterr()
        assert main(
            ["eval", "--task", "setosa-vs-versicolor", "--params", str(tmp_path / "params.json")]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["train_acc"] == summary["final_train_acc"]
        assert report["test_acc"] == summary["final_test_acc"]

    def test_non_numeric_parameters_exit_2(self, tmp_path, capsys):
        params = tmp_path / "strings.json"
        params.write_text(json.dumps(["a"] * 8))
        code = main(["eval", "--task", "setosa-vs-versicolor", "--params", str(params)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "numbers" in err

    def test_parameter_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        params = tmp_path / "huge.json"
        params.write_text(json.dumps([10**400] + [0] * 7))
        code = main(["eval", "--task", "setosa-vs-versicolor", "--params", str(params)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")

    def test_parameter_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        code = main(["eval", "--task", "setosa-vs-versicolor", "--params", str(tmp_path)])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_missing_parameter_file_exits_2(self, tmp_path):
        code = main(
            [
                "eval",
                "--task", "setosa-vs-versicolor",
                "--params", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 2


class TestCostCommand:
    def parse_rows(self, out):
        lines = [line for line in out.strip().splitlines() if line.strip()]
        header = lines[0].split()
        return [dict(zip(header, map(int, line.split()))) for line in lines[1:]]

    def test_total_increment_is_constant(self, capsys):
        assert main(["cost", "--n-min", "2", "--n-max", "4"]) == 0
        rows = self.parse_rows(capsys.readouterr().out)
        totals = [row["total"] for row in rows]
        assert totals[1] - totals[0] == totals[2] - totals[1]

    def test_swap_test_gates_at_two_controls(self, capsys):
        assert main(["cost", "--n-min", "2", "--n-max", "2"]) == 0
        rows = self.parse_rows(capsys.readouterr().out)
        assert rows[0]["swap_test_gates"] == 5

    def test_baseline_ratio_1024_vs_4(self, capsys):
        assert main(["cost", "--n-min", "2", "--n-max", "10"]) == 0
        rows = self.parse_rows(capsys.readouterr().out)
        by_n = {row["N"]: row["sequential_baseline"] for row in rows}
        assert by_n[1024] / by_n[4] == 256

    @pytest.mark.parametrize("layers", [1, 4, 300000, 4611686018427387903])
    def test_every_row_matches_the_documented_formulas(self, capsys, layers):
        # k = 2: each layer has two RYs and one CZ. Each column is as wide
        # as its widest cell, so the rows line up under the header even at
        # 2^62 - 1 layers, where the baseline takes 26 digits.
        assert main(["cost", "--n-min", "1", "--n-max", "20", "--layers", str(layers)]) == 0
        out = capsys.readouterr().out
        assert len({len(line) for line in out.splitlines()}) == 1
        expected = []
        for n in range(1, 21):
            buckets = {
                "hadamards": n,
                "qram_routing": 2 * n,
                "ansatz_gates": 3 * layers,
                "swap_test_gates": n + 3,
            }
            expected.append({
                "N": 2**n,
                **buckets,
                "total": sum(buckets.values()),
                "sequential_baseline": 2**n * (1 + 3 * layers + 3),
            })
        assert self.parse_rows(out) == expected

    def test_columns_are_the_cost_table_keys_in_row_order(self, capsys):
        # Every cost_table key but n is a column, so a new bucket needs no
        # edit of the CLI.
        assert main(["cost", "--n-min", "3", "--n-max", "3"]) == 0
        header = capsys.readouterr().out.splitlines()[0].split()
        row = varq.cost_table(3, 3, varq.AnsatzSpec(2, 4))[0]
        assert header == [column for column in row if column != "n"]

    def test_default_range_is_1_to_12(self, capsys):
        assert main(["cost"]) == 0
        rows = self.parse_rows(capsys.readouterr().out)
        assert [row["N"] for row in rows] == [1 << n for n in range(1, 13)]

    def test_invalid_range_exits_2(self):
        assert main(["cost", "--n-min", "5", "--n-max", "3"]) == 2
        assert main(["cost", "--n-min", "0", "--n-max", "3"]) == 2
        assert main(["cost", "--n-min", "1", "--n-max", "30"]) == 2


class TestEntryPoints:
    def test_module_invocation_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "varq", "cost", "--n-min", "1", "--n-max", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "sequential_baseline" in proc.stdout

    def test_diverging_step_exits_3_with_one_line(self, tmp_path):
        # The step overflows float64; numpy's warning must not reach stderr.
        proc = subprocess.run(
            [
                sys.executable, "-m", "varq", "train",
                "--task", "setosa-vs-versicolor", "--lr", "1e308", "--epochs", "3",
                "--out-metrics", str(tmp_path / "m.jsonl"),
                "--out-summary", str(tmp_path / "s.json"),
                "--out-params", str(tmp_path / "p.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("optimization error: ")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path, unbuffered):
        # Buffered, the write fails in the final flush; unbuffered, in print.
        params = tmp_path / "zeros.json"
        params.write_text(json.dumps([0.0] * 8))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "varq", "eval",
                    "--task", "setosa-vs-versicolor", "--params", str(params),
                ],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def run_python(self, code, **env):
        """stdout of `python -c code` with varq importable and the thread
        variables given in env, OPENBLAS_NUM_THREADS unset otherwise."""
        child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        src = str(Path(varq.__file__).resolve().parent.parent)
        child["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child.get("PYTHONPATH")]))
        child.update(env)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_importing_varq_first_leaves_one_thread(self):
        # varq's products are 2^k wide: an OpenBLAS worker would only spin.
        code = "import os, varq; print(len(os.listdir('/proc/self/task')))"
        assert self.run_python(code) == "1"

    def test_caller_thread_setting_wins(self):
        code = "import os, varq; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self.run_python(code, OPENBLAS_NUM_THREADS="2") == "2"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "varq" in capsys.readouterr().out
