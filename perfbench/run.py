"""varq benchmark: runs the real `varq` CLI on one workload and reports.

    python3 perfbench/run.py --workload iris-train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from its
`src` directory. Each run of the CLI is a fresh child process, and
children run one at a time.

--trace 0 measures the end-to-end metrics: the workload is run repeatedly
for --seconds (at least twice), set-up is timed in five fresh processes
spread between those runs, and medians are reported.

--trace 1 measures the per-layer metrics: one untraced child, one traced
child whose public varq functions are wrapped from outside (see
tracer.py), and a stage sweep over batch sizes 2^n (see probes.py).

Every child's outputs are checked: exit code, parseable artifacts,
byte-identical metrics across children of one run, and a dense-matrix
oracle (oracle.py) that recomputes the final accuracies and one batch's
loss, and replays exact-mode training epoch by epoch. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the line before it holds the full report, including the
environment and every child's figures.
--smoke runs each workload at a tiny size in both modes and checks that
every metric named in BENCHMARK.json is reported with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBES = HERE / "probes.py"
sys.path.insert(0, str(HERE))
from probes import SWEEP_BUDGET_BYTES, SWEEP_STAGES, sweep_working_set  # noqa: E402
from tracer import TARGETS  # noqa: E402

TASK = "setosa-vs-versicolor"
SPECIES_MEANS = {
    "setosa": (5.0, 3.4, 1.5, 0.25),
    "versicolor": (5.9, 2.8, 4.3, 1.3),
    "virginica": (6.6, 3.0, 5.6, 2.0),
}
SETUP_REPEATS = 5
SWEEP_NS = (2, 6, 9, 12)
SMOKE_SWEEP_NS = (2, 12)
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9)


# ---------------------------------------------------------------- workloads

@dataclass
class Plan:
    """What one workload runs, on which inputs, and what it must produce."""

    argv: list[str]
    csv: str = "-"              # "-" means the packaged Iris CSV
    n: int = 2
    epochs: int | None = None   # None for eval
    params: str | None = None   # eval input
    perfect: bool = False       # train = test = 1.0 expected
    replay: bool = False        # exact-mode training, replayed by the oracle


def write_iris_csv(path: Path, rows_per_species: int, seed: int) -> None:
    """Iris-format CSV: 4 positive features and a species column."""
    import numpy as np

    rng = np.random.default_rng(seed)
    lines = ["sepal_length,sepal_width,petal_length,petal_width,species"]
    for name, mean in SPECIES_MEANS.items():
        feats = np.maximum(rng.normal(mean, 0.35, size=(rows_per_species, 4)), 0.05)
        lines += [",".join(f"{v:.2f}" for v in row) + f",{name}" for row in feats]
    path.write_text("\n".join(lines) + "\n")


def plan_workload(name: str, seed: int, work: Path, smoke: bool) -> Plan:
    import numpy as np

    if name == "iris-train":
        epochs = 2 if smoke else 100
        argv = ["train", "--task", TASK] + (["--epochs", str(epochs)] if smoke else [])
        return Plan(argv, epochs=epochs, perfect=not smoke, replay=True)
    if name == "iris-shots":
        epochs = 2 if smoke else 25
        shots = 64 if smoke else 4096
        return Plan(["train", "--task", TASK, "--shots", str(shots), "--epochs", str(epochs),
                     "--seed-shots", str(seed)], epochs=epochs)
    if name == "wide-train":
        n, epochs, rows = (3, 1, 16) if smoke else (8, 4, 320)
        csv = work / "wide.csv"
        write_iris_csv(csv, rows, seed)
        return Plan(["train", "--task", TASK, "--data", str(csv), "--n", str(n),
                     "--epochs", str(epochs)], csv=str(csv), n=n, epochs=epochs, replay=True)
    if name == "bulk-eval":
        rows = 100 if smoke else 20000
        csv = work / "bulk.csv"
        write_iris_csv(csv, rows, seed)
        params = work / "params.json"
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=8)
        params.write_text(json.dumps(theta.tolist()) + "\n")
        return Plan(["eval", "--task", TASK, "--data", str(csv), "--params", str(params)],
                    csv=str(csv), params=str(params))
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------- children

@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    spawned_at: float
    ended_at: float
    cwd: Path
    stdout: str = ""
    stderr: str = ""
    problems: list[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = env.get(var, "")
        if value.isdigit() and int(value) > nproc:
            env[var] = str(nproc)
    return env


def spawn(args: list[str], cwd: Path, timeout: float) -> Child:
    """Run `python3 args...` in cwd; time it and read its rusage via wait4."""
    cwd.mkdir(parents=True, exist_ok=True)
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        spawned_at = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        ended_at = time.time()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    child = Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  spawned_at, ended_at, cwd,
                  (cwd / "stdout.txt").read_text(errors="replace"),
                  (cwd / "stderr.txt").read_text(errors="replace"))
    if code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        child.problems.append(f"exit code {code}: {tail[0]}")
    return child


def check_outputs(plan: Plan, child: Child) -> bytes | None:
    """Parse the artifacts; return the bytes that must repeat exactly."""
    if child.code != 0:
        return None
    try:
        if plan.epochs is None:
            report = json.loads(child.stdout)
            for key in ("train_acc", "test_acc"):
                if not isinstance(report.get(key), float):
                    child.problems.append(f"eval report lacks {key}")
            return child.stdout.encode()
        raw = (child.cwd / "metrics.jsonl").read_bytes()
        records = [json.loads(line) for line in raw.decode().splitlines()]
        summary = json.loads((child.cwd / "summary.json").read_text())
        params = json.loads((child.cwd / "params.json").read_text())
    except (OSError, ValueError) as exc:
        child.problems.append(f"artifacts do not parse: {exc}")
        return None
    if [r.get("epoch") for r in records] != list(range(1, plan.epochs + 1)):
        child.problems.append("metrics.jsonl does not hold one record per epoch")
    if not (isinstance(params, list) and all(isinstance(v, float) for v in params)):
        child.problems.append("params.json is not a list of floats")
    for key in ("final_train_acc", "final_test_acc"):
        if not isinstance(summary.get(key), float):
            child.problems.append(f"summary.json lacks {key}")
    if plan.perfect and (summary.get("final_train_acc"), summary.get("final_test_acc")) != (1.0, 1.0):
        child.problems.append(f"expected train = test = 1.0, got {summary.get('final_train_acc')}"
                              f" / {summary.get('final_test_acc')}")
    return raw


def oracle_check(plan: Plan, child: Child, work: Path, deadline: float) -> list[str]:
    """Recompute the child's final accuracies and one batch loss, and
    replay its training when it ran in exact mode."""
    if plan.epochs is None:
        report = json.loads(child.stdout)
        params, train_acc, test_acc = plan.params, report["train_acc"], report["test_acc"]
    else:
        summary = json.loads((child.cwd / "summary.json").read_text())
        params = str(child.cwd / "params.json")
        train_acc, test_acc = summary["final_train_acc"], summary["final_test_acc"]
    replay = ["--metrics", str(child.cwd / "metrics.jsonl")] if plan.replay else []
    res = spawn([str(PROBES), "oracle", "--csv", plan.csv, "--task", TASK, "--n", str(plan.n),
                 "--params", params, "--train-acc", repr(train_acc), "--test-acc", repr(test_acc),
                 *replay], work / "oracle", deadline - time.perf_counter())
    if res.code == 0:
        return []
    try:
        return ["oracle: " + p for p in json.loads(res.stdout)["problems"]]
    except (ValueError, KeyError):
        return res.problems or ["oracle failed"]


def spawn_child(plan: Plan, cwd: Path, deadline: float) -> Child:
    return spawn(["-m", "varq", *plan.argv], cwd, deadline - time.perf_counter())


def spawn_setup(plan: Plan, cwd: Path, deadline: float) -> Child:
    return spawn([str(PROBES), "setup", "--csv", plan.csv, "--task", TASK], cwd,
                 deadline - time.perf_counter())


def verify(plan: Plan, children: list[Child], work: Path, deadline: float) -> None:
    """Checks every child; the first good one is also checked by the oracle."""
    reference = None
    for child in children:
        out = check_outputs(plan, child)
        if out is None:
            continue
        if reference is None:
            reference = out
            problems = oracle_check(plan, child, work, deadline) if not child.problems else []
            child.problems += problems
            oracle_failed = bool(problems)
        elif out != reference:
            child.problems.append("outputs differ from the first child's")
        elif oracle_failed:
            child.problems.append("oracle check failed on identical outputs")


# ---------------------------------------------------------------- metrics

def end_to_end(plan: Plan, work: Path, seconds: float, deadline: float, report: dict):
    """Children until one more would overrun `seconds` (at least two while
    the deadline allows), with the set-up probes spread between them."""
    start = time.perf_counter()
    probes, children = [], []
    while True:
        if len(probes) < SETUP_REPEATS:
            probes.append(spawn_setup(plan, work / f"setup{len(probes)}", deadline))
        child = spawn_child(plan, work / f"child{len(children)}", deadline)
        children.append(child)
        elapsed = time.perf_counter() - start
        if deadline - time.perf_counter() < 2 * child.wall_s:
            break
        if len(children) >= 2 and elapsed + child.wall_s > seconds:
            break
    while len(probes) < SETUP_REPEATS:
        probes.append(spawn_setup(plan, work / f"setup{len(probes)}", deadline))
    verify(plan, children, work, deadline)
    attempted = len(children) + len(probes)
    failed = sum(1 for c in children + probes if c.problems)
    report["setup_s"] = [p.wall_s for p in probes]
    report["children"] = [child_summary(c) for c in children]
    metrics = {
        "wall_s": (statistics.median([c.wall_s for c in children]), "s"),
        "cpu_s": (statistics.median([c.cpu_s for c in children]), "s"),
        "peak_rss_mb": (statistics.median([c.rss_mb for c in children]), "MB"),
        "setup_s": (statistics.median([p.wall_s for p in probes]), "s"),
        "pass_ratio": (1.0 - failed / attempted, "ratio"),
    }
    report["problems"] = [p for c in children + probes for p in c.problems]
    return metrics, attempted, failed


def tail_percentile(samples: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = 50.0
    for pct in PERCENTILES:
        if len(ordered) * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    if not ordered:
        return 0.0, 0.0, best
    def at(pct):
        return ordered[min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))]
    return at(50.0), at(best), best


def per_layer(plan: Plan, work: Path, seed: int, deadline: float, smoke: bool, report: dict):
    children = [spawn_child(plan, work / "child0", deadline)]
    trace_file = work / "trace.json"
    traced = spawn([str(PROBES), "traced", "--trace-out", str(trace_file), "--", *plan.argv],
                   work / "traced", deadline - time.perf_counter())
    children.append(traced)
    verify(plan, children, work, deadline)
    sweep_file = work / "sweep.json"
    ns = SMOKE_SWEEP_NS if smoke else SWEEP_NS
    sweep = spawn([str(PROBES), "sweep", "--out", str(sweep_file), "--ns", ",".join(map(str, ns)),
                   "--seed", str(seed)],
                  work / "sweep", deadline - time.perf_counter())
    report["children"] = [child_summary(c) for c in children]
    report["problems"] = [p for c in children + [sweep] for p in c.problems]
    failed = sum(1 for c in children + [sweep] if c.problems)
    trace = json.loads(trace_file.read_text()) if trace_file.exists() else {
        "calls": {}, "self_s": {}, "counters": {}, "step_s": [], "absent": [], "import_s": 0.0,
        "t_start": traced.spawned_at, "t_end": traced.ended_at}
    sweep_results = json.loads(sweep_file.read_text()) if sweep_file.exists() else {}
    report["sweep"] = sweep_results
    report["absent"] = trace["absent"]

    metrics = {}
    for layer, func in TARGETS:
        name = f"{layer}.{func}"
        metrics[f"{name}.calls"] = (trace["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = (trace["self_s"].get(name, 0.0), "s")
    startup = trace["t_start"] - traced.spawned_at
    exit_s = traced.ended_at - trace["t_end"]
    metrics["process.startup.self_s"] = (startup, "s")
    metrics["process.import.self_s"] = (trace["import_s"], "s")
    metrics["process.exit.self_s"] = (exit_s, "s")
    # cli.main's self time is whatever no other span claims, so it is left
    # out: coverage falls when work runs outside the named layers.
    covered = (sum(trace["self_s"].values()) - trace["self_s"].get("cli.main", 0.0)
               + startup + trace["import_s"] + exit_s)

    counters = trace["counters"]
    gates = counters.get("ansatz.gates", 0)
    ansatz_self = trace["self_s"].get("ansatz.apply_ansatz", 0.0)
    swaps = trace["calls"].get("loss.swap_test", 0)
    joint = counters.get("loss.swap_test.bytes", 0)
    state = counters.get("loss.swap_test.state_bytes", 0)
    metrics["ansatz.gates"] = (gates, "count")
    metrics["ansatz.ns_per_gate"] = (ansatz_self / gates * 1e9 if gates else 0.0, "ns")
    metrics["loss.swap_test.bytes"] = (joint / swaps if swaps else 0.0, "B")
    metrics["loss.swap_test.bytes_per_state_byte"] = (joint / state if state else 0.0, "ratio")
    steps = [d * 1e3 for d in trace["step_s"]]
    p50, tail, pct = tail_percentile(steps)
    metrics["trainer.step_ms.p50"] = (p50, "ms")
    metrics["trainer.step_ms.tail"] = (tail, "ms")
    metrics["trainer.step_ms.tail_pct"] = (pct, "%")
    metrics["trainer.step_ms.samples"] = (len(steps), "count")
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.untraced_wall_s"] = (children[0].wall_s, "s")
    metrics["trace.overhead_s"] = (traced.wall_s - children[0].wall_s, "s")
    metrics["trace.coverage"] = (covered / traced.wall_s, "ratio")
    for key, entry in sweep_results.items():
        if "value" in entry:
            metrics[key] = (entry["value"], "ms")
    return metrics, len(children) + 1, failed


def child_summary(c: Child) -> dict:
    return {"code": c.code, "wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_mb": c.rss_mb,
            "problems": c.problems}


# ---------------------------------------------------------------- reporting

def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": sha,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def expected_sweep_keys(ns=SWEEP_NS) -> list[str]:
    return [f"sweep.{stage}.n{n}_ms" for n in ns for stage in SWEEP_STAGES
            if sweep_working_set(stage, n) <= SWEEP_BUDGET_BYTES]


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """One benchmark run; returns the full report and the result object."""
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "smoke": smoke, "environment": environment()}
    try:
        # Compile bytecode once so that no timed child pays for it.
        spawn(["-c", "import varq.cli"], work / "warmup", 60.0)
        plan = plan_workload(workload, seed, work, smoke)
        if trace:
            metrics, attempted, failed = per_layer(plan, work, seed, deadline, smoke, report)
        else:
            metrics, attempted, failed = end_to_end(plan, work, seconds, deadline, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["run_s"] = time.perf_counter() - start
    return report, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke() -> int:
    """Every workload at a tiny size, both modes; checks names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (False, True):
            report, result = run_one(w["name"], 1, 1.0, trace, smoke=True)
            print(json.dumps({"report": report}))
            print(json.dumps(result))
            if not result["correct"]:
                problems.append(f"{w['name']} trace={int(trace)}: outputs failed their checks")
            declared = declared_metrics(trace)
            expected = set(declared)
            if trace:  # the smoke sweep covers fewer n
                expected -= set(expected_sweep_keys()) - set(expected_sweep_keys(SMOKE_SWEEP_NS))
            for name in sorted(expected):
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != declared[name]:
                    problems.append(f"{w['name']} trace={int(trace)}: {name} missing or wrong unit")
    if trace_names_missing := set(expected_sweep_keys()) - set(declared_metrics(True)):
        problems.append(f"BENCHMARK.json lacks sweep metrics {sorted(trace_names_missing)}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; check metric names")
    parser.add_argument("--out", help="also write the report and result to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "varq" / "__init__.py").is_file():
        print(f"perfbench: no varq sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    report, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    if args.out:
        Path(args.out).write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
