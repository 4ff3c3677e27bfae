"""Outside-in span recorder for varq's public functions.

Each target is wrapped at every name that refers to it in a loaded
varq module, because modules import functions by name (the trainer calls
`varq.trainer.batched_loss`, the CLI calls `varq.cli.train`). A target
that no longer exists is reported as absent instead of failing the run.

Spans nest: a wrapper's self time is its duration minus the durations of
the wrapped calls made inside it. Totals stay in memory until `report`.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# (layer, function): every public function on some workload's path.
TARGETS = (
    ("cli", "main"),
    ("dataset", "load_iris"),
    ("dataset", "make_task"),
    ("encoding", "encode_dataset"),
    ("qram", "build_store"),
    ("qram", "query_superposed"),
    ("ansatz", "apply_ansatz"),
    ("loss", "batched_loss"),
    ("loss", "swap_test"),
    ("loss", "prepare_label_state"),
    ("trainer", "train"),
    ("trainer", "numerical_gradient"),
    ("trainer", "make_batches"),
    ("trainer", "accuracy"),
    ("trainer", "classify"),
    ("statevector", "measure_probability"),
)
# The one wrapped function whose every call duration is kept, for percentiles.
STEP_FUNCTION = "trainer.numerical_gradient"


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _ansatz_gates(args, kwargs):
    return {"ansatz.gates": getattr(_arg(args, kwargs, 0, "spec"), "gate_count", 0)}


def _swap_test_bytes(args, kwargs):
    """Computed size of the swap test's joint register, 16 B per amplitude:
    ancilla + data state + (1 + n)-qubit label state."""
    data = getattr(_arg(args, kwargs, 0, "data_state"), "num_qubits", None)
    n = getattr(_arg(args, kwargs, 1, "label"), "n", None)
    if data is None or n is None:
        return {}
    return {
        "loss.swap_test.bytes": 16 << (data + n + 2),
        "loss.swap_test.state_bytes": 16 << data,
    }


COUNTERS = {
    "ansatz.apply_ansatz": _ansatz_gates,
    "loss.swap_test": _swap_test_bytes,
}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.step_s: list[float] = []
        self.absent: list[str] = []
        self._stack: list[float] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        keep = self.step_s if name == STEP_FUNCTION else None
        stack = self._stack
        calls, self_s, counters = self.calls, self.self_s, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - inner
                if keep is not None:
                    keep.append(elapsed)
                if counter is not None:
                    for key, value in counter(args, kwargs).items():
                        counters[key] = counters.get(key, 0) + value

        return wrapper

    def install(self) -> None:
        """Import every varq module and wrap each target at all of its names."""
        root = importlib.import_module("varq")
        for info in pkgutil.iter_modules(root.__path__):
            if info.name != "__main__":
                importlib.import_module(f"varq.{info.name}")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "varq" or key.startswith("varq."))]
        for layer, func in TARGETS:
            name = f"{layer}.{func}"
            home = sys.modules.get(f"varq.{layer}")
            original = getattr(home, func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self.calls[name] = 0
            self.self_s[name] = 0.0
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counters": self.counters,
            "step_s": self.step_s,
            "absent": self.absent,
        }
