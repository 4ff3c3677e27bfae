"""Per-pass gate counts of the modeled hardware, batched against sequential.

`pass_schedule` lists one batched pass over N = 2^n samples by bucket,
and `cost_table` counts those lists. The layer matrices are built from
the ansatz bucket, and the tests run the H, ansatz and swap-test buckets
gate by gate. The label-state preparation is left out; it would only
change the affine coefficients.
"""

from __future__ import annotations

from .ansatz import AnsatzSpec
from .errors import ConfigurationError, is_integer


def pass_schedule(n: int, spec: AnsatzSpec) -> dict[str, tuple[tuple[str, int, int], ...]]:
    """One batched pass over 2^n samples, by bucket, in the tuple format
    of `AnsatzSpec.schedule`. Qubits: data 0..k-1, controls k..k+n-1, the
    swap test's ancilla k+n, label qubits k+n+1..k+2n+1. ("H", q, q) is a
    Hadamard; ("ROUTE", c, j) and ("ACTIVATE", c, j) carry control c down
    the address tree and set its router at level j, two steps per level
    of the bucket-brigade model (Giovannetti, Lloyd and Maccone,
    arXiv:0708.1879); ("CSWAP", a, b) swaps a and b when the ancilla is
    1. The ansatz bucket is one layer, applied spec.layers times."""
    controls = range(spec.k, spec.k + n)
    ancilla = spec.k + n
    compared = (0, *controls)  # readout, then control j, with label qubit j
    return {
        "hadamards": tuple(("H", c, c) for c in controls),
        "qram_routing": tuple(
            (step, c, c - spec.k) for c in controls for step in ("ROUTE", "ACTIVATE")
        ),
        "ansatz_gates": spec.schedule,
        "swap_test_gates": (
            ("H", ancilla, ancilla),
            *(("CSWAP", q, ancilla + 1 + j) for j, q in enumerate(compared)),
            ("H", ancilla, ancilla),
        ),
    }


def _bucket_sizes(n: int, spec: AnsatzSpec) -> dict[str, int]:
    sizes = {bucket: len(gates) for bucket, gates in pass_schedule(n, spec).items()}
    return {**sizes, "ansatz_gates": spec.gate_count}


def cost_table(n_min: int, n_max: int, spec: AnsatzSpec) -> list[dict[str, int]]:
    """Rows of the batched-vs-sequential comparison for n_min..n_max: the
    four buckets of one batched pass over 2^n samples, their total, and
    the sequential baseline, which charges each of the 2^n samples one
    retrieval and the n = 0 pass."""
    if not (is_integer(n_min) and is_integer(n_max) and 1 <= n_min <= n_max <= 20):
        raise ConfigurationError(
            f"control-qubit range must be integers 1 <= min <= max <= 20, got {n_min!r}..{n_max!r}"
        )
    per_sample = 1 + sum(_bucket_sizes(0, spec).values())
    rows = []
    for n in range(n_min, n_max + 1):
        buckets = _bucket_sizes(n, spec)
        rows.append({"n": n, "N": 1 << n, **buckets, "total": sum(buckets.values()),
                     "sequential_baseline": (1 << n) * per_sample})
    return rows
