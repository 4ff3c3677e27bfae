"""Per-query cost accounting for the batched forward pass.

All counts are abstract primitive operations of the modeled hardware;
the simulator's own amplitude bookkeeping is deliberately excluded. One
batched pass over N = 2^n samples tallies four buckets:

  hadamards        n       address-superposition layer
  qram_routing     2n      two routing steps per level of the address tree
  ansatz_gates     const   rotations + entanglers, independent of n
  swap_test_gates  n+3     2 Hadamards + (n+1) CSWAPs

so the total is affine in n = log2 N. The label-state preparation (n
Hadamards plus one CNOT) is constant-per-level bookkeeping outside these
buckets; including it would only change the affine coefficients. The
sequential baseline charges every sample its own pass: one retrieval,
the full ansatz, and a single-pair swap test against its one-qubit label
state, 1 + gate_count + 3 operations per sample, hence linear in N.
`cost_table` builds one row of these counts per n.
"""

from __future__ import annotations

from .ansatz import AnsatzSpec
from .errors import ConfigurationError

# Routing steps charged per level of the address tree: one activation
# plus one routing step. Any fixed constant preserves the scaling story;
# this one makes the cost tables reproducible.
ROUTING_STEPS_PER_LEVEL = 2


def cost_table(n_min: int, n_max: int, spec: AnsatzSpec) -> list[dict[str, int]]:
    """Rows of the batched-vs-sequential comparison for n_min..n_max: the
    four buckets of one batched pass over 2^n samples, their total, and
    the sequential baseline of 2^n single-sample passes."""
    if not 1 <= n_min <= n_max <= 20:
        raise ConfigurationError(
            f"control-qubit range must satisfy 1 <= min <= max <= 20, got {n_min}..{n_max}"
        )
    rows = []
    for n in range(n_min, n_max + 1):
        buckets = {
            "hadamards": n,
            "qram_routing": ROUTING_STEPS_PER_LEVEL * n,
            "ansatz_gates": spec.gate_count,
            "swap_test_gates": 2 + (n + 1),  # 2 Hadamards, one CSWAP per compared pair
        }
        rows.append(
            {
                "n": n,
                "N": 1 << n,
                **buckets,
                "total": sum(buckets.values()),
                "sequential_baseline": (1 << n) * (1 + spec.gate_count + 3),
            }
        )
    return rows
