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
state, hence linear in N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ansatz import AnsatzSpec
from .errors import ConfigurationError, QramError

# Routing steps charged per level of the address tree: one activation
# plus one routing step. Any fixed constant preserves the scaling story;
# this one makes the cost tables reproducible.
ROUTING_STEPS_PER_LEVEL = 2


@dataclass(frozen=True)
class QueryCost:
    """Primitive-operation tally for one forward pass, by circuit block."""

    hadamards: int
    qram_routing: int
    ansatz_gates: int
    swap_test_gates: int

    def __post_init__(self):
        for name, count in self.breakdown.items():
            if count < 0:
                raise QramError(f"negative {name} count: {count}")

    @property
    def breakdown(self) -> dict[str, int]:
        return {
            "hadamards": self.hadamards,
            "qram_routing": self.qram_routing,
            "ansatz_gates": self.ansatz_gates,
            "swap_test_gates": self.swap_test_gates,
        }

    @property
    def primitive_ops(self) -> int:
        return sum(self.breakdown.values())


def swap_test_gate_count(n: int) -> int:
    """2 Hadamards plus (n+1) CSWAPs, one per compared qubit pair."""
    return 2 + (n + 1)


def forward_pass_cost(n: int, spec: AnsatzSpec) -> QueryCost:
    """Batched-pass cost over 2^n samples with the given ansatz."""
    return QueryCost(
        hadamards=n,
        qram_routing=ROUTING_STEPS_PER_LEVEL * n,
        ansatz_gates=spec.gate_count,
        swap_test_gates=swap_test_gate_count(n),
    )


def per_sample_cost(spec: AnsatzSpec) -> int:
    """One sample processed alone: retrieval + ansatz + 1-pair swap test."""
    return 1 + spec.gate_count + swap_test_gate_count(0)


def sequential_baseline(n: int, spec: AnsatzSpec) -> int:
    """Unbatched cost for the same 2^n samples."""
    return (1 << n) * per_sample_cost(spec)


def cost_table(n_min: int, n_max: int, spec: AnsatzSpec) -> list[dict[str, int]]:
    """Rows of the batched-vs-sequential comparison for n_min..n_max."""
    if not 1 <= n_min <= n_max <= 20:
        raise ConfigurationError(
            f"control-qubit range must satisfy 1 <= min <= max <= 20, got {n_min}..{n_max}"
        )
    rows = []
    for n in range(n_min, n_max + 1):
        cost = forward_pass_cost(n, spec)
        rows.append(
            {
                "n": n,
                "N": 1 << n,
                **cost.breakdown,
                "total": cost.primitive_ops,
                "sequential_baseline": sequential_baseline(n, spec),
            }
        )
    return rows
