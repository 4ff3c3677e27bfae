"""Gate-count accounting: batched forward pass vs per-sample baseline."""

import numpy as np
import pytest

from varq import (
    QramError,
    QueryCost,
    forward_pass_cost,
    cost_table,
    default_ansatz,
    sequential_baseline,
)
from varq.costmodel import per_sample_cost
from varq.errors import ConfigurationError


SPEC = default_ansatz(2, layers=4)


class TestQueryCost:
    def test_primitive_ops_is_sum_of_breakdown(self):
        cost = QueryCost(hadamards=3, qram_routing=6, ansatz_gates=12, swap_test_gates=6)
        assert cost.primitive_ops == 27
        assert cost.primitive_ops == sum(cost.breakdown.values())

    def test_negative_counts_rejected(self):
        with pytest.raises(QramError):
            QueryCost(hadamards=-1, qram_routing=0, ansatz_gates=0, swap_test_gates=0)


class TestForwardPassCost:
    def test_breakdown_for_two_controls(self):
        cost = forward_pass_cost(2, SPEC)
        assert cost.hadamards == 2
        assert cost.qram_routing == 4
        assert cost.ansatz_gates == 12
        assert cost.swap_test_gates == 5
        assert cost.primitive_ops == 23

    def test_total_is_affine_in_n_with_constant_increment(self):
        totals = [forward_pass_cost(n, SPEC).primitive_ops for n in range(1, 13)]
        assert len(set(np.diff(totals))) == 1

    def test_ansatz_share_does_not_grow_with_n(self):
        shares = {forward_pass_cost(n, SPEC).ansatz_gates for n in range(1, 13)}
        assert shares == {SPEC.gate_count}


class TestSequentialBaseline:
    def test_per_sample_cost_matches_circuit_blocks(self):
        # One encoding step, the full ansatz, then a 1-pair comparison.
        assert per_sample_cost(SPEC) == 1 + SPEC.gate_count + 3

    def test_baseline_is_linear_in_sample_count(self):
        baselines = [sequential_baseline(n, SPEC) for n in range(1, 13)]
        ratios = [b / (1 << n) for n, b in zip(range(1, 13), baselines)]
        assert len(set(ratios)) == 1

    def test_ratio_between_1024_and_4_samples(self):
        assert sequential_baseline(10, SPEC) / sequential_baseline(2, SPEC) == 256


class TestCostTable:
    def test_rows_cover_requested_range(self):
        rows = cost_table(1, 12, SPEC)
        assert [row["n"] for row in rows] == list(range(1, 13))
        assert [row["N"] for row in rows] == [1 << n for n in range(1, 13)]

    def test_row_totals_are_consistent(self):
        for row in cost_table(1, 12, SPEC):
            parts = (
                row["hadamards"]
                + row["qram_routing"]
                + row["ansatz_gates"]
                + row["swap_test_gates"]
            )
            assert row["total"] == parts
            assert row["sequential_baseline"] == row["N"] * per_sample_cost(SPEC)

    def test_baseline_overtakes_batched_total_and_keeps_growing(self):
        rows = cost_table(1, 12, SPEC)
        ratios = [
            row["sequential_baseline"] / row["total"] for row in rows if row["N"] >= 8
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            cost_table(3, 2, SPEC)
        with pytest.raises(ConfigurationError):
            cost_table(0, 4, SPEC)
