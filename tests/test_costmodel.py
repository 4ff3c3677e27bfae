"""Gate-count accounting: batched forward pass vs per-sample baseline."""

import numpy as np
import pytest

from varq import cost_table, default_ansatz
from varq.errors import ConfigurationError


SPEC = default_ansatz(2, layers=4)
ROWS = cost_table(1, 12, SPEC)


class TestForwardPassCost:
    def test_breakdown_for_two_controls(self):
        (row,) = cost_table(2, 2, SPEC)
        assert row["hadamards"] == 2
        assert row["qram_routing"] == 4
        assert row["ansatz_gates"] == 12
        assert row["swap_test_gates"] == 5
        assert row["total"] == 23

    def test_total_is_affine_in_n_with_constant_increment(self):
        totals = [row["total"] for row in ROWS]
        assert len(set(np.diff(totals))) == 1

    def test_ansatz_share_does_not_grow_with_n(self):
        shares = {row["ansatz_gates"] for row in ROWS}
        assert shares == {SPEC.gate_count}


class TestSequentialBaseline:
    def test_per_sample_cost_matches_circuit_blocks(self):
        # One encoding step, the full ansatz, then a 1-pair comparison.
        per_sample = {row["sequential_baseline"] / row["N"] for row in ROWS}
        assert per_sample == {1 + SPEC.gate_count + 3}

    def test_baseline_is_linear_in_sample_count(self):
        ratios = [row["sequential_baseline"] / row["N"] for row in ROWS]
        assert len(set(ratios)) == 1

    def test_ratio_between_1024_and_4_samples(self):
        by_n = {row["n"]: row["sequential_baseline"] for row in ROWS}
        assert by_n[10] / by_n[2] == 256


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
            assert row["sequential_baseline"] == row["N"] * (1 + SPEC.gate_count + 3)

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
