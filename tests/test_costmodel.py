"""Gate-count accounting: batched forward pass vs per-sample baseline,
counted from the gate lists of `pass_schedule`, which the oracle runs."""

import time

import numpy as np
import pytest

import oracles
from oracles import GateOp
from varq import AnsatzSpec, ParameterVector, cost_table
from varq.ansatz import DEFAULT_LAYERS
from varq.costmodel import pass_schedule
from varq.errors import ConfigurationError
from varq.loss import batched_loss
from varq.qram import QramStore


SPEC = AnsatzSpec(2, 4)
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

    def test_huge_layer_count_is_counted_without_listing_its_gates(self):
        # The ansatz bucket is one layer times the layer count: 2^62 - 1
        # layers, the most that fit in a signed 64-bit angle index at k = 2.
        start = time.perf_counter()
        spec = AnsatzSpec(2, 2**62 - 1)
        count = spec.gate_count
        rows = cost_table(1, 20, spec)
        assert time.perf_counter() - start < 1.0
        assert count == 3 * (2**62 - 1)
        assert {row["ansatz_gates"] for row in rows} == {count}


def gate_op(kind, a, b, angles, ancilla):
    """One pass_schedule tuple as a GateOp: an RY on qubit a reads
    angles[b], an H acts on a (= b) and a CSWAP swaps a and b when the
    ancilla is 1."""
    if kind == "RY":
        return GateOp.ry(a, angles[b])
    if kind == "CZ":
        return GateOp.cz(a, b)
    if kind == "H":
        assert a == b
        return GateOp.h(a)
    assert kind == "CSWAP", kind
    return GateOp.cswap(ancilla, a, b)


class TestPassSchedule:
    def test_pass_at_two_controls_names_every_gate(self):
        # Data 0-1, controls 2-3, ancilla 4, label qubits 5-7.
        assert pass_schedule(2, SPEC) == {
            "hadamards": (("H", 2, 2), ("H", 3, 3)),
            "qram_routing": (
                ("ROUTE", 2, 0), ("ACTIVATE", 2, 0), ("ROUTE", 3, 1), ("ACTIVATE", 3, 1),
            ),
            "ansatz_gates": (("RY", 0, 0), ("RY", 1, 1), ("CZ", 0, 1)),
            "swap_test_gates": (
                ("H", 4, 4), ("CSWAP", 0, 5), ("CSWAP", 2, 6), ("CSWAP", 3, 7), ("H", 4, 4),
            ),
        }

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("k", range(1, 4))
    def test_hadamards_put_the_controls_in_uniform_superposition(self, k, n):
        hadamards = pass_schedule(n, AnsatzSpec(k, DEFAULT_LAYERS))["hadamards"]
        ops = [gate_op(*gate, None, None) for gate in hadamards]
        out = oracles.apply_gates_local(oracles.basis_state(k + n, 0), k + n, ops)
        cells = [oracles.basis_state(k, 0)] * (1 << n)
        assert np.max(np.abs(out - oracles.amplitude_placement(cells, n))) < 1e-12

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("k", range(1, 4))
    def test_ansatz_and_swap_test_run_gate_by_gate_match_batched_loss(self, k, n):
        # The placed register, the ancilla and the label state, one gate at
        # a time: the ansatz bucket once per layer, then the swap test.
        rng = np.random.default_rng(1000 + 10 * k + n)
        spec = AnsatzSpec(k, 2)
        buckets = pass_schedule(n, spec)
        (row,) = cost_table(n, n, spec)
        ancilla = k + n
        for draw in (oracles.random_real_state, oracles.random_state):
            block = np.array([draw(rng, k) for _ in range(1 << n)])
            if draw is oracles.random_real_state:
                block = block.real
            theta = rng.uniform(0, 2 * np.pi, spec.parameter_count)
            ops = [
                gate_op(*gate, theta[layer * k : (layer + 1) * k], ancilla)
                for layer in range(spec.layers)
                for gate in buckets["ansatz_gates"]
            ] + [gate_op(*gate, None, ancilla) for gate in buckets["swap_test_gates"]]
            assert len(ops) == row["ansatz_gates"] + row["swap_test_gates"]
            register = np.kron(
                np.kron(oracles.amplitude_placement(block, n), [1.0, 0.0]),
                oracles.label_state_vector(n),
            )
            out = oracles.apply_gates_local(register, k + 2 * n + 2, ops)
            gate_level = 2.0 - 2.0 * oracles.probability(out, ancilla, 0)
            store = QramStore(block)
            assert abs(gate_level - batched_loss(store, spec, ParameterVector(theta))) < 1e-12
