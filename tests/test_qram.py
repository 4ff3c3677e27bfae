"""Superposition-addressed sample store: layout and retrieval."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from varq import (
    AnsatzSpec,
    EncodedSample,
    EncodedSet,
    FeatureSet,
    FeatureVector,
    QramError,
    QramStore,
    StateVector,
    build_store,
    cost_table,
    encode_dataset,
    query_superposed,
)

RNG = np.random.default_rng(13)


def sample_from_amps(amps, label):
    amps = np.asarray(amps, dtype=complex)
    return EncodedSample(StateVector(amps), label)


def random_samples(rng, n, k):
    """2^n real-amplitude samples, first half label 0, second half label 1."""
    half = 1 << (n - 1)
    return [
        sample_from_amps(oracles.random_real_state(rng, k), 0 if i < half else 1)
        for i in range(2 * half)
    ]


class TestBuildStore:
    def test_minimal_two_sample_store(self):
        s0 = sample_from_amps([1, 0], 0)
        s1 = sample_from_amps([0, 1], 1)
        store = build_store([s0, s1])
        assert store.n == 1
        assert store.k == 1
        assert np.array_equal(store.block, [s0.state.amplitudes, s1.state.amplitudes])
        # The address half is the class, whatever the input order.
        assert np.array_equal(build_store([s1, s0]).block, store.block)

    def test_four_samples_two_per_class(self):
        batch = random_samples(RNG, 2, 2)
        shuffled = [batch[0], batch[2], batch[1], batch[3]]
        store = build_store(shuffled)
        assert store.n == 2
        # Label 0 fills the lower address half and label 1 the upper;
        # input order is preserved within each class half.
        assert np.array_equal(store.block, [s.state.amplitudes for s in batch])

    def test_non_power_of_two_rejected(self):
        batch = random_samples(RNG, 2, 2)
        with pytest.raises(QramError):
            build_store(batch[:3])

    def test_single_sample_rejected(self):
        with pytest.raises(QramError):
            build_store([sample_from_amps([1, 0], 0)])

    def test_unbalanced_classes_rejected(self):
        s0 = sample_from_amps([1, 0], 0)
        s0b = sample_from_amps([0, 1], 0)
        with pytest.raises(QramError):
            build_store([s0, s0b])

    def test_a_list_of_real_samples_is_stored_as_float64(self):
        # StateVectors are complex128, but an imaginary part of exactly 0
        # is dropped: the list and the EncodedSet give the same block.
        features = FeatureSet(np.random.default_rng(41).uniform(-9, 9, (8, 4)), [0, 1] * 4)
        encoded = encode_dataset(features)
        from_list = build_store(list(encoded))
        from_set = build_store(encoded)
        assert from_list.block.dtype == from_set.block.dtype == np.float64
        assert np.array_equal(from_list.block, from_set.block)
        phased = build_store([sample_from_amps(1j * s.state.amplitudes, s.label) for s in encoded])
        assert phased.block.dtype == np.complex128
        # The list is stacked only when every sample has one width.
        mixed = list(encoded)
        mixed[5] = encode_dataset([FeatureVector([1.0, 2.0], encoded[5].label)])[0]
        with pytest.raises(QramError, match="sample 5 has 1 qubits, sample 0 has 2"):
            build_store(mixed)

    def test_mixed_qubit_counts_rejected(self):
        s0 = sample_from_amps([1, 0], 0)
        s1 = sample_from_amps([0, 0, 0, 1], 1)
        with pytest.raises(QramError):
            build_store([s0, s1])

    def test_store_validates_class_partition(self):
        # The address half is the class: build_store checks that the two
        # classes fill equal halves, then sorts each into its own half.
        features = FeatureSet(np.random.default_rng(43).uniform(-9, 9, (4, 4)), [1, 0, 1, 0])
        encoded = encode_dataset(features)
        store = build_store(encoded)
        assert np.array_equal(store.block, encoded.amplitudes[[1, 3, 0, 2]])
        with pytest.raises(QramError, match="unbalanced batch: 1 label-0 vs 3 label-1"):
            build_store(EncodedSet(encoded.amplitudes, [1, 0, 1, 1]))

    def test_store_rejects_missing_cell(self):
        # A block one row short of 2^n has an address with no sample, and
        # one row needs no address qubit at all.
        for rows in (1, 3):
            with pytest.raises(QramError, match="shape"):
                QramStore(np.eye(rows, 2, dtype=complex))

    def test_store_rejects_a_block_of_the_wrong_width(self):
        # Rows of 2^k amplitudes, one per address.
        for block in (np.eye(2, 3, dtype=complex), np.ones(4, dtype=complex)):
            with pytest.raises(QramError, match="shape"):
                QramStore(block)


class TestQuerySuperposed:
    def test_two_basis_cells_give_bell_state(self):
        store = build_store(
            [sample_from_amps([1, 0], 0), sample_from_amps([0, 1], 1)]
        )
        out = query_superposed(store)
        assert out.num_qubits == 2
        assert_allclose(out.amplitudes, [np.sqrt(0.5), 0, 0, np.sqrt(0.5)], atol=1e-15)

    def test_identical_cells_factorize_into_uniform_controls(self):
        cell = [1.0, 0.0, 0.0, 0.0]
        store = build_store(
            [sample_from_amps(cell, 0)] * 2 + [sample_from_amps(cell, 1)] * 2
        )
        out = query_superposed(store)
        expected = np.kron([1, 0, 0, 0], [0.5, 0.5, 0.5, 0.5])
        assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_matches_amplitude_placement_oracle(self):
        for _ in range(20):
            batch = random_samples(RNG, 2, 2)
            store = build_store(batch)
            out = query_superposed(store)
            expected = oracles.amplitude_placement(
                list(store.block), store.n
            )
            assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_output_is_normalized(self):
        for n in (1, 2, 3):
            store = build_store(random_samples(RNG, n, 2))
            assert abs(np.linalg.norm(query_superposed(store).amplitudes) - 1.0) < 1e-12

    def test_tracing_out_controls_gives_uniform_mixture(self):
        batch = random_samples(RNG, 2, 2)
        store = build_store(batch)
        out = query_superposed(store)
        rho = oracles.brute_force_partial_trace(out.amplitudes, 4, [0, 1])
        expected = np.zeros((4, 4), dtype=complex)
        for a in store.block:
            expected += np.outer(a, a.conj()) / 4
        assert_allclose(rho, expected, atol=1e-10)

    def test_projecting_each_address_recovers_the_stored_state(self):
        batch = random_samples(RNG, 3, 2)
        store = build_store(batch)
        out = query_superposed(store)
        for addr, row in enumerate(store.block):
            recovered = oracles.project_controls(out.amplitudes, store.k, store.n, addr)
            assert_allclose(recovered, row, atol=1e-10)


class TestQueryCost:
    def test_routing_ratio_between_1024_and_4_cells(self):
        spec = AnsatzSpec(1, 1)
        big = build_store(random_samples(RNG, 10, 1))
        small = build_store(random_samples(RNG, 2, 1))
        (big_row,) = cost_table(big.n, big.n, spec)
        (small_row,) = cost_table(small.n, small.n, spec)
        assert big_row["qram_routing"] / small_row["qram_routing"] == 5
