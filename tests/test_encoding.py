"""Amplitude encoding: normalization, padding, and dataset sweeps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from varq import (
    ConfigurationError,
    EncodedSample,
    EncodedSet,
    FeatureSet,
    FeatureVector,
    build_store,
    encode_dataset,
)

RNG = np.random.default_rng(11)


class TestFeatureVector:
    def test_holds_values_and_label(self):
        x = FeatureVector([1.0, 2.0], 1)
        assert x.dimension == 2
        assert x.label == 1

    def test_rejects_bad_label(self):
        with pytest.raises(ConfigurationError, match="label must be 0 or 1"):
            FeatureVector([1.0], 2)

    def test_rejects_empty_or_2d_values(self):
        with pytest.raises(ConfigurationError, match="must be 1-D and nonempty"):
            FeatureVector([], 0)
        with pytest.raises(ConfigurationError, match="must be 1-D and nonempty"):
            FeatureVector([[1.0, 2.0]], 0)


class TestAmplitudeEncode:
    """One vector encoded on its own: encode_dataset([x])[0]."""

    def test_basis_aligned_vector(self):
        enc = encode_dataset([FeatureVector([1.0, 0.0, 0.0, 0.0], 0)])[0]
        assert enc.state.num_qubits == 2
        assert_allclose(enc.state.amplitudes, [1, 0, 0, 0], atol=0)

    def test_constant_vector_gives_uniform_state(self):
        enc = encode_dataset([FeatureVector([1.0, 1.0, 1.0, 1.0], 0)])[0]
        assert_allclose(enc.state.amplitudes, [0.5] * 4, atol=1e-15)

    def test_iris_sample_against_hand_normalization(self):
        x = np.array([5.1, 3.5, 1.4, 0.2])
        enc = encode_dataset([FeatureVector(x, 0)])[0]
        norm = np.sqrt(5.1**2 + 3.5**2 + 1.4**2 + 0.2**2)
        assert_allclose(enc.state.amplitudes.real, x / norm, atol=1e-15)
        assert_allclose(
            enc.state.amplitudes.real, [0.8030, 0.5511, 0.2204, 0.0315], atol=1e-3
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ConfigurationError, match="all-zero feature vector"):
            encode_dataset([FeatureVector([0.0, 0.0], 0)])

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ConfigurationError, match="contains non-finite entries"):
            encode_dataset([FeatureVector([1.0, np.nan], 0)])
        with pytest.raises(ConfigurationError, match="contains non-finite entries"):
            encode_dataset([FeatureVector([np.inf, 1.0], 0)])

    def test_scale_invariance_exact_for_dyadic_scales(self):
        x = RNG.uniform(0.1, 9.0, size=4)
        base = encode_dataset([FeatureVector(x, 0)])[0].state.amplitudes
        for c in (2.0, 0.5, 1024.0):
            scaled = encode_dataset([FeatureVector(c * x, 0)])[0].state.amplitudes
            assert np.array_equal(scaled, base)

    def test_scale_invariance_within_ulp_for_other_scales(self):
        # Non-dyadic scales can move the quotient by one last-place unit.
        x = RNG.uniform(0.1, 9.0, size=4)
        base = encode_dataset([FeatureVector(x, 0)])[0].state.amplitudes
        for c in (3.0, 0.7, 123.456):
            scaled = encode_dataset([FeatureVector(c * x, 0)])[0].state.amplitudes
            assert_allclose(scaled, base, atol=1e-15)

    def test_unit_vector_encoding_is_idempotent(self):
        x = RNG.standard_normal(8)
        x /= np.linalg.norm(x)
        enc = encode_dataset([FeatureVector(x, 1)])[0]
        assert_allclose(enc.state.amplitudes.real, x, atol=1e-15)

    def test_qubit_count_is_ceil_log2_for_d_up_to_64(self):
        for d in range(1, 65):
            expected = int(np.ceil(np.log2(d))) if d > 1 else 0
            x = np.zeros(d)
            x[0] = 1.0
            enc = encode_dataset([FeatureVector(x, 0)])[0]
            assert enc.state.num_qubits == expected

    def test_non_power_of_two_dimension_zero_padded(self):
        enc = encode_dataset([FeatureVector([3.0, 4.0, 0.0], 0)])[0]
        assert enc.state.num_qubits == 2
        assert_allclose(enc.state.amplitudes, [0.6, 0.8, 0.0, 0.0], atol=1e-15)

    def test_negative_values_become_negative_amplitudes(self):
        enc = encode_dataset([FeatureVector([-1.0, 1.0], 0)])[0]
        assert_allclose(enc.state.amplitudes, [-np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)

    def test_label_carried_through(self):
        enc = encode_dataset([FeatureVector([1.0, 2.0], 1)])[0]
        assert enc.label == 1


class TestEncodeDataset:
    def test_empty_list(self):
        out = encode_dataset([])
        assert len(out) == 0
        assert list(out) == []

    def test_basis_aligned_vectors_map_to_basis_states(self):
        samples = [
            FeatureVector([1.0, 0.0], 0),
            FeatureVector([0.0, 5.0], 1),
        ]
        out = encode_dataset(samples)
        assert_allclose(out[0].state.amplitudes, [1, 0], atol=0)
        assert_allclose(out[1].state.amplitudes, [0, 1], atol=0)

    def test_order_preserving(self):
        samples = [FeatureVector(RNG.uniform(0.1, 9, 4), i % 2) for i in range(6)]
        out = encode_dataset(samples)
        assert [e.label for e in out] == [x.label for x in samples]
        for enc, x in zip(out, samples):
            assert np.array_equal(enc.state.amplitudes, encode_dataset([x])[0].state.amplitudes)

    def test_mixed_dimensions_rejected_with_index(self):
        samples = [
            FeatureVector([1.0, 2.0], 0),
            FeatureVector([1.0, 2.0, 3.0], 1),
        ]
        with pytest.raises(ConfigurationError, match="sample 1"):
            encode_dataset(samples)

    def test_random_batch_all_normalized(self):
        samples = [FeatureVector(RNG.uniform(0.1, 9, 4), i % 2) for i in range(80)]
        out = encode_dataset(samples)
        assert len(out) == 80
        for enc in out:
            assert enc.state.num_qubits == 2
            assert abs(np.linalg.norm(enc.state.amplitudes) - 1.0) < 1e-12

    def test_amplitudes_have_an_imaginary_part_of_exactly_zero(self):
        # Why the loss may run an encoded set's class means in real arithmetic.
        features = RNG.uniform(-9, 9, (200, 4))
        features[0, 0] = 5.1e200
        out = encode_dataset(FeatureSet(features, np.arange(200) % 2))
        assert out.amplitudes.dtype == np.float64
        assert np.all(out.amplitudes.imag == 0)

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ([0.0, 0.0, 0.0, 0.0], "all-zero"),
            ([1.0, np.nan, 2.0, 3.0], "non-finite"),
            ([1.0, 2.0, -np.inf, 3.0], "non-finite"),
        ],
    )
    def test_rejected_row_is_named_by_index(self, bad, reason):
        samples = [FeatureVector(RNG.uniform(0.1, 9, 4), i % 2) for i in range(30)]
        samples[17] = FeatureVector(bad, 1)
        samples[23] = FeatureVector([0.0] * 4, 0)
        with pytest.raises(ConfigurationError, match=f"^sample 17: .*{reason}"):
            encode_dataset(samples)
        with pytest.raises(ConfigurationError, match=f"^sample 17: .*{reason}"):
            encode_dataset(FeatureSet([x.values for x in samples], [x.label for x in samples]))


class TestSets:
    def test_encoded_items_are_built_on_each_access(self):
        features = FeatureSet(RNG.uniform(0.1, 9, (5, 4)), [0, 1, 0, 1, 1])
        encoded = encode_dataset(features)
        assert isinstance(encoded, EncodedSet)
        assert encoded.amplitudes.shape == (5, 4) and encoded.num_qubits == 2
        assert len(features) == len(encoded) == 5 and features.dimension == 4
        assert encoded[-1] is not encoded[-1]
        assert np.array_equal(encoded[-1].state.amplitudes, encoded.amplitudes[4])
        assert isinstance(encoded[3], EncodedSample) and encoded[3].label == 1
        assert np.array_equal(encoded[3].state.amplitudes, encoded.amplitudes[3])
        assert [s.label for s in encoded] == [0, 1, 0, 1, 1]

    def test_encoding_a_set_matches_encoding_its_rows(self):
        features = FeatureSet(RNG.uniform(-9, 9, (40, 5)), RNG.integers(0, 2, 40))
        assert np.array_equal(
            encode_dataset(features).amplitudes,
            encode_dataset(list(map(FeatureVector, features.values, features.labels))).amplitudes,
        )

    def test_bad_shapes_and_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="one label per row"):
            FeatureSet(np.ones(4), [0])
        with pytest.raises(ConfigurationError, match="one label per row"):
            FeatureSet(np.ones((2, 4)), [0])
        with pytest.raises(ConfigurationError, match="feature vectors must be nonempty"):
            FeatureSet(np.ones((2, 0)), [0, 1])
        with pytest.raises(ConfigurationError, match="labels must be 0 or 1"):
            FeatureSet(np.ones((2, 4)), [0, 2])
        with pytest.raises(ConfigurationError, match="labels must be 0 or 1"):
            FeatureSet(np.ones((2, 4)), [0, 0.5])
        with pytest.raises(ConfigurationError, match="power-of-two length"):
            EncodedSet(np.ones((2, 3)), [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, complex(np.nan, 1.0), complex(0.5, np.inf)])
    def test_non_finite_amplitudes_rejected_with_the_first_row(self, bad):
        amps = np.full((6, 4), 0.5, dtype=type(bad))
        amps[4, 0] = amps[2, 3] = bad
        with pytest.raises(ConfigurationError, match=r"^sample 2: amplitudes contain non-finite"):
            EncodedSet(amps, [0, 0, 0, 1, 1, 1])

    def test_encoded_list_with_mixed_widths_rejected(self):
        # Encodings of different feature counts are never stacked into one
        # store: build_store names the first sample of another width.
        samples = [encode_dataset([FeatureVector([1.0, 2.0], 0)])[0],
                   encode_dataset([FeatureVector([1.0, 2.0, 3.0], 1)])[0]]
        with pytest.raises(ConfigurationError, match="sample 1"):
            build_store(samples)
