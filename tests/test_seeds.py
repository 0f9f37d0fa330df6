import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from qvolt.seeds import cycle_rng, derive_seed, normals_from_raw

SEED = derive_seed(20211101, "noise")


class TestCycleRng:
    @pytest.mark.parametrize("per_cycle", [1, 3, 1000, 1001])
    def test_single_cycle_equals_row_of_full_draw(self, per_cycle):
        full = cycle_rng(SEED, 0, 12, per_cycle)
        assert full.shape == (12, per_cycle)
        # per_cycle 1, 3 and 1001 start odd cycles at offsets that are not multiples of 4
        for i in range(12):
            np.testing.assert_array_equal(cycle_rng(SEED, i, 1, per_cycle)[0], full[i])

    @pytest.mark.parametrize("per_cycle", [1, 1000])
    def test_batch_equals_slice_of_full_draw(self, per_cycle):
        full = cycle_rng(SEED, 0, 40, per_cycle)
        np.testing.assert_array_equal(cycle_rng(SEED, 5, 27, per_cycle), full[5:32])

    def test_addresses_raw_stream_positions(self):
        # cycle i owns raw words [i * k, (i + 1) * k) of the Philox stream
        k = 7
        raw = np.random.Philox(SEED).random_raw(10 * k)
        expected = normals_from_raw(raw).reshape(10, k)
        np.testing.assert_array_equal(cycle_rng(SEED, 0, 10, k), expected)
        np.testing.assert_array_equal(cycle_rng(SEED, 3, 2, k), expected[3:5])

    def test_seeds_give_different_streams(self):
        assert not np.array_equal(cycle_rng(1, 0, 1, 100), cycle_rng(2, 0, 1, 100))

    def test_standard_normal(self):
        z = cycle_rng(SEED, 0, 200, 1000).ravel()
        assert stats.kstest(z, "norm").pvalue > 1e-4
        assert abs(z.mean()) < 5 / np.sqrt(z.size)
        assert abs(z.std() - 1) < 0.01

    def test_empty_draw(self):
        assert cycle_rng(SEED, 3, 0, 1000).shape == (0, 1000)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            cycle_rng(SEED, -1, 1, 1)
        with pytest.raises(ValueError):
            cycle_rng(SEED, 0, 1, 0)


class TestNormalsFromRaw:
    def test_extreme_words_are_finite_and_symmetric(self):
        z = normals_from_raw(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert np.all(np.isfinite(z))
        assert z[0] == -z[1]
        assert z[0] < -8

    def test_monotone_in_the_word(self):
        raw = np.array([0, 2**12, 2**63 - 1, 2**63, 2**64 - 2**12, 2**64 - 1], dtype=np.uint64)
        z = normals_from_raw(raw)
        assert np.all(np.diff(z) >= 0)

    def test_equals_the_float_formula_bit_for_bit(self):
        words = np.random.default_rng(3).integers(0, 2**64, 10**5, dtype=np.uint64)
        raw = np.concatenate([np.array([0, 2**12 - 1, 2**64 - 1], dtype=np.uint64), words])
        before = raw.copy()
        # the map as a float expression: u = (top 52 bits + 1/2) * 2**-52
        expected = ndtri(((raw >> np.uint64(12)) + 0.5) * 2.0**-52)
        assert normals_from_raw(raw).tobytes() == expected.tobytes()
        assert raw.tobytes() == before.tobytes()
