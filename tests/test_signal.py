import math

import numpy as np
import pytest

from qvolt.model import NonlinearParams
from qvolt.seeds import cycle_rng
from qvolt.signal import (
    ROWS_PER_WRITE,
    WAVEFORM_BATCH_CYCLES,
    AcquisitionConfig,
    AcquisitionMode,
    Readings,
    fast_reading,
    read_readings,
    reduce_cycle,
    run_acquisition,
    synthesize_cycle,
    write_readings,
)

QUIET = AcquisitionConfig(sigma_low=0.0, sigma_high=0.0)

# readings.csv of a small fixed set of readings, as the writer produced it
# before readings were arrays
GOLDEN_READINGS = Readings(
    np.array([-3.06e-10, 3.0000001, 1.0, -0.0, 2.5e-300, 1.8e-4, 2.9999999999999996]),
    np.array([False, True, False, False, False, False, True]),
)
GOLDEN_READINGS_CSV = (
    "blinded_index,reading_volts,range\n"
    "0,-3.05999999999999977e-10,sensitive\n"
    "1,3.00000009999999984e+00,insensitive\n"
    "2,1.00000000000000000e+00,sensitive\n"
    "3,-0.00000000000000000e+00,sensitive\n"
    "4,2.49999999999999998e-300,sensitive\n"
    "5,1.80000000000000011e-04,sensitive\n"
    "6,2.99999999999999956e+00,insensitive\n"
)

# row counts around the writer's block boundaries
WRITE_SIZES = [0, 1, ROWS_PER_WRITE - 1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1, 2 * ROWS_PER_WRITE + 3]
# -0.0, two subnormals, 3-digit exponents of both signs and the largest float
SPECIAL_VALUES = [-0.0, 5e-324, 2.2e-310, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]


def readings_csv_reference(readings):
    """readings.csv formatted one row at a time, as the writer did before it wrote blocks."""
    rows = zip(readings.values.tolist(), readings.insensitive.tolist())
    body = "".join(
        f"{pos},{v:.17e},{'insensitive' if flag else 'sensitive'}\n"
        for pos, (v, flag) in enumerate(rows)
    )
    return ("blinded_index,reading_volts,range\n" + body).encode()


def lstsq_midpoint_oracle(window, rate):
    """Independent reduction oracle: explicit normal equations, evaluated at mean t."""
    t = np.arange(len(window)) / rate
    design = np.array([[len(t), t.sum()], [t.sum(), (t * t).sum()]])
    rhs = np.array([window.sum(), (t * window).sum()])
    b, a = np.linalg.solve(design, rhs)
    return a * t.mean() + b


class TestAcquisitionConfig:
    def test_rejects_window_longer_than_cycle(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(cycle_duration=1.0, record_window=2.0)

    def test_rejects_insufficient_settling(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(cycle_duration=1.001, record_window=1.0, filter_tau=1e-3)

    def test_rejects_single_sample_window(self):
        with pytest.raises(ValueError):
            AcquisitionConfig(sample_rate=1.0, record_window=1.0)

    def test_range_is_pure_threshold(self):
        cfg = AcquisitionConfig()
        assert not cfg.insensitive(1.0)
        assert cfg.insensitive(1.0 + 1e-12)
        assert not cfg.insensitive(-0.3e-9)
        assert cfg.insensitive(3.0)
        levels = np.array([1.0, 1.0 + 1e-12, -0.3e-9, 3.0])
        assert cfg.insensitive(levels).tolist() == [bool(cfg.insensitive(x)) for x in levels]


class TestSynthesizeCycle:
    def test_steady_state_is_constant(self, rng):
        block = synthesize_cycle(0.7, 0.7, QUIET, rng.standard_normal(QUIET.n_cycle_samples))
        assert np.all(block == 0.7)
        assert len(block) == QUIET.n_cycle_samples

    def test_settling_decays_to_double_precision(self, rng):
        block = synthesize_cycle(0.0, 3.0, QUIET, rng.standard_normal(QUIET.n_cycle_samples))
        # sample at t = 1 s: transient is 3 * exp(-1000), below double resolution
        i = round(1.0 * QUIET.sample_rate)
        assert block[i] == 3.0

    def test_pure_drift(self, rng):
        cfg = AcquisitionConfig(sigma_low=0.0, sigma_high=0.0, drift_rate=1e-9)
        block = synthesize_cycle(0.0, 0.0, cfg, rng.standard_normal(cfg.n_cycle_samples))
        i = 1500
        t = i / cfg.sample_rate
        assert block[i] == pytest.approx(1e-9 * t, rel=1e-15)

    def test_settling_margin_at_window_start(self, rng):
        # residual transient at the start of the record window is e^-1000 suppressed
        cfg = AcquisitionConfig(sigma_low=0.0, sigma_high=0.0, drift_rate=2e-9)
        block = synthesize_cycle(3.0, 0.0, cfg, rng.standard_normal(cfg.n_cycle_samples))
        i0 = cfg.n_cycle_samples - cfg.n_window_samples
        t0 = i0 / cfg.sample_rate
        assert block[i0] == pytest.approx(2e-9 * t0, abs=1e-300)


    def test_window_only_batch_matches_full_cycles(self):
        cfg = AcquisitionConfig(sigma_low=0.0, sigma_high=0.0, drift_rate=1e-9, filter_tau=0.05)
        first = cfg.n_cycle_samples - cfg.n_window_samples
        prev, target = np.array([0.0, 3.0]), np.array([3.0, 0.0])
        z = np.random.default_rng(0).standard_normal((2, cfg.n_cycle_samples))
        batch = synthesize_cycle(prev, target, cfg, z[:, first:], first)
        assert batch.shape == (2, cfg.n_window_samples)
        for row, p, t, zc in zip(batch, prev, target, z):
            full = synthesize_cycle(p, t, cfg, zc)
            np.testing.assert_array_equal(row, full[first:])

    def test_array_noise_scaled_per_sample(self):
        cfg = AcquisitionConfig(sigma_low=2e-9, sigma_high=1e-4)
        z = np.ones((2, cfg.n_cycle_samples))
        block = synthesize_cycle(np.zeros(2), np.array([0.0, 3.0]), cfg, z)
        scale = np.sqrt(cfg.n_window_samples)
        assert block[0, -1] == pytest.approx(2e-9 * scale, rel=1e-12)
        assert block[1, -1] == pytest.approx(3.0 + 1e-4 * scale, rel=1e-12)


class TestReduceCycle:
    def test_constant_block(self):
        block = np.full(QUIET.n_cycle_samples, 0.42)
        assert reduce_cycle(block, QUIET) == pytest.approx(0.42, rel=1e-15)

    def test_odd_symmetric_drift_cancels(self):
        n = QUIET.n_cycle_samples
        t = np.arange(n) / QUIET.sample_rate
        nw = QUIET.n_window_samples
        t_mid = (t[-nw:]).mean()
        block = 5.0 * (t - t_mid) + 0.123
        assert reduce_cycle(block, QUIET) == pytest.approx(0.123, rel=1e-12)

    def test_matches_normal_equations_oracle(self, rng):
        z = rng.standard_normal(QUIET.n_cycle_samples)
        block = synthesize_cycle(0.0, 1.5, AcquisitionConfig(sigma_low=1e-3), z)
        expected = lstsq_midpoint_oracle(block[-QUIET.n_window_samples:], QUIET.sample_rate)
        assert reduce_cycle(block, QUIET) == pytest.approx(expected, rel=1e-12)

    def test_detrend_invariance_randomized(self, rng):
        nw = QUIET.n_window_samples
        t = np.arange(QUIET.n_cycle_samples) / QUIET.sample_rate
        t_mid = t[-nw:].mean()
        for _ in range(200):
            block = rng.normal(0.5, 0.1, QUIET.n_cycle_samples)
            a = rng.uniform(-1.0, 1.0)
            base = reduce_cycle(block, QUIET)
            shifted = reduce_cycle(block + a * (t - t_mid), QUIET)
            assert abs(shifted - base) < 1e-12 * max(1.0, abs(base))

    def test_rejects_short_block(self):
        with pytest.raises(ValueError):
            reduce_cycle(np.array([1.0]), QUIET)

    def test_batch_equals_per_cycle(self, rng):
        blocks = rng.normal(0.5, 0.1, (5, QUIET.n_window_samples))
        batch = reduce_cycle(blocks, QUIET)
        assert batch.shape == (5,)
        assert batch.tolist() == [reduce_cycle(b, QUIET) for b in blocks]


class TestFastReading:
    def test_degenerate_sigma(self, rng):
        assert fast_reading(-0.306e-9, 0.0, rng.standard_normal()) == -0.306e-9

    def test_gaussian_mean(self):
        n = 10_000
        draws = fast_reading(3.0, 1.8e-4, cycle_rng(3, 0, n, 1)[:, 0])
        assert abs(np.mean(draws) - 3.0) < 5 * 1.8e-4 / math.sqrt(n)

    def test_deterministic_under_seed(self):
        a = fast_reading(1.0, 0.1, cycle_rng(5, 7, 1, 1)[0, 0])
        b = fast_reading(1.0, 0.1, cycle_rng(5, 7, 1, 1)[0, 0])
        assert a == b

    def test_rejects_negative_sigma(self, rng):
        with pytest.raises(ValueError):
            fast_reading(0.0, -1.0, rng.standard_normal())


class TestRunAcquisition:
    def test_noiseless_ideal(self):
        params = NonlinearParams(eps_gamma=0.0, vs=0.0)
        readings = run_acquisition([0, 1, 0, 1], [0.5] * 4, params, QUIET, noise_seed=1)
        values = readings.values.tolist()
        assert values == [0.0, 3.0, 0.0, 3.0]
        assert readings.insensitive.tolist() == [False, True, False, True]

    def test_injected_shift_noiseless(self):
        params = NonlinearParams(eps_gamma=1e-9, vs=0.0)
        readings = run_acquisition([0, 0], [0.99, 0.99], params, QUIET, noise_seed=1)
        for value in readings.values:
            assert value == pytest.approx(1.47e-9, rel=1e-12)

    def test_one_reading_per_bit_at_paper_scale(self):
        n = 100_717
        bits = np.zeros(n, dtype=np.uint8)
        bits[1::2] = 1
        params = NonlinearParams(eps_gamma=0.0, vs=0.0)
        readings = run_acquisition(bits, np.full(n, 0.5), params, QUIET, noise_seed=2)
        assert len(readings) == n
        assert readings.values.shape == readings.insensitive.shape == (n,)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            run_acquisition([0, 1], [0.5], NonlinearParams(), QUIET, noise_seed=1)

    def test_fast_and_waveform_modes_agree(self):
        # matched (expected, per-reading sigma): mean within 5 SEM, sd within 10%
        n = 10_000
        bits = np.zeros(n, dtype=np.uint8)
        fids = np.full(n, 0.5)
        params = NonlinearParams(eps_gamma=0.0, vs=-0.306e-9)
        fast_cfg = AcquisitionConfig(mode=AcquisitionMode.FAST, sigma_low=3.4e-9)
        wave_cfg = AcquisitionConfig(mode=AcquisitionMode.WAVEFORM, sigma_low=3.4e-9)
        fast = run_acquisition(bits, fids, params, fast_cfg, 3).values
        wave = run_acquisition(bits, fids, params, wave_cfg, 4).values
        sem = 3.4e-9 / math.sqrt(n)
        assert abs(fast.mean() - wave.mean()) < 5 * math.sqrt(2) * sem
        assert abs(wave.std(ddof=1) / fast.std(ddof=1) - 1) < 0.10

    def test_drift_offsets_both_modes_equally(self):
        bits = np.array([0, 1, 0], dtype=np.uint8)
        fids = np.full(3, 0.5)
        params = NonlinearParams(eps_gamma=0.0, vs=0.0)
        for mode in AcquisitionMode:
            cfg = AcquisitionConfig(
                mode=mode, sigma_low=0.0, sigma_high=0.0, drift_rate=1e-9
            )
            readings = run_acquisition(bits, fids, params, cfg, 5)
            # drift evaluated at the window midpoint
            expected = 1e-9 * cfg.window_mid_time
            assert readings.values[0] == pytest.approx(expected, rel=1e-9)
            assert readings.values[2] == pytest.approx(expected, rel=1e-9)


    @pytest.mark.parametrize("mode", list(AcquisitionMode))
    def test_prefix_of_bits_gives_prefix_of_readings(self, mode):
        n, m = 3 * WAVEFORM_BATCH_CYCLES + 7, WAVEFORM_BATCH_CYCLES + 5
        bits = np.random.default_rng(11).integers(0, 2, n)
        fids = np.full(n, 0.99)
        params = NonlinearParams(eps_gamma=1e-9, vs=-0.306e-9)
        cfg = AcquisitionConfig(mode=mode, drift_rate=1e-9)
        full = run_acquisition(bits, fids, params, cfg, noise_seed=12)
        prefix = run_acquisition(bits[:m], fids[:m], params, cfg, noise_seed=12)
        assert np.array_equal(prefix.values, full.values[:m])
        assert np.array_equal(prefix.insensitive, full.insensitive[:m])

    def test_fast_reading_is_level_plus_scaled_normal(self):
        bits = np.array([0, 1, 1, 0, 0])
        params = NonlinearParams(eps_gamma=0.0, vs=-0.306e-9)
        cfg = AcquisitionConfig(drift_rate=2e-9)
        readings = run_acquisition(bits, np.full(5, 0.5), params, cfg, noise_seed=9)
        z = cycle_rng(9, 0, 5, 1)[:, 0]
        level = np.where(bits == 1, 3.0, -0.306e-9) + 2e-9 * cfg.window_mid_time
        sigma = np.where(bits == 1, cfg.sigma_high, cfg.sigma_low)
        assert readings.values.tolist() == (level + sigma * z).tolist()


class TestReadingsFile:
    def test_round_trip(self, tmp_path):
        readings = Readings(np.array([-0.306e-9, 3.0000001]), np.array([False, True]))
        path = tmp_path / "readings.csv"
        write_readings(readings, path)
        back = read_readings(path)
        assert back.values.tolist() == readings.values.tolist()
        assert back.insensitive.tolist() == readings.insensitive.tolist()

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "readings.csv"
        write_readings(GOLDEN_READINGS, path)
        assert path.read_bytes() == GOLDEN_READINGS_CSV.encode()
        back = read_readings(path)
        # -0.0 == 0.0, so compare the bits of each value
        assert back.values.tobytes() == GOLDEN_READINGS.values.tobytes()
        assert back.insensitive.tolist() == GOLDEN_READINGS.insensitive.tolist()

    @pytest.mark.parametrize("n", WRITE_SIZES)
    def test_block_writer_matches_the_row_reference(self, tmp_path, rng, n):
        values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n)
        k = min(n, len(SPECIAL_VALUES))
        values[:k] = SPECIAL_VALUES[:k]
        readings = Readings(values, rng.random(n) < 0.5)
        path = tmp_path / "readings.csv"
        write_readings(readings, path)
        assert path.read_bytes() == readings_csv_reference(readings)
        back = read_readings(path)
        assert back.values.tobytes() == values.tobytes()
        assert back.insensitive.tolist() == readings.insensitive.tolist()

    def test_round_trip_is_exact_for_random_values(self, tmp_path, rng):
        values = rng.normal(0.0, 1.0, 5000) * 10.0 ** rng.integers(-300, 300, 5000)
        readings = Readings(values, values > 1.0)
        path = tmp_path / "readings.csv"
        write_readings(readings, path)
        assert read_readings(path).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "row",
        ["0,1.0\n", "0,1.0,sensitive,x\n", "0,1.0,Sensitive\n", "0,1.0,insensitivex\n",
         "0,abc,sensitive\n", "0.5,1.0,sensitive\n"],
        ids=["two fields", "four fields", "capitalised range", "long range word",
             "word value", "fractional position"],
    )
    def test_rejects_malformed_rows(self, tmp_path, row):
        path = tmp_path / "readings.csv"
        path.write_text("blinded_index,reading_volts,range\n" + row)
        with pytest.raises(ValueError):
            read_readings(path)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "readings.csv"
        path.write_text("blinded_index,reading_volts,range\n")
        assert len(read_readings(path)) == 0

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "readings.csv"
        path.write_text("nope\n1,2,sensitive\n")
        with pytest.raises(ValueError):
            read_readings(path)

    def test_rejects_rows_out_of_order(self, tmp_path):
        path = tmp_path / "readings.csv"
        path.write_text(
            "blinded_index,reading_volts,range\n"
            "1,3.0e+00,insensitive\n"
            "0,-3.0e-10,sensitive\n"
        )
        with pytest.raises(ValueError, match="out of order"):
            read_readings(path)
