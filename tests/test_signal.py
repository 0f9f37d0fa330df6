import hashlib
import math
import os
import pathlib
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CACHE_DAMAGE, count_parses
from qvolt import files, signal
from qvolt.files import CSV_BLOCK_ROWS, cache_path
from qvolt.model import NonlinearParams, expected_reading
from qvolt.seeds import cycle_rng
from qvolt.signal import (
    WAVEFORM_BATCH_CYCLES,
    AcquisitionConfig,
    AcquisitionMode,
    Readings,
    read_readings,
    reduce_cycle,
    run_acquisition,
    synthesize_cycle,
    write_readings,
)

QUIET = AcquisitionConfig(sigma_low=0.0, sigma_high=0.0)
# waveform mode with visible settling (tau = 50 ms) and drift: every term of the synthesis counts
WAVE = AcquisitionConfig(mode=AcquisitionMode.WAVEFORM, drift_rate=1e-9, filter_tau=0.05)
WAVE_PARAMS = NonlinearParams(eps_gamma=1e-9, vs=-0.306e-9)
B = WAVEFORM_BATCH_CYCLES

# sha256 of the waveform readings of `waveform_run(103)`: each window's mean,
# over samples built as noise + target + drift + settling (the detrending
# reduction that came before gave readings within 3 ulp of these)
GOLDEN_WAVEFORM_SHA256 = "324976b9320fde74ee3d56404e1b6792431a9ae26cc9c8fc24db8dbae869b9e0"

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
WRITE_SIZES = [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3]
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


def waveform_run(n, seed=12):
    """Waveform readings of n cycles of random bits at fidelity 0.99, and their levels."""
    bits = np.random.default_rng(11).integers(0, 2, n)
    fids = np.full(n, 0.99)
    readings = run_acquisition(bits, fids, WAVE_PARAMS, WAVE, noise_seed=seed)
    return readings.values, expected_reading(bits, fids, WAVE_PARAMS)


def waveform_values_reference(levels, cfg, noise_seed, batch=32):
    """Waveform readings from one serial loop over `batch`-cycle batches."""
    n = len(levels)
    nw = cfg.n_window_samples
    first = cfg.n_cycle_samples - nw
    prev = np.concatenate(([0.0], levels[:-1]))
    values = np.empty(n)
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        z = cycle_rng(noise_seed, lo, hi - lo, nw)
        block = synthesize_cycle(prev[lo:hi], levels[lo:hi], cfg, z, first)
        values[lo:hi] = reduce_cycle(block, cfg)
    return values


def use_cpus(monkeypatch, k):
    """Make the process look as if it may run on k CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def detrend_reduction_reference(block, cfg):
    """The reading as the mean of the slope-detrended window, as reduce_cycle computed it before."""
    nw = cfg.n_window_samples
    window = block[..., -nw:]
    t = np.arange(nw) / cfg.sample_rate
    tc = t - t.mean()
    slope = (window * tc).sum(axis=-1) / np.dot(tc, tc)
    return (window - slope[..., None] * tc).mean(axis=-1)


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

    @pytest.mark.parametrize(
        "field, value",
        [("cycle_duration", 0.0), ("cycle_duration", -2.0), ("record_window", 0.0),
         ("record_window", -1.0), ("sample_rate", 0.0), ("sample_rate", -1000.0),
         ("filter_tau", 0.0), ("filter_tau", -1e-3), ("filter_tau", math.nan),
         ("sigma_low", -1e-9), ("sigma_high", -1e-4)],
    )
    def test_rejects_non_positive_times_and_rates_and_negative_sigmas(self, field, value):
        with pytest.raises(ValueError):
            AcquisitionConfig(**{field: value})

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

    # exp(-i / 1000) is nonzero for i <= 745 and underflows to 0 from i = 746 on
    @pytest.mark.parametrize(
        "tau, first, settling",
        [(1e-3, 1000, 0), (1e-3, 0, 746), (0.05, 1000, 1000)],
        ids=["window at 1 ms", "whole cycle at 1 ms", "window at 50 ms"],
    )
    def test_matches_the_explicit_formula(self, rng, tau, first, settling):
        cfg = AcquisitionConfig(drift_rate=2e-9, filter_tau=tau, sigma_low=1e-6, sigma_high=1e-4)
        assert len(signal._time_terms(cfg, first)[0]) == settling
        prev = np.array([0.0, 3.0, 3.0, 0.0, 1e-9])
        target = np.array([3.0, 0.0, 3.0, 0.0, -2e-9])
        t = np.arange(first, cfg.n_cycle_samples) / cfg.sample_rate
        z = rng.standard_normal((len(target), len(t)))
        sigma = cfg.sigma_reading_for(target)[:, None] * np.sqrt(cfg.n_window_samples)
        terms = [
            target[:, None],
            (prev - target)[:, None] * np.exp(-t / tau),
            cfg.drift_rate * t,
            sigma * z,
        ]
        expected = terms[0] + terms[1] + terms[2] + terms[3]
        # the same four terms summed in another order: a few ulp of the largest
        largest = np.max([np.abs(np.broadcast_to(x, z.shape)) for x in terms], axis=0)
        block = synthesize_cycle(prev, target, cfg, z, first)
        assert np.all(np.abs(block - expected) <= 4 * np.spacing(largest))

    def test_time_terms_are_cached_read_only(self):
        first = WAVE.n_cycle_samples - WAVE.n_window_samples
        decay, drift = signal._time_terms(WAVE, first)
        assert signal._time_terms(WAVE, first)[0] is decay
        for terms in (decay, drift):
            with pytest.raises(ValueError, match="read-only"):
                terms[0] = 1.0
        block = synthesize_cycle(np.zeros(2), np.ones(2), WAVE, np.zeros((2, len(drift))), first)
        assert not np.shares_memory(block, drift)


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

    def test_within_a_few_ulp_of_the_detrend_formula(self, rng):
        levels = rng.choice([0.0, 3.0, 1e-9], 64)
        blocks = [
            synthesize_cycle(np.roll(levels, 1), levels, WAVE, rng.standard_normal((64, 1000)), 1000),
            rng.normal(rng.uniform(-3, 3, (64, 1)), rng.uniform(0, 0.5, (64, 1)), (64, 2000)),
        ]
        for block in blocks:
            window = block[:, -WAVE.n_window_samples :]
            ulp = np.spacing(np.abs(window).max(axis=-1))
            diff = np.abs(reduce_cycle(block, WAVE) - detrend_reduction_reference(block, WAVE))
            assert np.all(diff <= 4 * ulp)

    def test_rejects_short_block(self):
        with pytest.raises(ValueError):
            reduce_cycle(np.array([1.0]), QUIET)

    def test_batch_equals_per_cycle(self, rng):
        blocks = rng.normal(0.5, 0.1, (5, QUIET.n_window_samples))
        batch = reduce_cycle(blocks, QUIET)
        assert batch.shape == (5,)
        assert batch.tolist() == [reduce_cycle(b, QUIET) for b in blocks]


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

    @pytest.mark.parametrize("sample_rate", [999.7, 1000.4, 1234.5])
    def test_modes_share_the_window_when_samples_round(self, sample_rate):
        # sample_rate * duration is not a whole number, so the window's samples are rounded
        bits = np.array([0, 1, 0, 1], dtype=np.uint8)
        fids = np.full(4, 0.99)
        params = NonlinearParams(eps_gamma=1e-9, vs=-0.306e-9)
        fast, wave = (
            run_acquisition(bits, fids, params, AcquisitionConfig(
                mode=mode, sample_rate=sample_rate, sigma_low=0.0, sigma_high=0.0,
                drift_rate=1e-6,
            ), 5).values
            for mode in (AcquisitionMode.FAST, AcquisitionMode.WAVEFORM)
        )
        assert fast == pytest.approx(wave, rel=1e-14)

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

    def test_waveform_readings_are_pinned_bit_for_bit(self):
        values, _ = waveform_run(103)
        assert hashlib.sha256(values.tobytes()).hexdigest() == GOLDEN_WAVEFORM_SHA256

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_workers_and_batch_split_do_not_change_readings(self, monkeypatch, n, workers):
        use_cpus(monkeypatch, workers)
        values, levels = waveform_run(n)
        reference = waveform_values_reference(levels, WAVE, 12)
        assert values.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, B + 1, 3 * B + 7])
    def test_one_thread_per_usable_cpu_up_to_one_per_batch(self, monkeypatch, n, workers):
        use_cpus(monkeypatch, workers)
        threads = set()
        draw = signal.cycle_rng

        def recording_draw(*args, **kwargs):
            threads.add(threading.current_thread())
            return draw(*args, **kwargs)

        monkeypatch.setattr(signal, "cycle_rng", recording_draw)
        waveform_run(n)
        assert threading.main_thread() in threads
        assert len(threads) == min(workers, -(-n // B))

    def test_more_workers_than_cores_under_fast_thread_switching(self, monkeypatch):
        # every batch writes its own slice of an uninitialised array: a lost or
        # misplaced write leaves a value that differs from the serial reference
        use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            values, levels = waveform_run(8 * B + 3)
        finally:
            sys.setswitchinterval(interval)
        assert values.tobytes() == waveform_values_reference(levels, WAVE, 12).tobytes()

    def test_cpu_count_where_affinity_is_unavailable(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert signal._usable_cpus() == 3
        values, levels = waveform_run(3 * B + 7)
        assert values.tobytes() == waveform_values_reference(levels, WAVE, 12).tobytes()

    def test_no_thread_outlives_a_waveform_run(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        before = threading.active_count()
        waveform_run(3 * B + 7)
        assert threading.active_count() == before

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        reduce = signal.reduce_cycle

        def failing_off_the_calling_thread(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return reduce(*args, **kwargs)

        monkeypatch.setattr(signal, "reduce_cycle", failing_off_the_calling_thread)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            waveform_run(3 * B + 7)
        assert threading.active_count() == before

    def test_fast_reading_is_level_plus_scaled_normal(self):
        bits = np.array([0, 1, 1, 0, 0])
        params = NonlinearParams(eps_gamma=0.0, vs=-0.306e-9)
        cfg = AcquisitionConfig(drift_rate=2e-9)
        readings = run_acquisition(bits, np.full(5, 0.5), params, cfg, noise_seed=9)
        z = cycle_rng(9, 0, 5, 1)[:, 0]
        level = np.where(bits == 1, 3.0, -0.306e-9) + 2e-9 * cfg.window_mid_time
        sigma = np.where(bits == 1, cfg.sigma_high, cfg.sigma_low)
        assert readings.values.tolist() == (level + sigma * z).tolist()


def field_lines(field):
    """The bytes of a NUL-padded (width, rows) field, one row at a time, each ended by a newline."""
    return b"".join(row[row != 0].tobytes() + b"\n" for row in field.T)


def percent_lines(values):
    return b"".join(b"%.17e\n" % v for v in np.asarray(values, dtype=float).tolist())


def ulps_around(x, k):
    """x and the k doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -math.inf))
        above.append(np.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


# values on and next to the edges of the exact kernel's window and of every decade
FLOAT_EDGES = np.array(
    [0.0, 5e-324, 2.2e-310, 2.225073858507201e-308, 2.2250738585072014e-308]
    + ulps_around(files.FLOAT_KERNEL_MIN, 3)
    + ulps_around(files.FLOAT_KERNEL_MAX, 3)
    + [v for p in range(-12, 20) for v in ulps_around(10.0**p, 5)]
    # 9.99... with more nines than a double holds, parsed to the power of ten or next to it
    + [float(f"9.{'9' * k}e{p}") for p in range(-12, 20) for k in range(15, 20)]
    # integers from 1e17, the first decade where the kernel's shift is to the left only
    + [1e17 + 16 * k for k in range(5)] + [2.0**62, 9.99999999999999872e17]
    + [2.0**63, 1e18 + 128, 1e19, 1.2345678901234567e21, 1.7976931348623157e308]
)


class TestFloatField:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_percent_format(self, x):
        assert field_lines(files.float_field(np.array([x]))) == percent_lines([x])

    @settings(max_examples=500, deadline=None)
    @given(st.floats(files.FLOAT_KERNEL_MIN, files.FLOAT_KERNEL_MAX, exclude_max=True),
           st.sampled_from([1.0, -1.0]))
    def test_matches_percent_format_in_the_kernel_window(self, x, sign):
        assert field_lines(files.float_field(np.array([sign * x]))) == percent_lines([sign * x])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_edges_match_percent_format(self, sign):
        values = sign * FLOAT_EDGES
        assert field_lines(files.float_field(values)) == percent_lines(values)

    def test_ties_round_half_to_even(self, rng):
        # odd multiples of 2**-4 from 1e14 have 19 significant digits, the last a 5
        values = (rng.integers(2**50, 2**53, 2000) | 1) / 16.0
        assert field_lines(files.float_field(values)) == percent_lines(values)


# integers on and next to the 9-digit limb edges, up to the widest uint64
INT_EDGES = [0, 9, 10, 99_999, 100_000, 10**9 - 1, 10**9, 10**9 + 1, 2**32 - 1, 2**32,
             10**18 - 1, 10**18, 10**18 + 1, 2**53, 2**63, 10**19, 2**64 - 1]


class TestIntField:
    def test_edges_match_percent_format(self):
        values = np.array(INT_EDGES, dtype=np.uint64)
        assert field_lines(files.int_field(values)) == b"".join(b"%d\n" % v for v in INT_EDGES)

    @pytest.mark.parametrize("v", INT_EDGES)
    def test_one_row_matches_percent_format(self, v):
        assert field_lines(files.int_field(np.array([v], dtype=np.uint64))) == b"%d\n" % v

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    def test_matches_percent_format(self, values):
        field = files.int_field(np.array(values, dtype=np.uint64))
        assert field_lines(field) == b"".join(b"%d\n" % v for v in values)


def write_golden(path):
    write_readings(GOLDEN_READINGS, path)


def assert_same_readings(a, b):
    """Two Readings hold the same arrays, bit for bit and dtype for dtype, each owning its data."""
    for x, y in ((a.values, b.values), (a.insensitive, b.insensitive)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert x.flags.owndata and x.flags.c_contiguous


class TestReadingsFile:
    def test_round_trip(self, tmp_path, cache):
        readings = Readings(np.array([-0.306e-9, 3.0000001]), np.array([False, True]))
        path = tmp_path / "readings.csv"
        write_readings(readings, path)
        cache.settle(path)
        back = read_readings(path)
        assert back.values.tolist() == readings.values.tolist()
        assert back.insensitive.tolist() == readings.insensitive.tolist()

    def test_golden_bytes(self, tmp_path, cache):
        path = tmp_path / "readings.csv"
        write_readings(GOLDEN_READINGS, path)
        assert path.read_bytes() == GOLDEN_READINGS_CSV.encode()
        cache.settle(path)
        back = read_readings(path)
        # -0.0 == 0.0, so compare the bits of each value
        assert back.values.tobytes() == GOLDEN_READINGS.values.tobytes()
        assert back.insensitive.tolist() == GOLDEN_READINGS.insensitive.tolist()

    @pytest.mark.parametrize("n", WRITE_SIZES)
    def test_block_writer_matches_the_row_reference(self, tmp_path, rng, n, cache):
        values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n)
        k = min(n, len(SPECIAL_VALUES))
        values[:k] = SPECIAL_VALUES[:k]
        readings = Readings(values, rng.random(n) < 0.5)
        path = tmp_path / "readings.csv"
        write_readings(readings, path)
        assert path.read_bytes() == readings_csv_reference(readings)
        cache.settle(path)
        back = read_readings(path)
        assert back.values.tobytes() == values.tobytes()
        assert back.insensitive.tolist() == readings.insensitive.tolist()

    def test_index_widths_match_the_row_reference(self, tmp_path, rng, cache):
        # the index grows from 1 to 6 digits, crossing 9 -> 10 and 99999 -> 100000
        n = 100_010
        values = rng.normal(0.0, 1e-9, n)
        readings = Readings(values, values > 0)
        path = tmp_path / "readings.csv"
        write_readings(readings, path)
        assert path.read_bytes() == readings_csv_reference(readings)
        cache.settle(path)
        assert read_readings(path).values.tobytes() == values.tobytes()

    def test_round_trip_is_exact_for_random_values(self, tmp_path, rng, cache):
        values = rng.normal(0.0, 1.0, 5000) * 10.0 ** rng.integers(-300, 300, 5000)
        readings = Readings(values, values > 1.0)
        path = tmp_path / "readings.csv"
        write_readings(readings, path)
        cache.settle(path)
        assert read_readings(path).values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("mode", list(AcquisitionMode))
    def test_cache_hit_is_the_parse_bit_for_bit_at_paper_scale(self, tmp_path, mode):
        bits = np.random.default_rng(5).integers(0, 2, 100_717)
        fids = np.repeat([0.5, 0.99, 0.55], [60000, 30000, 10717])
        cfg = AcquisitionConfig(mode=mode, drift_rate=1e-9)
        path = tmp_path / "readings.csv"
        write_readings(run_acquisition(bits, fids, WAVE_PARAMS, cfg, noise_seed=6), path)
        hit = read_readings(path)
        os.remove(cache_path(path))
        assert_same_readings(hit, read_readings(path))

    def test_cache_hit_skips_the_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "readings.csv"
        write_golden(path)
        parses = count_parses(monkeypatch)
        assert read_readings(path).values.tobytes() == GOLDEN_READINGS.values.tobytes()
        assert parses == []

    @pytest.mark.parametrize("damage", list(CACHE_DAMAGE), ids=list(CACHE_DAMAGE))
    def test_damaged_cache_is_ignored_and_left_as_it_is(self, tmp_path, monkeypatch, damage):
        path = tmp_path / "readings.csv"
        write_golden(path)
        cached = pathlib.Path(cache_path(path))
        cached.write_bytes(CACHE_DAMAGE[damage](cached.read_bytes()))
        before = cached.read_bytes()
        parses = count_parses(monkeypatch)
        back = read_readings(path)
        assert parses == [path]
        assert back.values.tobytes() == GOLDEN_READINGS.values.tobytes()
        assert back.insensitive.tolist() == GOLDEN_READINGS.insensitive.tolist()
        assert cached.read_bytes() == before

    def test_reading_never_writes_a_cache(self, tmp_path):
        path = tmp_path / "readings.csv"
        write_golden(path)
        cached = pathlib.Path(cache_path(path))
        before = cached.read_bytes(), cached.stat().st_mtime_ns
        read_readings(path)
        assert (cached.read_bytes(), cached.stat().st_mtime_ns) == before
        cached.unlink()
        read_readings(path)
        assert not cached.exists()

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_reading_is_rejected_on_both_paths(self, tmp_path, value, cache):
        values = np.array([1e-9, 3.0, -2e-9, value, 3.0])
        insensitive = values > 1.0
        path = tmp_path / "readings.csv"
        # written by hand, as write_readings refuses these values
        rows = "".join(f"{i},{v!r},{'insensitive' if hi else 'sensitive'}\n"
                       for i, (v, hi) in enumerate(zip(values.tolist(), insensitive)))
        path.write_text("blinded_index,reading_volts,range\n" + rows)
        files.write_cache(path, files.file_sha256(path),
                          [values, (insensitive, ("sensitive", "insensitive"))])
        cache.settle(path)
        message = re.escape(f"{path}: row 3: reading {value} is not finite")
        with pytest.raises(ValueError, match=message):
            read_readings(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_writer_refuses_a_non_finite_reading(self, tmp_path, value):
        values = np.array([1e-9, 3.0, -2e-9, value, 3.0])
        path = tmp_path / "readings.csv"
        message = re.escape(f"{path}: row 3: reading {value} is not finite")
        with pytest.raises(ValueError, match=message):
            write_readings(Readings(values, values > 1.0), path)
        assert not path.exists()
        assert not os.path.exists(cache_path(path))

    @pytest.mark.parametrize(
        "row",
        ["0,1.0\n", "0,1.0,sensitive,x\n", "0,1.0,Sensitive\n", "0,1.0,insensitivex\n",
         "0,abc,sensitive\n", "0.5,1.0,sensitive\n", "0,nan,sensitive\n",
         "0,-inf,insensitive\n"],
        ids=["two fields", "four fields", "capitalised range", "long range word",
             "word value", "fractional position", "nan value", "inf value"],
    )
    def test_rejects_malformed_rows(self, tmp_path, row, cache):
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_text("blinded_index,reading_volts,range\n" + row)
        with pytest.raises(ValueError):
            read_readings(path)

    def test_header_only_is_empty(self, tmp_path, cache):
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_text("blinded_index,reading_volts,range\n")
        assert len(read_readings(path)) == 0

    def test_rejects_bad_header(self, tmp_path, cache):
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_text("nope\n1,2,sensitive\n")
        with pytest.raises(ValueError):
            read_readings(path)

    def test_bad_header_is_reported_before_the_rows(self, tmp_path, cache):
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_text("nope\n1,2.0,sensitive\nx\n")
        message = f"{path}: unexpected readings header 'nope'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_readings(path)

    def test_rejects_rows_out_of_order(self, tmp_path, cache):
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_text(
            "blinded_index,reading_volts,range\n"
            "1,3.0e+00,insensitive\n"
            "0,-3.0e-10,sensitive\n"
        )
        with pytest.raises(ValueError, match="out of order"):
            read_readings(path)

    @pytest.mark.parametrize("row", [0, 900], ids=["first row", "past 8 KiB"])
    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path, row, cache):
        rows = [f"{i},1.0e+00,sensitive\n".encode() for i in range(1000)]
        rows[row] = rows[row].replace(b"sensitive", b"sens\xffitive")
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_bytes(b"blinded_index,reading_volts,range\n" + b"".join(rows))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {row + 2}: not UTF-8")):
            read_readings(path)

    def test_read_readings_keeps_no_row_array(self, tmp_path, rng, cache):
        # a strided view into the 28-byte rows would keep all 2.8 MiB of them alive
        n = 100_717
        path = tmp_path / "readings.csv"
        write_readings(Readings(rng.normal(0.0, 1e-9, n), rng.random(n) < 0.5), path)
        cache.settle(path)
        read_readings(path)  # imports, caches
        tracemalloc.start()
        try:
            readings = read_readings(path)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1.2 * 2**20
        assert readings.values.flags.owndata and readings.values.flags.c_contiguous

    def test_cache_hit_peak_memory_at_paper_scale(self, tmp_path, rng, monkeypatch):
        # the cached columns take 1.15 MiB; reading the whole payload and then copying
        # each column out of it, with the range codes cast to intp, peaked at 2.42 MiB
        n = 100_717
        path = tmp_path / "readings.csv"
        write_readings(Readings(rng.normal(0.0, 1e-9, n), rng.random(n) < 0.5), path)
        read_readings(path)  # imports, caches
        parses = count_parses(monkeypatch)
        tracemalloc.start()
        try:
            read_readings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parses == []
        assert peak < 1.6 * 2**20

    def test_write_readings_peak_memory_at_paper_scale(self, tmp_path, rng):
        # one block's arrays at a time, under the 3.94 MiB that write_key peaks at
        n = 100_717
        readings = Readings(rng.normal(0.0, 1e-9, n), rng.random(n) < 0.5)
        path = tmp_path / "readings.csv"
        write_readings(readings, path)  # imports, caches
        tracemalloc.start()
        try:
            write_readings(readings, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.94 * 2**20

    def test_write_readings_peak_memory_has_no_padding_mask(self, tmp_path, rng):
        # a bool mask beside each field's bytes took the peak to 2.42 MiB
        n = 100_717
        readings = Readings(rng.normal(0.0, 1e-9, n), rng.random(n) < 0.5)
        path = tmp_path / "readings.csv"
        write_readings(readings, path)  # imports, caches
        tracemalloc.start()
        try:
            write_readings(readings, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 2**20
