from fractions import Fraction
import hashlib
import math
import os
import pathlib
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CACHE_DAMAGE, TEXT_COLUMN_DAMAGE, count_parses
from qvolt import files, signal
from qvolt.files import CSV_BLOCK_ROWS, cache_path
from qvolt.model import NonlinearParams, expected_reading
from qvolt.seeds import cycle_rng
from qvolt.signal import (
    WAVEFORM_BATCH_CYCLES,
    AcquisitionConfig,
    AcquisitionMode,
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
# before readings were arrays, less the index and range columns it then wrote
GOLDEN_READINGS = np.array([-3.06e-10, 3.0000001, 1.0, -0.0, 2.5e-300, 1.8e-4, 2.9999999999999996])
GOLDEN_READINGS_CSV = (
    "reading_volts\n"
    "-3.05999999999999977e-10\n"
    "3.00000009999999984e+00\n"
    "1.00000000000000000e+00\n"
    "-0.00000000000000000e+00\n"
    "2.49999999999999998e-300\n"
    "1.80000000000000011e-04\n"
    "2.99999999999999956e+00\n"
)

# the cache damages a cache of number columns alone can take
NUMBER_CACHE_DAMAGE = [name for name in CACHE_DAMAGE if name not in TEXT_COLUMN_DAMAGE]

# row counts around the writer's block boundaries
WRITE_SIZES = [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 3]
# -0.0, two subnormals, 3-digit exponents of both signs and the largest float
SPECIAL_VALUES = [-0.0, 5e-324, 2.2e-310, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]


def readings_csv_reference(values):
    """readings.csv formatted one row at a time, as the writer did before it wrote blocks."""
    body = "".join(f"{v:.17e}\n" for v in values.tolist())
    return ("reading_volts\n" + body).encode()


def waveform_run(n, seed=12):
    """Waveform readings of n cycles of random bits at fidelity 0.99, and their levels."""
    bits = np.random.default_rng(11).integers(0, 2, n)
    values = run_acquisition(bits, np.zeros(n, np.uint8), [0.99], WAVE_PARAMS, WAVE,
                             noise_seed=seed)
    return values, expected_reading(bits, np.full(n, 0.99), WAVE_PARAMS)


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

    @pytest.mark.parametrize(
        "cycle_duration, sample_rate",
        [(2.0**63 / 1024, 1024.0), (1e16, 1000.0), (1e308, 1000.0)],
        ids=["2**63 samples", "1e19 samples", "past the largest float"],
    )
    def test_rejects_a_cycle_of_2_63_samples_or_more(self, cycle_duration, sample_rate):
        message = re.escape(f"cycle_duration * sample_rate ({cycle_duration} s * "
                            f"{sample_rate} Sa/s) must be below 2**63 samples")
        with pytest.raises(ValueError, match=f"^{message}$"):
            AcquisitionConfig(cycle_duration=cycle_duration, sample_rate=sample_rate)

    def test_accepts_the_last_cycle_length_under_2_63_samples(self):
        cfg = AcquisitionConfig(cycle_duration=np.nextafter(2.0**63, 0) / 1024, sample_rate=1024.0)
        assert cfg.n_cycle_samples == 2**63 - 1024

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
        values = run_acquisition([0, 1, 0, 1], [0] * 4, [0.5], params, QUIET, noise_seed=1)
        assert values.tolist() == [0.0, 3.0, 0.0, 3.0]

    def test_injected_shift_noiseless(self):
        params = NonlinearParams(eps_gamma=1e-9, vs=0.0)
        for value in run_acquisition([0, 0], [0, 0], [0.99], params, QUIET, noise_seed=1):
            assert value == pytest.approx(1.47e-9, rel=1e-12)

    def test_one_reading_per_bit_at_paper_scale(self):
        n = 100_717
        bits = np.zeros(n, dtype=np.uint8)
        bits[1::2] = 1
        params = NonlinearParams(eps_gamma=0.0, vs=0.0)
        values = run_acquisition(bits, np.zeros(n, np.uint8), [0.5], params, QUIET,
                                 noise_seed=2)
        assert values.dtype == np.float64 and values.shape == (n,)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            run_acquisition([0, 1], [0], [0.5], NonlinearParams(), QUIET, noise_seed=1)

    def test_fast_and_waveform_modes_agree(self):
        # matched (expected, per-reading sigma): mean within 5 SEM, sd within 10%
        n = 10_000
        bits = np.zeros(n, dtype=np.uint8)
        source = np.zeros(n, dtype=np.uint8)
        params = NonlinearParams(eps_gamma=0.0, vs=-0.306e-9)
        fast_cfg = AcquisitionConfig(mode=AcquisitionMode.FAST, sigma_low=3.4e-9)
        wave_cfg = AcquisitionConfig(mode=AcquisitionMode.WAVEFORM, sigma_low=3.4e-9)
        fast = run_acquisition(bits, source, [0.5], params, fast_cfg, 3)
        wave = run_acquisition(bits, source, [0.5], params, wave_cfg, 4)
        sem = 3.4e-9 / math.sqrt(n)
        assert abs(fast.mean() - wave.mean()) < 5 * math.sqrt(2) * sem
        assert abs(wave.std(ddof=1) / fast.std(ddof=1) - 1) < 0.10

    def test_drift_offsets_both_modes_equally(self):
        bits = np.array([0, 1, 0], dtype=np.uint8)
        source = np.zeros(3, dtype=np.uint8)
        params = NonlinearParams(eps_gamma=0.0, vs=0.0)
        for mode in AcquisitionMode:
            cfg = AcquisitionConfig(
                mode=mode, sigma_low=0.0, sigma_high=0.0, drift_rate=1e-9
            )
            values = run_acquisition(bits, source, [0.5], params, cfg, 5)
            # drift evaluated at the window midpoint
            expected = 1e-9 * cfg.window_mid_time
            assert values[0] == pytest.approx(expected, rel=1e-9)
            assert values[2] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("sample_rate", [999.7, 1000.4, 1234.5])
    def test_modes_share_the_window_when_samples_round(self, sample_rate):
        # sample_rate * duration is not a whole number, so the window's samples are rounded
        bits = np.array([0, 1, 0, 1], dtype=np.uint8)
        source = np.zeros(4, dtype=np.uint8)
        params = NonlinearParams(eps_gamma=1e-9, vs=-0.306e-9)
        fast, wave = (
            run_acquisition(bits, source, [0.99], params, AcquisitionConfig(
                mode=mode, sample_rate=sample_rate, sigma_low=0.0, sigma_high=0.0,
                drift_rate=1e-6,
            ), 5)
            for mode in (AcquisitionMode.FAST, AcquisitionMode.WAVEFORM)
        )
        assert fast == pytest.approx(wave, rel=1e-14)

    @pytest.mark.parametrize("mode", list(AcquisitionMode))
    def test_prefix_of_bits_gives_prefix_of_readings(self, mode):
        n, m = 3 * WAVEFORM_BATCH_CYCLES + 7, WAVEFORM_BATCH_CYCLES + 5
        bits = np.random.default_rng(11).integers(0, 2, n)
        source = np.zeros(n, dtype=np.uint8)
        params = NonlinearParams(eps_gamma=1e-9, vs=-0.306e-9)
        cfg = AcquisitionConfig(mode=mode, drift_rate=1e-9)
        full = run_acquisition(bits, source, [0.99], params, cfg, noise_seed=12)
        prefix = run_acquisition(bits[:m], source[:m], [0.99], params, cfg, noise_seed=12)
        assert np.array_equal(prefix, full[:m])

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

    @pytest.mark.parametrize("on_caller", [False, True],
                             ids=["off the calling thread", "on the calling thread"])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, on_caller):
        use_cpus(monkeypatch, 3)
        reduce = signal.reduce_cycle

        def failing_share(*args, **kwargs):
            if (threading.current_thread() is threading.main_thread()) == on_caller:
                raise RuntimeError("worker failed")
            time.sleep(0.02)  # the other shares are still running when one fails
            return reduce(*args, **kwargs)

        monkeypatch.setattr(signal, "reduce_cycle", failing_share)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker failed"):
            waveform_run(3 * B + 7)
        assert threading.active_count() == before

    # past two blocks, the noise drawn a block at a time is that of one draw of every cycle
    @pytest.mark.parametrize("n", [5, 2 * CSV_BLOCK_ROWS + 5])
    def test_fast_reading_is_level_plus_scaled_normal(self, n):
        bits = np.resize([0, 1, 1, 0, 0], n)
        params = NonlinearParams(eps_gamma=0.0, vs=-0.306e-9)
        cfg = AcquisitionConfig(drift_rate=2e-9)
        values = run_acquisition(bits, np.zeros(n, np.uint8), [0.5], params, cfg, noise_seed=9)
        z = cycle_rng(9, 0, n, 1)[:, 0]
        level = np.where(bits == 1, 3.0, -0.306e-9) + 2e-9 * cfg.window_mid_time
        sigma = np.where(bits == 1, cfg.sigma_high, cfg.sigma_low)
        assert values.tobytes() == (level + sigma * z).tobytes()

    def test_rejects_a_source_index_that_names_no_fidelity(self):
        for source in ([0, 2], [0, -1]):
            with pytest.raises(ValueError, match="^blinded position 1: source index -?[12] names "
                                                 "none of the 2 provenance fidelities$"):
                run_acquisition([0, 1], source, [0.5, 0.99], NonlinearParams(), QUIET, 1)

    @pytest.mark.parametrize("bit", [2, 257])
    def test_rejects_a_bit_that_is_not_0_or_1(self, bit):
        # checked before the bits are cast to uint8, where 257 would wrap to 1
        with pytest.raises(ValueError, match=f"^bit must be 0 or 1, got {bit}$"):
            run_acquisition([0, bit], [0, 0], [0.5], NonlinearParams(), QUIET, 1)


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
    # integers from 1e17, past the kernel's window: they test only the `%` fallback
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

    def test_ties_of_the_percent_fallback_round_half_to_even(self, rng):
        # odd multiples of 2**-4 have 18 significant digits below 1e14, so no tie, and 19
        # from 1e14, the last a 5, where `%` formats them: the ties are the fallback's
        values = (rng.integers(2**50, 2**53, 2000) | 1) / 16.0
        assert field_lines(files.float_field(values)) == percent_lines(values)


def test_float_ties_round_half_to_even_in_every_decade_of_the_kernel(rng):
    # in decade d an odd multiple of 2**-(18 - d) has 19 significant digits, the last a 5;
    # such doubles exist from decade -9 up to the window's top
    values = []
    for d in range(-9, 14):
        m = 18 - d
        lo, hi = (math.ceil(Fraction(10) ** e * 2**m) for e in (d, d + 1))
        n = rng.integers(lo, hi, 100) | 1
        values.append(np.ldexp(n[n < hi].astype(float), -m))
    values = np.concatenate(values)
    assert np.all((values >= files.FLOAT_KERNEL_MIN) & (values < files.FLOAT_KERNEL_MAX))
    assert field_lines(files.float_field(values)) == percent_lines(values)


# integers on and next to every power of ten, on and below powers of two from 2**16, and the
# ends of the non-negative int32 values a table's int column holds
INT_EDGES = sorted({0, 2**31 - 2, 2**31 - 1} | {10**k + d for k in range(1, 10) for d in (-1, 0, 1)}
                   | {2**k - d for k in range(16, 31) for d in (0, 1)})


class TestIntField:
    def test_edges_match_percent_format(self):
        values = np.array(INT_EDGES, dtype=np.int32)
        assert field_lines(files.int_field(values)) == b"".join(b"%d\n" % v for v in INT_EDGES)

    @pytest.mark.parametrize("v", INT_EDGES)
    def test_one_row_matches_percent_format(self, v):
        assert field_lines(files.int_field(np.array([v], dtype=np.int32))) == b"%d\n" % v

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=20))
    def test_matches_percent_format(self, values):
        field = files.int_field(np.array(values, dtype=np.int32))
        assert field_lines(field) == b"".join(b"%d\n" % v for v in values)


def write_golden(path):
    write_readings(GOLDEN_READINGS, path)


def holds_only_itself(a):
    """An array is contiguous and keeps no memory alive but its own bytes: it owns them, or
    it views the whole of an array no larger (a parsed table's lone column is its rows)."""
    return a.flags.c_contiguous and (a.flags.owndata or a.base.nbytes == a.nbytes)


def assert_same_readings(a, b):
    """Two reading arrays are the same bit for bit and dtype for dtype, each holding only itself."""
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert holds_only_itself(a) and holds_only_itself(b)


class TestReadingsFile:
    def test_round_trip(self, tmp_path, cache):
        values = np.array([-0.306e-9, 3.0000001])
        path = tmp_path / "readings.csv"
        write_readings(values, path)
        cache.settle(path)
        back, _ = read_readings(path)
        assert back.tolist() == values.tolist()

    def test_golden_bytes(self, tmp_path, cache):
        path = tmp_path / "readings.csv"
        write_readings(GOLDEN_READINGS, path)
        assert path.read_bytes() == GOLDEN_READINGS_CSV.encode()
        cache.settle(path)
        back, _ = read_readings(path)
        # -0.0 == 0.0, so compare the bits of each value
        assert back.tobytes() == GOLDEN_READINGS.tobytes()

    @pytest.mark.parametrize("n", WRITE_SIZES)
    def test_block_writer_matches_the_row_reference(self, tmp_path, rng, n, cache):
        values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n)
        k = min(n, len(SPECIAL_VALUES))
        values[:k] = SPECIAL_VALUES[:k]
        path = tmp_path / "readings.csv"
        write_readings(values, path)
        assert path.read_bytes() == readings_csv_reference(values)
        cache.settle(path)
        back, _ = read_readings(path)
        assert back.tobytes() == values.tobytes()

    def test_many_blocks_match_the_row_reference(self, tmp_path, rng, cache):
        # 13 blocks, the last one short
        n = 100_010
        values = rng.normal(0.0, 1e-9, n)
        path = tmp_path / "readings.csv"
        write_readings(values, path)
        assert path.read_bytes() == readings_csv_reference(values)
        cache.settle(path)
        assert read_readings(path)[0].tobytes() == values.tobytes()

    def test_round_trip_is_exact_for_random_values(self, tmp_path, rng, cache):
        values = rng.normal(0.0, 1.0, 5000) * 10.0 ** rng.integers(-300, 300, 5000)
        path = tmp_path / "readings.csv"
        write_readings(values, path)
        cache.settle(path)
        assert read_readings(path)[0].tobytes() == values.tobytes()

    @pytest.mark.parametrize("mode", list(AcquisitionMode))
    def test_cache_hit_is_the_parse_bit_for_bit_at_paper_scale(self, tmp_path, mode):
        bits = np.random.default_rng(5).integers(0, 2, 100_717)
        source = np.repeat(np.arange(3, dtype=np.uint8), [60000, 30000, 10717])
        cfg = AcquisitionConfig(mode=mode, drift_rate=1e-9)
        path = tmp_path / "readings.csv"
        write_readings(run_acquisition(bits, source, [0.5, 0.99, 0.55], WAVE_PARAMS, cfg,
                                       noise_seed=6), path)
        hit, _ = read_readings(path)
        os.remove(cache_path(path))
        assert_same_readings(hit, read_readings(path)[0])

    def test_cache_hit_skips_the_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "readings.csv"
        write_golden(path)
        parses = count_parses(monkeypatch)
        assert read_readings(path)[0].tobytes() == GOLDEN_READINGS.tobytes()
        assert parses == []

    @pytest.mark.parametrize("damage", NUMBER_CACHE_DAMAGE, ids=NUMBER_CACHE_DAMAGE)
    def test_damaged_cache_is_ignored_and_left_as_it_is(self, tmp_path, monkeypatch, damage):
        path = tmp_path / "readings.csv"
        write_golden(path)
        cached = pathlib.Path(cache_path(path))
        cached.write_bytes(CACHE_DAMAGE[damage](cached.read_bytes()))
        before = cached.read_bytes()
        parses = count_parses(monkeypatch)
        back, _ = read_readings(path)
        assert parses == [path]
        assert back.tobytes() == GOLDEN_READINGS.tobytes()
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
        path = tmp_path / "readings.csv"
        # written by hand, as write_readings refuses these values
        rows = "".join(f"{v!r}\n" for v in values.tolist())
        path.write_text("reading_volts\n" + rows)
        files.write_cache(path, files.file_sha256(path), [values])
        cache.settle(path)
        message = re.escape(f"{path}: blinded position 3: reading_volts {value} is not finite")
        with pytest.raises(ValueError, match=message):
            read_readings(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_writer_refuses_a_non_finite_reading(self, tmp_path, value):
        values = np.array([1e-9, 3.0, -2e-9, value, 3.0])
        path = tmp_path / "readings.csv"
        message = re.escape(f"{path}: blinded position 3: reading_volts {value} is not finite")
        with pytest.raises(ValueError, match=message):
            write_readings(values, path)
        assert not path.exists()
        assert not os.path.exists(cache_path(path))

    @pytest.mark.parametrize(
        "row",
        ["0,1.0\n", "0,1.0,sensitive\n", "1.0,2.0\n", "1.0,\n", "abc\n", "1.0 x\n",
         "nan\n", "-inf\n"],
        ids=["row of the previous format", "row of the format before it", "two fields",
             "trailing comma", "word value", "value and a word", "nan value", "inf value"],
    )
    def test_rejects_malformed_rows(self, tmp_path, row, cache):
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_text("reading_volts\n" + row)
        with pytest.raises(ValueError):
            read_readings(path)

    def test_header_only_is_empty(self, tmp_path, cache):
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_text("reading_volts\n")
        assert len(read_readings(path)[0]) == 0

    def test_rejects_bad_header(self, tmp_path, cache):
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_text("nope\n1,2\n")
        with pytest.raises(ValueError):
            read_readings(path)

    def test_bad_header_is_reported_before_the_rows(self, tmp_path, cache):
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_text("nope\n1,2.0\nx\n")
        message = f"{path}: unexpected header 'nope'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_readings(path)

    @pytest.mark.parametrize("row", [0, 900], ids=["first row", "past 8 KiB"])
    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path, row, cache):
        rows = [b"1.0e+00\n"] * 1000
        rows[row] = rows[row].replace(b"e+00", b"\xffe+00")
        path = tmp_path / "readings.csv"
        cache.stale(path, write_golden)
        path.write_bytes(b"reading_volts\n" + b"".join(rows))
        with pytest.raises(ValueError, match=re.escape(f"{path}: line {row + 2}: not UTF-8")):
            read_readings(path)

    def test_read_readings_keeps_no_row_array(self, tmp_path, rng, cache):
        # a view into the parsed rows would keep them alive: all 1.5 MiB of them while each
        # row held its blinded_index too
        n = 100_717
        path = tmp_path / "readings.csv"
        write_readings(rng.normal(0.0, 1e-9, n), path)
        cache.settle(path)
        read_readings(path)  # imports, caches
        tracemalloc.start()
        try:
            values, _ = read_readings(path)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1.2 * 2**20
        assert holds_only_itself(values)

    def test_cache_hit_peak_memory_at_paper_scale(self, tmp_path, rng, monkeypatch):
        # the cached column takes 0.77 MiB; reading the whole payload and then copying
        # each column out of it, with a text column's codes cast to intp, peaked at 2.42 MiB
        n = 100_717
        path = tmp_path / "readings.csv"
        write_readings(rng.normal(0.0, 1e-9, n), path)
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

    def test_parse_peak_memory_at_paper_scale(self, tmp_path, rng):
        # 0.96 MiB: the parsed rows, which are the column; 1.54 while the column was copied
        # out of them, and 2.41 while each row held its blinded_index too
        n = 100_717
        path = tmp_path / "readings.csv"
        write_readings(rng.normal(0.0, 1e-9, n), path)
        os.remove(cache_path(path))
        read_readings(path)  # imports, caches
        tracemalloc.start()
        try:
            read_readings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 2**20

    def test_write_readings_peak_memory_has_no_padding_mask(self, tmp_path, rng):
        # a bool mask beside each field's bytes took the peak to 2.42 MiB, and a full-length
        # <u4 copy of a text column's codes for the CSV to 2.13; 1.74 without them, and 0.98
        # with the `%.17e` kernel's temporaries written over its operands and no block's
        # bytes kept while the next is built
        n = 100_717
        values = rng.normal(0.0, 1e-9, n)
        path = tmp_path / "readings.csv"
        write_readings(values, path)  # imports, caches
        tracemalloc.start()
        try:
            write_readings(values, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 2**20
