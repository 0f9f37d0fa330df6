"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. On a 2-vCPU machine the
slowest tests are the blinding properties (criterion 7, 100,000 keys, about
6 s) and the injection pull study (criterion 5, 100 full-scale repetitions,
about 2 s); everything else finishes in about a second or less.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import make_config
from qvolt.analysis import confidence_bound, mc_errors, wls_fit
from qvolt.blinding import combine_and_permute, unblind
from qvolt.model import net_fidelity_majority, per_cycle_from_net
from qvolt.pipeline import run_pipeline
from qvolt.seeds import derive_rng
from qvolt.signal import AcquisitionConfig, AcquisitionMode, reduce_cycle, run_acquisition
from qvolt.sources import BitString, SourceSpec

# the fit's (x, y, sigma): fidelity - 1/2, mean low reading and its SEM (volts)
QUOTED_POINTS = (
    np.array([0.00, 0.49, 0.05]),
    np.array([-0.307e-9, -0.316e-9, -0.302e-9]),
    np.array([0.020e-9, 0.029e-9, 0.047e-9]),
)


def report(number, description):
    """Print the per-criterion verdict; a failed assert never reaches the PASS line."""

    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number:2d}: PASS - {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@report(1, "WLS replay of the published per-source summaries")
def test_criterion_1_wls_replay():
    wls_fit(*QUOTED_POINTS, v1=3.0)  # warm up before timing
    start = time.perf_counter()
    fit = wls_fit(*QUOTED_POINTS, v1=3.0)
    elapsed = time.perf_counter() - start
    assert abs(fit.intercept - (-0.306e-9)) < 0.001e-9
    assert abs(fit.sigma_intercept - 0.019e-9) < 0.001e-9
    assert abs(fit.sigma_eps - 2.37e-11) < 0.15e-11
    assert elapsed < 1e-3


@report(2, "slope magnitude on the quoted (rounded) inputs")
def test_criterion_2_slope_magnitude():
    fit = wls_fit(*QUOTED_POINTS, v1=3.0)
    assert abs(fit.eps) <= 2.5e-11  # sign not asserted


@report(3, "90% CL bound replay brackets the published value")
def test_criterion_3_bound_replay():
    bound = confidence_bound(0.7e-11, 2.37e-11, cl=0.90)
    assert 4.3e-11 <= bound <= 5.0e-11


@report(4, "end-to-end null replay at full scale")
def test_criterion_4_null_replay():
    start = time.perf_counter()
    cfg = make_config(eps_gamma=0.0, vs=-0.306e-9)
    _, _, summary, result = run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    assert summary.low.n + summary.high.n == 100717
    assert abs(summary.low.mean - (-0.309e-9)) < 3 * summary.low.sem
    assert abs(result.fit.eps) < 3 * result.fit.sigma_eps
    assert 2.0e-11 <= result.fit.sigma_eps <= 2.8e-11
    assert elapsed < 60


@report(5, "injection-recovery pull study (100 full-scale repetitions)")
def test_criterion_5_injection_recovery():
    eps_true = 1e-9
    base = make_config(eps_gamma=eps_true, seed=5000, mc_realizations=100)
    _, _, _, first = run_pipeline(base)
    assert abs(first.fit.eps - eps_true) < 3 * first.fit.sigma_eps
    pulls = []
    for rep in range(100):
        cfg = replace(base, seed=5000 + rep)
        _, _, _, result = run_pipeline(cfg)
        pulls.append((result.fit.eps - eps_true) / result.fit.sigma_eps)
    pulls = np.array(pulls)
    assert abs(pulls.mean()) < 0.3
    assert 0.8 <= pulls.std(ddof=1) <= 1.25


@report(6, "Monte Carlo parameter spread matches the analytic WLS sigma")
def test_criterion_6_mc_vs_analytic():
    start = time.perf_counter()
    fit = wls_fit(*QUOTED_POINTS, v1=3.0)
    mc = mc_errors(*QUOTED_POINTS, np.random.default_rng(60), n_real=10_000)
    elapsed = time.perf_counter() - start
    assert abs(mc.sd_slope / fit.sigma_slope - 1) < 0.03
    assert elapsed < 5


@report(7, "blinding property suite: round trips and permutation uniformity")
def test_criterion_7_blinding_properties():
    rng = np.random.default_rng(70)
    for trial in range(1000):
        n_sources = int(rng.integers(1, 4))
        strings = []
        for i in range(n_sources):
            count = int(rng.integers(1, 68))  # total stays <= 200
            strings.append(
                BitString(
                    SourceSpec(f"s{i}", 0.9, count),
                    rng.integers(0, 2, count, dtype=np.uint8),
                )
            )
        blinded, key = combine_and_permute(strings, rng)  # key validates bijectivity
        assert sorted(blinded) == sorted(b for s in strings for b in s.bits)
        grouped = unblind(blinded.astype(float), key)
        for s in strings:
            assert np.array_equal(grouped[s.source.id], s.bits.astype(float))

    counts = {}
    n_seeds = 100_000
    items = np.array([10, 20, 30, 40])
    base = BitString(
        SourceSpec("u", 0.9, 4), np.array([0, 0, 1, 1], np.uint8)
    )
    for seed in range(n_seeds):
        _, key = combine_and_permute([base], derive_rng(seed, "acc7"))
        order = tuple(items[key.origins()[1]])
        counts[order] = counts.get(order, 0) + 1
    assert len(counts) == 24
    p = 1 / 24
    sigma = math.sqrt(n_seeds * p * (1 - p))
    for c in counts.values():
        assert abs(c - n_seeds * p) < 5 * sigma


@report(8, "reduction is invariant to linear drift about the window midpoint")
def test_criterion_8_reduction_invariance():
    cfg = AcquisitionConfig(sigma_low=0.0, sigma_high=0.0)
    rng = np.random.default_rng(80)
    t = np.arange(cfg.n_cycle_samples) / cfg.sample_rate
    t_mid = t[-cfg.n_window_samples:].mean()
    for _ in range(1000):
        block = rng.normal(rng.uniform(-1, 1), rng.uniform(0, 0.5), cfg.n_cycle_samples)
        a = rng.uniform(-1.0, 1.0)
        base = reduce_cycle(block, cfg)
        drifted = reduce_cycle(block + a * (t - t_mid), cfg)
        assert abs(drifted - base) < 1e-12 * max(1.0, abs(base))


@report(9, "majority-vote fidelity agrees with exhaustive enumeration")
def test_criterion_9_fidelity_oracle():
    def enumeration(p, n):
        total = 0.0
        for k in range(n + 1):
            term = math.comb(n, k) * p**k * (1 - p) ** (n - k)
            if 2 * k > n:
                total += term
            elif 2 * k == n:
                total += 0.5 * term
        return min(max(total, 0.5), 1.0)

    for n in range(1, 21):
        for p in [0.5 + 0.05 * i for i in range(11)]:
            assert abs(net_fidelity_majority(p, n) - enumeration(p, n)) <= 4.5e-16

    for n in (1, 20, 50):
        for net in np.linspace(0.5, 1.0, 11):
            p = per_cycle_from_net(float(net), n)
            assert abs(net_fidelity_majority(p, n) - net) < 1e-10


@report(10, "waveform and fast acquisition modes agree statistically")
def test_criterion_10_mode_consistency():
    n = 10_000
    bits = np.zeros(n, dtype=np.uint8)
    source = np.zeros(n, dtype=np.uint8)
    params = make_config().params
    sigma = 3.4e-9
    fast_cfg = AcquisitionConfig(mode=AcquisitionMode.FAST, sigma_low=sigma)
    wave_cfg = AcquisitionConfig(mode=AcquisitionMode.WAVEFORM, sigma_low=sigma)
    fast = run_acquisition(bits, source, [0.5], params, fast_cfg, 100)
    wave = run_acquisition(bits, source, [0.5], params, wave_cfg, 101)
    sem = sigma / math.sqrt(n)
    assert abs(fast.mean() - wave.mean()) < 5 * math.sqrt(2) * sem
    assert abs(wave.std(ddof=1) / fast.std(ddof=1) - 1) < 0.10
