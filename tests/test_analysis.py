import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from qvolt import pipeline
from qvolt.analysis import (
    BAND_POINTS,
    GaussianSummary,
    HISTOGRAM_CHUNK,
    classify,
    confidence_bound,
    histogram,
    mc_errors,
    summarize,
    wls_fit,
)

# per-source low-voltage summaries quoted for the experimental run, as the fit's
# (x, y, sigma): fidelity - 1/2, the mean low reading and its SEM (volts)
PAPER_POINTS = (
    np.array([0.00, 0.49, 0.05]),
    np.array([-0.307e-9, -0.316e-9, -0.302e-9]),
    np.array([0.020e-9, 0.029e-9, 0.047e-9]),
)

# a two-point design: the fit passes through both points, and the band pinches between them
TWO_POINTS = (np.array([0.1, 0.4]), np.array([1e-9, -1e-9]), np.array([0.2e-9, 0.5e-9]))


def chi2(points, slope, intercept):
    return sum(((y - (intercept + slope * x)) / sigma) ** 2 for x, y, sigma in zip(*points))


class TestClassify:
    def test_basic_partition(self):
        low, high = classify([0.1e-9, 2.98])
        assert list(low) == [0.1e-9]
        assert list(high) == [2.98]

    def test_partition_is_exhaustive(self, rng):
        values = rng.normal(1.0, 2.0, 5000)
        low, high = classify(values)
        assert len(low) + len(high) == 5000

    def test_boundary_goes_low(self):
        low, high = classify([1.0])
        assert list(low) == [1.0]
        assert len(high) == 0


class TestSummarize:
    def test_single_value(self):
        s = summarize([0.7])
        assert (s.mean, s.sd, s.sem) == (0.7, 0.0, 0.0)

    def test_analytic_pair(self):
        s = summarize([-1.0, 1.0])
        assert s.mean == 0.0
        assert s.sd == pytest.approx(math.sqrt(2))
        assert s.sem == pytest.approx(1.0)

    def test_gaussian_sampling(self):
        rng = np.random.default_rng(17)
        mu, sigma, n = -0.309e-9, 3.34e-9, 100_000
        s = summarize(rng.normal(mu, sigma, n))
        assert abs(s.mean - mu) < 5 * s.sem
        assert s.sem * math.sqrt(s.n) == pytest.approx(s.sd, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_of_no_readings_is_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            GaussianSummary(n=0, mean=0.0, sd=0.0, sem=0.0)


def assert_numpy_histogram(values, n_bins):
    """`histogram` has the edges and counts of one np.histogram call, bit for bit."""
    h = histogram(values, n_bins)
    counts, edges = np.histogram(values, bins=n_bins)
    assert h.bin_edges.tobytes() == edges.tobytes()
    assert h.counts.dtype == counts.dtype and h.counts.tobytes() == counts.tobytes()
    return h


class TestHistogram:
    def test_single_value_one_bin(self):
        h = histogram([2.0] * 7, 5)
        assert h.counts.sum() == 7
        assert (h.counts > 0).sum() == 1

    def test_counts_conserved(self, rng):
        values = rng.normal(0, 1, 12345)
        h = histogram(values, 40)
        assert h.counts.sum() == 12345

    def test_overlay_uses_sample_statistics(self, rng):
        values = rng.normal(5.0, 2.0, 10_000)
        h = histogram(values, 30)
        centers = 0.5 * (h.bin_edges[:-1] + h.bin_edges[1:])
        mean, sd = values.mean(), values.std(ddof=1)
        pdf = np.exp(-0.5 * ((centers - mean) / sd) ** 2) / (sd * math.sqrt(2 * math.pi))
        assert h.overlay_density == pytest.approx(pdf, rel=1e-12)

    def test_gaussian_data_matches_overlay_chi2(self):
        rng = np.random.default_rng(29)
        n = 100_000
        values = rng.normal(0.0, 1.0, n)
        h = histogram(values, 30)
        width = np.diff(h.bin_edges)
        expected = n * width * h.overlay_density
        mask = expected > 10
        red_chi2 = np.sum(
            (h.counts[mask] - expected[mask]) ** 2 / expected[mask]
        ) / mask.sum()
        assert 0.5 < red_chi2 < 1.5

    @pytest.mark.parametrize(
        "n", [1, HISTOGRAM_CHUNK - 1, HISTOGRAM_CHUNK, HISTOGRAM_CHUNK + 1, 3 * HISTOGRAM_CHUNK + 5]
    )
    def test_chunks_give_numpys_edges_and_counts(self, rng, n):
        assert_numpy_histogram(rng.normal(-0.306e-9, 3.4e-9, n), 50)

    def test_all_equal_values_widen_the_range_by_a_half(self):
        values = np.full(3 * HISTOGRAM_CHUNK + 5, -0.306e-9)
        h = assert_numpy_histogram(values, 50)
        assert (h.bin_edges[0], h.bin_edges[-1]) == (-0.306e-9 - 0.5, -0.306e-9 + 0.5)
        assert h.counts[25] == len(values)

    @pytest.mark.parametrize(
        "at", [0, HISTOGRAM_CHUNK - 1, HISTOGRAM_CHUNK, 3 * HISTOGRAM_CHUNK + 4]
    )
    def test_maximum_on_the_last_edge_counts_in_the_last_bin(self, rng, at):
        # every value on an edge, the maximum in one chunk only, and the rest inside the range
        edges = np.linspace(-1e-8, 1e-8, 31)
        values = rng.uniform(-1e-8, 1e-8, 3 * HISTOGRAM_CHUNK + 5)
        values[HISTOGRAM_CHUNK + 1:HISTOGRAM_CHUNK + 31] = edges[:-1]
        values[values == edges[-1]] = 0.0
        values[at] = edges[-1]
        h = assert_numpy_histogram(values, 30)
        assert h.bin_edges[-1] == values.max() and h.counts[-1] >= 1

    def test_paper_scale_pooled_low_readings_match_numpy(self):
        readings, *_ = pipeline.run_pipeline(make_config(mc_realizations=100))
        low, _ = classify(readings)
        assert len(low) > 3 * HISTOGRAM_CHUNK
        assert_numpy_histogram(low, 50)

    def test_peak_memory_at_50k_values(self, rng):
        # one np.histogram call over all the values took 1.62 MiB; its chunks' temporaries
        # and summarize's one copy take 0.54
        values = rng.normal(-0.306e-9, 3.4e-9, 50_000)
        histogram(values, 50)  # imports, caches
        tracemalloc.start()
        try:
            histogram(values, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2**20

    def test_rejects_empty_or_bad_bins(self):
        with pytest.raises(ValueError):
            histogram([], 5)
        with pytest.raises(ValueError):
            histogram([1.0], 0)


class TestWlsFit:
    def test_two_points_exact_interpolation(self):
        fit = wls_fit([0.0, 0.5], [1.0, 2.0], [0.5, 0.1], v1=3.0)
        assert fit.intercept == pytest.approx(1.0, rel=1e-12)
        assert fit.slope == pytest.approx(2.0, rel=1e-12)

    def test_replays_published_intercept(self):
        fit = wls_fit(*PAPER_POINTS, v1=3.0)
        assert fit.intercept == pytest.approx(-0.306e-9, abs=0.001e-9)
        assert fit.sigma_intercept == pytest.approx(0.019e-9, abs=0.001e-9)

    def test_replays_published_slope_uncertainty(self):
        fit = wls_fit(*PAPER_POINTS, v1=3.0)
        assert fit.sigma_slope == pytest.approx(0.0710e-9, abs=0.0005e-9)
        assert fit.sigma_eps == pytest.approx(2.37e-11, abs=0.02e-11)

    def test_eps_is_slope_over_v1(self):
        fit = wls_fit(*PAPER_POINTS, v1=3.0)
        assert fit.eps * 3.0 == fit.slope

    def test_rejects_degenerate_design(self):
        with pytest.raises(ValueError):
            wls_fit([0.1, 0.1], [1.0, 2.0], [0.5, 0.1])
        with pytest.raises(ValueError):
            wls_fit([0.1], [1.0], [0.5])

    def test_closed_form_beats_grid_search(self, rng):
        # oracle equivalence: chi^2 at the closed-form optimum is not beaten
        # by any point of a fine grid around it
        for _ in range(20):
            # rows x, y, sigma; drawn point by point, in the order of the draws
            points = np.array([
                (x, rng.normal(0, 1), rng.uniform(0.1, 2.0))
                for x in (0.0, rng.uniform(0.2, 0.4), 0.5)
            ]).T
            fit = wls_fit(*points)
            best = chi2(points, fit.slope, fit.intercept)
            slopes = fit.slope + np.linspace(-1, 1, 201) * max(abs(fit.slope), 1.0)
            intercepts = fit.intercept + np.linspace(-1, 1, 201) * max(
                abs(fit.intercept), 1.0
            )
            grid = np.array(
                [[chi2(points, a, b) for b in intercepts] for a in slopes]
            )
            assert best <= grid.min() + 1e-9

    @given(c=st.floats(0.01, 100.0))
    @settings(max_examples=50)
    def test_scale_equivariance(self, c):
        fit = wls_fit(*PAPER_POINTS, v1=3.0)
        x, y, sigma = PAPER_POINTS
        scaled = wls_fit(x, c * y, c * sigma, v1=3.0)
        assert scaled.slope == pytest.approx(c * fit.slope, rel=1e-9)
        assert scaled.intercept == pytest.approx(c * fit.intercept, rel=1e-9)
        assert scaled.sigma_slope == pytest.approx(c * fit.sigma_slope, rel=1e-9)
        assert scaled.sigma_intercept == pytest.approx(c * fit.sigma_intercept, rel=1e-9)

    @given(d=st.floats(-0.1, 0.1))
    @settings(max_examples=50)
    def test_x_shift_equivariance(self, d):
        # shifting x by d leaves the slope alone and moves the intercept by -slope*d
        x = np.array([0.10, 0.40, 0.15])
        y = np.array([-0.307e-9, -0.316e-9, -0.302e-9])
        sigma = np.array([0.020e-9, 0.029e-9, 0.047e-9])
        fit = wls_fit(x, y, sigma, v1=3.0)
        shifted = wls_fit(x + d, y, sigma, v1=3.0)
        assert shifted.slope == pytest.approx(fit.slope, rel=1e-9)
        assert shifted.intercept == pytest.approx(
            fit.intercept - fit.slope * d, rel=1e-9, abs=1e-22
        )


class TestEpsFromSlope:
    @staticmethod
    def eps_of_slope(slope, v1):
        # two points a half apart in x: the fitted slope is `slope` exactly
        return wls_fit([0.0, 0.5], [0.0, 0.5 * slope], [1.0, 1.0], v1=v1).eps

    def test_values(self):
        assert self.eps_of_slope(0.0, 3.0) == 0.0
        assert self.eps_of_slope(6.9e-11, 3.0) == pytest.approx(2.3e-11)
        assert self.eps_of_slope(3.0, 3.0) == 1.0

    def test_rejects_nonpositive_v1(self):
        with pytest.raises(ValueError):
            self.eps_of_slope(1.0, 0.0)


def mc_lines_reference(points, rng, n_real):
    """The Monte Carlo band by its definition: the sd at each x of every drawn line."""
    x, y, sig = points
    w = 1.0 / sig**2
    sw = w.sum()
    xw = np.dot(w, x) / sw
    c_slope = w * (x - xw) / np.dot(w, (x - xw) ** 2)
    c_intercept = w / sw - xw * c_slope
    samples = rng.normal(loc=y, scale=sig, size=(n_real, len(x)))
    slopes = samples @ c_slope
    intercepts = samples @ c_intercept
    fit = wls_fit(*points)
    band_x = np.linspace(min(x.min(), 0.0), max(x.max(), 0.5), BAND_POINTS)
    lines = np.outer(slopes, band_x) + intercepts[:, None]
    return {
        "sd_slope": float(slopes.std(ddof=1)),
        "sd_intercept": float(intercepts.std(ddof=1)),
        "band_x": band_x,
        "band_fit": fit.intercept + fit.slope * band_x,
        "band_sd": lines.std(axis=0, ddof=1),
    }


class TestMcErrors:
    @pytest.mark.parametrize("n_real", [100, 1000, 10_000])
    @pytest.mark.parametrize("points", [PAPER_POINTS, TWO_POINTS], ids=["paper", "two points"])
    def test_band_matches_the_lines_reference(self, points, n_real):
        mc = mc_errors(*points, np.random.default_rng(6), n_real=n_real)
        ref = mc_lines_reference(points, np.random.default_rng(6), n_real)
        assert mc.sd_slope == ref["sd_slope"]
        assert mc.sd_intercept == ref["sd_intercept"]
        assert mc.band_x.tobytes() == ref["band_x"].tobytes()
        assert mc.band_fit.tobytes() == ref["band_fit"].tobytes()
        # the half-widths, to 1e-12 of the reference sd at each x
        np.testing.assert_allclose(mc.band_hi - mc.band_fit, ref["band_sd"], rtol=1e-12, atol=0)
        np.testing.assert_allclose(mc.band_fit - mc.band_lo, ref["band_sd"], rtol=1e-12, atol=0)

    def test_near_exact_point_keeps_the_band_finite(self):
        # every drawn line passes within 1e-20 of (0.5, 2e-9), a grid x; there the
        # covariance form's variance rounds to -3.9e-34 with this seed
        x, y, sigma = [0.1, 0.3, 0.5], [1e-9, 0.0, 2e-9], [1e-9, 1e-9, 1e-20]
        mc = mc_errors(x, y, sigma, np.random.default_rng(0), n_real=10_000)
        assert mc.band_x[-1] == 0.5
        assert np.isfinite(mc.band_lo).all() and np.isfinite(mc.band_hi).all()
        assert (mc.band_lo <= mc.band_fit).all() and (mc.band_fit <= mc.band_hi).all()
        assert mc.band_hi[-1] - mc.band_lo[-1] < 1e-15

    def test_peak_memory_stays_below_one_mib(self):
        # a (10,000 x 51) array of drawn lines would alone take 3.9 MiB
        mc_errors(*PAPER_POINTS, np.random.default_rng(7), n_real=100)  # imports, caches
        tracemalloc.start()
        try:
            mc_errors(*PAPER_POINTS, np.random.default_rng(7), n_real=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_degenerate_sigmas_give_zero_spread(self):
        x, y, _ = PAPER_POINTS
        mc = mc_errors(x, y, 1e-20 * abs(y), np.random.default_rng(1), n_real=1000)
        assert mc.sd_slope < 1e-18
        assert mc.sd_intercept < 1e-18

    def test_matches_analytic_at_paper_count(self):
        fit = wls_fit(*PAPER_POINTS)
        mc = mc_errors(*PAPER_POINTS, np.random.default_rng(2), n_real=10_000)
        assert abs(mc.sd_slope / fit.sigma_slope - 1) < 0.03
        assert abs(mc.sd_intercept / fit.sigma_intercept - 1) < 0.05

    def test_deterministic_under_seed(self):
        a = mc_errors(*PAPER_POINTS, np.random.default_rng(3), n_real=500)
        b = mc_errors(*PAPER_POINTS, np.random.default_rng(3), n_real=500)
        assert a.sd_slope == b.sd_slope
        assert np.array_equal(a.band_lo, b.band_lo)

    def test_band_brackets_fit(self):
        mc = mc_errors(*PAPER_POINTS, np.random.default_rng(4), n_real=2000)
        assert np.all(mc.band_lo < mc.band_fit)
        assert np.all(mc.band_hi > mc.band_fit)

    def test_rejects_too_few_realizations(self):
        with pytest.raises(ValueError):
            mc_errors(*PAPER_POINTS, np.random.default_rng(5), n_real=10)


ONE_LENGTH = "x, y and sigma must be 1-D arrays of one length, got shapes"
# fit inputs (x, y, sigma) that both fits refuse, each with the start of its message
BAD_FIT_INPUTS = {
    "sigma zero": (([0.0, 0.5], [1.0, 2.0], [1.0, 0.0]), "sigma must be > 0, got 0.0"),
    "sigma negative": (([0.0, 0.5], [1.0, 2.0], [-1.0, 1.0]), "sigma must be > 0, got -1.0"),
    "sigma NaN": (([0.0, 0.5], [1.0, 2.0], [1.0, math.nan]), "sigma must be > 0, got nan"),
    "x below 0": (([-0.1, 0.5], [1.0, 2.0], [1.0, 1.0]), "x -0.1 outside [0, 1/2]"),
    "x above 1/2": (([0.0, 0.6], [1.0, 2.0], [1.0, 1.0]), "x 0.6 outside [0, 1/2]"),
    "x NaN": (([math.nan, 0.5], [1.0, 2.0], [1.0, 1.0]), "x nan outside [0, 1/2]"),
    "x all equal": (([0.2, 0.2], [1.0, 2.0], [1.0, 1.0]), "all x values equal"),
    "unequal lengths": (([0.0, 0.5], [1.0, 2.0, 3.0], [1.0, 1.0]),
                        f"{ONE_LENGTH} (2,), (3,) and (2,)"),
    "one point": (([0.1], [1.0], [1.0]), "need at least 2 regression points"),
    "2-D": (([[0.0, 0.5]], [[1.0, 2.0]], [[1.0, 1.0]]), f"{ONE_LENGTH} (1, 2), (1, 2) and (1, 2)"),
}

FITS = {
    "wls_fit": wls_fit,
    "mc_errors": lambda x, y, sigma: mc_errors(x, y, sigma, np.random.default_rng(0), 100),
}


@pytest.mark.parametrize("fit", list(FITS))
@pytest.mark.parametrize("case", list(BAD_FIT_INPUTS))
def test_fits_reject_bad_input(case, fit):
    args, message = BAD_FIT_INPUTS[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        FITS[fit](*args)


class TestConfidenceBound:
    def test_centered_case(self):
        z95 = 1.6448536269514722
        assert confidence_bound(0.0, 1.0, cl=0.90) == pytest.approx(z95, rel=1e-9)

    def test_published_inputs_bracket(self):
        b = confidence_bound(0.7e-11, 2.37e-11, cl=0.90)
        assert b == pytest.approx(4.6e-11, abs=0.05e-11)

    def test_symmetric_in_sign(self):
        assert confidence_bound(0.7e-11, 2.37e-11) == confidence_bound(
            -0.7e-11, 2.37e-11
        )

    def test_monotone_in_estimate_and_sigma(self):
        grid = np.linspace(0, 5e-11, 11)
        bounds = [confidence_bound(e, 2e-11) for e in grid]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
        bounds = [confidence_bound(1e-11, s) for s in np.linspace(1e-12, 5e-11, 11)]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_folded_rule_has_exact_coverage(self):
        # checks the rule's defining equation P(|X| <= b) = cl for X ~ N(eps_hat, sigma),
        # not its frequentist coverage (test_frequentist_coverage does that)
        from scipy.stats import norm

        e, s = 0.7e-11, 2.37e-11
        b = confidence_bound(e, s, cl=0.90, rule="folded")
        coverage = norm.cdf((b - e) / s) - norm.cdf((-b - e) / s)
        assert coverage == pytest.approx(0.90, abs=1e-9)

    @pytest.mark.parametrize("rule", ["central", "folded"])
    def test_frequentist_coverage(self, rule):
        # P(bound(eps_hat) >= theta) for eps_hat ~ N(theta, 1): the bound grows with
        # |eps_hat|, so it misses theta exactly when |eps_hat| < e_star, bound(e_star) = theta
        from scipy.optimize import brentq
        from scipy.stats import norm

        cl = 0.90
        coverage = {}
        for theta in (0.0, 1.0, 2.0, 3.0, 5.0):
            if confidence_bound(0.0, 1.0, cl, rule) >= theta:
                coverage[theta] = 1.0
                continue
            e_star = brentq(lambda e: confidence_bound(e, 1.0, cl, rule) - theta, 0.0, theta)
            coverage[theta] = 1.0 - (norm.cdf(e_star - theta) - norm.cdf(-e_star - theta))
        assert min(coverage.values()) >= cl - 1e-3, coverage
        # far from zero, central adds z_{(1+cl)/2} to |eps_hat| and so covers (1+cl)/2
        far = {"central": (1 + cl) / 2, "folded": cl}[rule]
        assert coverage[5.0] == pytest.approx(far, abs=1e-3), coverage

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            confidence_bound(0.0, 0.0)
        with pytest.raises(ValueError):
            confidence_bound(0.0, 1.0, cl=1.5)
        for rule in ("banana", "mc-percentile"):
            with pytest.raises(ValueError, match="BoundRule"):
                confidence_bound(0.0, 1.0, rule=rule)
