"""Statistical analysis: classification, Gaussian summaries, weighted fit, bound.

The pipeline's estimator chain: split readings into low/high about the 1 V
threshold, summarize each population (mean, sd, SEM), regress the per-source
mean low voltage against (fidelity - 1/2) with weights 1/SEM^2, read the
nonlinearity parameter off the slope divided by the closed-switch level, and
convert estimate + uncertainty into a confidence bound. Monte Carlo
resampling of the regression inputs cross-checks the closed-form parameter
uncertainties and supplies the plot band.
"""

from dataclasses import dataclass
from enum import Enum
import math
from statistics import NormalDist
from typing import Sequence

import numpy as np

BAND_POINTS = 51  # x grid of the Monte Carlo plot band


class BoundRule(str, Enum):
    CENTRAL = "central"
    FOLDED = "folded"


@dataclass(frozen=True)
class GaussianSummary:
    n: int
    mean: float
    sd: float
    sem: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class RegressionPoint:
    x: float  # fidelity - 1/2
    y: float  # mean low reading, V
    sigma: float  # SEM of y, V

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not 0.0 <= self.x <= 0.5:
            raise ValueError(f"x {self.x} outside [0, 1/2]")


@dataclass(frozen=True)
class FitResult:
    intercept: float
    sigma_intercept: float
    slope: float
    sigma_slope: float
    eps: float
    sigma_eps: float
    bound_90: float | None = None  # the bound at [analysis] cl; perfbench reads this name


@dataclass(frozen=True)
class MCResult:
    sd_slope: float
    sd_intercept: float
    band_x: np.ndarray
    band_fit: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    n_realizations: int


@dataclass(frozen=True)
class HistogramResult:
    bin_edges: np.ndarray
    counts: np.ndarray
    overlay_density: np.ndarray  # N(sample mean, sample sd) pdf at bin centers


def classify(values: Sequence[float], threshold: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Partition readings into (low, high) about the threshold.

    A reading exactly at the threshold goes low ("greater" goes high).
    """
    arr = np.asarray(values, dtype=float)
    high_mask = arr > threshold
    return arr[~high_mask], arr[high_mask]


def summarize(values: Sequence[float]) -> GaussianSummary:
    """Sample mean, sd (n-1 denominator; 0 for a single value), and SEM."""
    arr = np.asarray(values, dtype=float)
    n = len(arr)
    if n == 0:
        raise ValueError("cannot summarize empty data")
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if n > 1 else 0.0
    return GaussianSummary(n=n, mean=mean, sd=sd, sem=sd / math.sqrt(n))


def histogram(values: Sequence[float], n_bins: int) -> HistogramResult:
    """Binned counts with a Gaussian overlay parameterized by the sample statistics."""
    arr = np.asarray(values, dtype=float)
    if len(arr) == 0:
        raise ValueError("cannot histogram empty data")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    counts, edges = np.histogram(arr, bins=n_bins)
    stats = summarize(arr)
    centers = 0.5 * (edges[:-1] + edges[1:])
    if stats.sd > 0:
        z = (centers - stats.mean) / stats.sd
        overlay = np.exp(-0.5 * z * z) / (stats.sd * math.sqrt(2 * math.pi))
    else:
        overlay = np.zeros_like(centers)
    return HistogramResult(bin_edges=edges, counts=counts, overlay_density=overlay)


def wls_fit(points: Sequence[RegressionPoint], v1: float = 3.0) -> FitResult:
    """Closed-form weighted least squares, weights 1/sigma^2.

    slope = sum w (x - xw)(y - yw) / sum w (x - xw)^2, intercept = yw - slope xw,
    sigma_slope = [sum w (x - xw)^2]^(-1/2),
    sigma_intercept = [1/sum w + xw^2 sigma_slope^2]^(1/2).
    The nonlinearity estimate is slope / v1 with the scaled uncertainty.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 regression points")
    if v1 <= 0:
        raise ValueError("v1 must be > 0")
    x, y, w, sw, xw, sxx = _weighted(points)
    yw = float(np.dot(w, y) / sw)
    slope = float(np.dot(w, (x - xw) * (y - yw)) / sxx)
    intercept = yw - slope * xw
    sigma_slope = sxx**-0.5
    sigma_intercept = math.sqrt(1.0 / sw + xw**2 * sigma_slope**2)
    return FitResult(
        intercept=intercept,
        sigma_intercept=sigma_intercept,
        slope=slope,
        sigma_slope=sigma_slope,
        eps=slope / v1,
        sigma_eps=sigma_slope / v1,
    )


def _weighted(points: Sequence[RegressionPoint]) -> tuple:
    """The points' x, y and weights w = 1/sigma^2, sum w, xw and sum w (x - xw)^2."""
    x = np.array([p.x for p in points])
    y = np.array([p.y for p in points])
    w = np.array([1.0 / p.sigma**2 for p in points])
    if np.unique(x).size < 2:
        raise ValueError("all x values equal: singular design")
    sw = w.sum()
    xw = float(np.dot(w, x) / sw)
    sxx = float(np.dot(w, (x - xw) ** 2))
    return x, y, w, sw, xw, sxx


def mc_errors(
    points: Sequence[RegressionPoint],
    rng: np.random.Generator,
    n_real: int = 10_000,
) -> MCResult:
    """Monte Carlo propagation: resample y_i ~ N(y_i, sigma_i), refit, report spread.

    Returns parameter standard deviations and the one-standard-deviation band
    of the fitted line on an x grid for plotting. A drawn line's value at x is
    intercept + slope * x, so the band's variance at x is
    S_ii + 2 x S_is + x^2 S_ss, with S the 2x2 sample covariance (n - 1
    denominator) of the drawn intercepts (i) and slopes (s). Memory stays
    O(n_real): no (n_real, BAND_POINTS) array of lines is built.
    """
    if n_real < 100:
        raise ValueError("n_real must be >= 100")
    nominal = wls_fit(points)  # validates the design
    x, y, w, sw, xw, sxx = _weighted(points)
    sig = np.array([p.sigma for p in points])
    # slope and intercept are linear in y: express as coefficient vectors
    c_slope = w * (x - xw) / sxx
    c_intercept = w / sw - xw * c_slope

    samples = rng.normal(loc=y, scale=sig, size=(n_real, len(points)))
    slopes = samples @ c_slope
    intercepts = samples @ c_intercept

    band_x = np.linspace(min(x.min(), 0.0), max(x.max(), 0.5), BAND_POINTS)
    (s_ii, s_is), (_, s_ss) = np.cov(intercepts, slopes)
    # rounding can take a near-zero variance below 0, where the lines' sd is 0
    band_sd = np.sqrt(np.maximum(s_ii + 2 * band_x * s_is + band_x**2 * s_ss, 0.0))
    band_fit = nominal.intercept + nominal.slope * band_x

    return MCResult(
        sd_slope=float(slopes.std(ddof=1)),
        sd_intercept=float(intercepts.std(ddof=1)),
        band_x=band_x,
        band_fit=band_fit,
        band_lo=band_fit - band_sd,
        band_hi=band_fit + band_sd,
        n_realizations=n_real,
    )


def confidence_bound(
    eps_hat: float,
    sigma_eps: float,
    cl: float = 0.90,
    rule: BoundRule | str = BoundRule.CENTRAL,
) -> float:
    """Upper bound on |eps| at confidence level `cl`, for eps_hat ~ N(eps, sigma_eps).

    Rules (a BoundRule or its word; any other word is a ValueError):
      central  |eps_hat| + z_{(1+cl)/2} * sigma  (default)
      folded   smallest b with P(|X| <= b) = cl for X ~ N(eps_hat, sigma)
    """
    rule = BoundRule(rule)
    if not sigma_eps > 0:
        raise ValueError("sigma_eps must be > 0")
    if not 0.0 < cl < 1.0:
        raise ValueError(f"confidence level {cl} outside (0, 1)")
    e = abs(eps_hat)
    normal = NormalDist()
    if rule is BoundRule.CENTRAL:
        return e + normal.inv_cdf((1 + cl) / 2) * sigma_eps

    def coverage(b):
        return normal.cdf((b - e) / sigma_eps) - normal.cdf((-b - e) / sigma_eps) - cl

    # bisection: coverage rises with b, from -cl at 0 to >= 0 at 10 sigma past e
    lo, hi = 0.0, e + 10 * sigma_eps
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if coverage(mid) < 0:
            lo = mid
        else:
            hi = mid
    return hi
