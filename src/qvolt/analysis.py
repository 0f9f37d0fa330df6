"""Statistical analysis: classification, Gaussian summaries, weighted fit, bound.

The pipeline's estimator chain: split readings into low/high about the 1 V
threshold, summarize each population (mean, sd, SEM), regress the per-source
mean low voltage y against x = fidelity - 1/2 with weights 1/SEM^2 (three 1-D
arrays, checked and fitted once, by `_weighted_line`), read the
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
# Values binned per np.histogram call: its temporaries, about 5 float64 arrays of
# the chunk, stay near 0.6 MiB whatever the number of values.
HISTOGRAM_CHUNK = 16384


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
    high = arr[high_mask]
    return arr[np.logical_not(high_mask, out=high_mask)], high


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
    """Binned counts with a Gaussian overlay parameterized by the sample statistics.

    The edges and counts are those of `np.histogram(values, bins=n_bins)`, binned
    HISTOGRAM_CHUNK values at a time: each chunk gets the whole array's range, so
    its edges are the same, and numpy's uniform bins place each value on its own.
    """
    arr = np.asarray(values, dtype=float)
    if len(arr) == 0:
        raise ValueError("cannot histogram empty data")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    span = (arr.min(), arr.max())
    counts = np.zeros(n_bins, dtype=np.intp)
    for lo in range(0, len(arr), HISTOGRAM_CHUNK):
        chunk_counts, edges = np.histogram(arr[lo:lo + HISTOGRAM_CHUNK], bins=n_bins, range=span)
        counts += chunk_counts
    stats = summarize(arr)
    centers = 0.5 * (edges[:-1] + edges[1:])
    if stats.sd > 0:
        z = (centers - stats.mean) / stats.sd
        overlay = np.exp(-0.5 * z * z) / (stats.sd * math.sqrt(2 * math.pi))
    else:
        overlay = np.zeros_like(centers)
    return HistogramResult(bin_edges=edges, counts=counts, overlay_density=overlay)


def wls_fit(x: np.ndarray, y: np.ndarray, sigma: np.ndarray, v1: float = 3.0) -> FitResult:
    """Closed-form weighted least squares of y on x, weights 1/sigma^2.

    x, y and sigma are 1-D arrays of one length, one entry per source.
    slope = sum w (x - xw)(y - yw) / sum w (x - xw)^2, intercept = yw - slope xw,
    sigma_slope = [sum w (x - xw)^2]^(-1/2),
    sigma_intercept = [1/sum w + xw^2 sigma_slope^2]^(1/2).
    The nonlinearity estimate is slope / v1 with the scaled uncertainty.
    """
    if v1 <= 0:
        raise ValueError("v1 must be > 0")
    *_, sw, xw, sxx, intercept, slope = _weighted_line(x, y, sigma)
    sigma_slope = sxx**-0.5
    return FitResult(
        intercept=intercept,
        sigma_intercept=math.sqrt(1.0 / sw + xw**2 * sigma_slope**2),
        slope=slope,
        sigma_slope=sigma_slope,
        eps=slope / v1,
        sigma_eps=sigma_slope / v1,
    )


def _weighted_line(x: np.ndarray, y: np.ndarray, sigma: np.ndarray) -> tuple:
    """The checked x, y, sigma arrays, w = 1/sigma^2, sum w, xw, sum w (x - xw)^2, the line.

    The checks: 1-D, one length, at least 2 points, sigma > 0, 0 <= x <= 1/2, x not all equal.
    The line is the weighted fit's intercept and slope, in that order.
    """
    x, y, sigma = (np.asarray(a, dtype=float) for a in (x, y, sigma))
    if not (x.ndim == y.ndim == sigma.ndim == 1 and len(x) == len(y) == len(sigma)):
        raise ValueError("x, y and sigma must be 1-D arrays of one length, got shapes "
                         f"{x.shape}, {y.shape} and {sigma.shape}")
    if len(x) < 2:
        raise ValueError("need at least 2 regression points")
    if not (sigma > 0).all():  # a NaN too
        raise ValueError(f"sigma must be > 0, got {sigma[~(sigma > 0)][0]}")
    inside = (x >= 0.0) & (x <= 0.5)
    if not inside.all():
        raise ValueError(f"x {x[~inside][0]} outside [0, 1/2]")
    if np.unique(x).size < 2:
        raise ValueError("all x values equal: singular design")
    # libm pow, as Python's float ** rounds; numpy's ** 2 squares, and may differ in the last bit
    w = 1.0 / np.float_power(sigma, 2)
    sw = w.sum()
    xw = float(np.dot(w, x) / sw)
    sxx = float(np.dot(w, (x - xw) ** 2))
    yw = float(np.dot(w, y) / sw)
    slope = float(np.dot(w, (x - xw) * (y - yw)) / sxx)
    return x, y, sigma, w, sw, xw, sxx, yw - slope * xw, slope


def mc_errors(x: np.ndarray, y: np.ndarray, sigma: np.ndarray, rng: np.random.Generator,
              n_real: int = 10_000) -> MCResult:
    """Monte Carlo propagation: resample y_i ~ N(y_i, sigma_i), refit, report spread.

    Takes the arrays `wls_fit` takes. Returns parameter standard deviations and
    the one-standard-deviation band of the fitted line on an x grid for plotting.
    A drawn line's value at x is intercept + slope * x, so the band's variance
    at x is S_ii + 2 x S_is + x^2 S_ss, with S the 2x2 sample covariance (n - 1
    denominator) of the drawn intercepts (i) and slopes (s). Memory stays
    O(n_real): no (n_real, BAND_POINTS) array of lines is built.
    """
    if n_real < 100:
        raise ValueError("n_real must be >= 100")
    x, y, sigma, w, sw, xw, sxx, intercept, slope = _weighted_line(x, y, sigma)
    # slope and intercept are linear in y: express as coefficient vectors
    c_slope = w * (x - xw) / sxx
    c_intercept = w / sw - xw * c_slope

    samples = rng.normal(loc=y, scale=sigma, size=(n_real, len(x)))
    slopes = samples @ c_slope
    intercepts = samples @ c_intercept

    band_x = np.linspace(min(x.min(), 0.0), max(x.max(), 0.5), BAND_POINTS)
    (s_ii, s_is), (_, s_ss) = np.cov(intercepts, slopes)
    # rounding can take a near-zero variance below 0, where the lines' sd is 0
    band_sd = np.sqrt(np.maximum(s_ii + 2 * band_x * s_is + band_x**2 * s_ss, 0.0))
    band_fit = intercept + slope * band_x

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
