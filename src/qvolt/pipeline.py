"""End-to-end orchestration: generate -> blind -> acquire -> summarize -> unblind -> fit.

Seed policy: one master seed per RunConfig; sub-streams are derived by
hashing (seed, label) for bit generation per source, the blinding
permutation and acquisition noise. The Monte Carlo draws are seeded by the
fit's inputs, so the data fix them and the blind steps read no seed.
"""

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import analysis, blinding, signal, sources
from .config import RunConfig
from .seeds import derive_rng, derive_seed


@dataclass(frozen=True)
class BlindedSummary:
    low: analysis.GaussianSummary
    high: analysis.GaussianSummary
    low_hist: analysis.HistogramResult
    n_total: int


@dataclass(frozen=True)
class UnblindResult:
    per_source_low: dict  # source_id -> GaussianSummary of low readings
    per_source_hist: dict  # source_id -> HistogramResult of low readings
    fit: analysis.FitResult
    mc: analysis.MCResult


def generate_bits(config: RunConfig) -> list[sources.BitString]:
    """One bit string per configured source, each from its own derived stream."""
    return [
        sources.generate(spec, derive_rng(config.seed, "bits", spec.id)) for spec in config.sources
    ]


def blind(config: RunConfig, strings: Sequence[sources.BitString]):
    rng = derive_rng(config.seed, "blinding")
    return blinding.combine_and_permute(strings, rng)


def acquire(
    config: RunConfig,
    blinded_bits: np.ndarray,
    key: blinding.BlindingKey,
) -> np.ndarray:
    """One simulated reading per blinded position; the key is provenance for the simulator only."""
    fidelity = {s.id: s.fidelity for s in config.sources}
    noise_seed = derive_seed(config.seed, "noise")
    # each position's source is handed over, not kept here, so `run_acquisition` frees it
    # once the levels are built
    return signal.run_acquisition(
        blinded_bits, key.origins()[0], [fidelity[sid] for sid in key.source_ids],
        config.params, config.acquisition, noise_seed,
    )


def blinded_summary(values: np.ndarray, config: RunConfig) -> BlindedSummary:
    """Pooled low/high statistics of the blinded reading values; never sees the key."""
    low, high = analysis.classify(values, config.analysis.threshold)
    for population, n in (("low", len(low)), ("high", len(high))):
        if not n:
            raise ValueError(
                f"no {population} readings to summarize (threshold {config.analysis.threshold} V)"
            )
    high_summary = analysis.summarize(high)
    del high  # not kept through the histogram
    return BlindedSummary(
        low=analysis.summarize(low),
        high=high_summary,
        low_hist=analysis.histogram(low, config.analysis.n_bins),
        n_total=len(values),
    )


def unblind_fit(unblinded: dict[str, np.ndarray], config: RunConfig) -> UnblindResult:
    """Per-source low-voltage statistics, weighted fit, MC errors, and the bound.

    `unblinded` holds each source's readings (`blinding.unblind`). It is emptied as each
    source's low readings are copied out, so the unblinded readings are freed here,
    before the histograms. Only the high readings' sum and count are kept; their mean is
    the measured closed-switch level v1 that turns the slope into eps. The MC draws are
    seeded by the fit's inputs, so `config` is read only for `[analysis]` and the sources.
    """
    lows, high_sum, n_high = {}, 0.0, 0
    for sid in list(unblinded):
        lows[sid], high = analysis.classify(unblinded.pop(sid), config.analysis.threshold)
        high_sum, n_high = high_sum + float(high.sum()), n_high + len(high)
        del high  # not kept through the histograms
    if not n_high:
        raise ValueError(f"no high readings to measure v1 (threshold {config.analysis.threshold} V)")
    per_low: dict[str, analysis.GaussianSummary] = {}
    per_hist: dict[str, analysis.HistogramResult] = {}
    points = []
    for spec in config.sources:
        low = lows.pop(spec.id)  # freed once summarised and binned
        summary = analysis.summarize(low) if len(low) else None
        if summary is None or not summary.sem > 0:
            sem = "undefined" if summary is None else f"{summary.sem} V"
            raise ValueError(
                f"source {spec.id!r} has {len(low)} low readings with SEM {sem}: "
                "the weighted fit needs an SEM > 0"
            )
        per_low[spec.id] = summary
        per_hist[spec.id] = analysis.histogram(low, config.analysis.n_bins)
        points.append((spec.fidelity - 0.5, summary.mean, summary.sem))
    x, y, sem = inputs = np.array(points).T
    fit = analysis.wls_fit(x, y, sem, v1=high_sum / n_high)
    mc = analysis.mc_errors(x, y, sem, np.random.default_rng(inputs.view(np.uint64).ravel()),
                            n_real=config.analysis.mc_realizations)
    fit = replace(fit, bound_90=analysis.confidence_bound(
        fit.eps, fit.sigma_eps, cl=config.analysis.cl, rule=config.analysis.bound_rule))
    return UnblindResult(per_source_low=per_low, per_source_hist=per_hist, fit=fit, mc=mc)


def run_pipeline(config: RunConfig):
    """Full in-memory run; returns (readings, key, blinded summary, unblind result)."""
    strings = generate_bits(config)
    blinded_bits, key = blind(config, strings)
    readings = acquire(config, blinded_bits, key)
    summary = blinded_summary(readings, config)
    result = unblind_fit(blinding.unblind(readings, key), config)
    return readings, key, summary, result
