from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_key_holds, make_config, origin_pairs, scaled_sources
from qvolt.blinding import unblind
from qvolt.pipeline import (
    acquire,
    blind,
    blinded_summary,
    generate_bits,
    run_pipeline,
    unblind_fit,
)


class TestDeterminism:
    def test_identical_config_identical_results(self):
        cfg = make_config(sources=scaled_sources(200), mc_realizations=500)
        r1, k1, s1, f1 = run_pipeline(cfg)
        r2, k2, s2, f2 = run_pipeline(cfg)
        assert r1.tolist() == r2.tolist()
        assert_key_holds(k2, origin_pairs(k1))
        assert f1.fit == f2.fit

    def test_mc_count_does_not_perturb_acquisition(self):
        base = make_config(sources=scaled_sources(200), mc_realizations=500)
        more_mc = replace(
            base, analysis=replace(base.analysis, mc_realizations=2000)
        )
        r1, _, _, _ = run_pipeline(base)
        r2, _, _, _ = run_pipeline(more_mc)
        assert r1.tolist() == r2.tolist()

    def test_different_seeds_differ(self):
        a = run_pipeline(make_config(seed=1, sources=scaled_sources(500), mc_realizations=200))
        b = run_pipeline(make_config(seed=2, sources=scaled_sources(500), mc_realizations=200))
        assert a[0].tolist() != b[0].tolist()


class TestMeasuredLevel:
    @pytest.mark.parametrize("drift_rate", [0.0, 1e-6], ids=["no drift", "drift"])
    def test_eps_is_the_slope_over_the_blinded_high_mean(self, drift_rate):
        cfg = make_config(drift_rate=drift_rate, sources=scaled_sources(100), mc_realizations=100)
        _, _, summary, result = run_pipeline(cfg)
        want = result.fit.slope / summary.high.mean
        assert result.fit.eps == pytest.approx(want, rel=1e-12, abs=0)

    def test_fit_and_mc_read_no_seed(self):
        cfg = make_config(sources=scaled_sources(100), mc_realizations=200)
        blinded_bits, key = blind(cfg, generate_bits(cfg))
        readings = acquire(cfg, blinded_bits, key)
        assert cfg.seed != 7
        a, b = (unblind_fit(unblind(readings, key), c) for c in (cfg, replace(cfg, seed=7)))
        assert a.fit == b.fit
        np.testing.assert_equal(vars(a.mc), vars(b.mc))


class TestBlindedDiscipline:
    def test_blinded_summary_signature_excludes_key(self):
        import inspect

        params = inspect.signature(blinded_summary).parameters
        assert "key" not in params

    def test_analysis_module_does_not_import_blinding(self):
        import qvolt.analysis as analysis_mod

        assert not any("blinding" in name for name in dir(analysis_mod))


class TestStatisticalBehavior:
    def test_null_run_consistent_with_zero(self):
        cfg = make_config(sources=scaled_sources(50), mc_realizations=500)
        _, _, _, result = run_pipeline(cfg)
        assert abs(result.fit.eps) < 4 * result.fit.sigma_eps

    def test_injection_recovered(self):
        cfg = make_config(
            eps_gamma=1e-8, sources=scaled_sources(50), mc_realizations=500
        )
        _, _, _, result = run_pipeline(cfg)
        assert abs(result.fit.eps - 1e-8) < 4 * result.fit.sigma_eps

    def test_pull_calibration_at_null(self):
        # eps_hat / sigma_eps over repeated runs should be ~N(0, 1)
        pulls = []
        for rep in range(200):
            cfg = make_config(
                seed=1000 + rep, sources=scaled_sources(100), mc_realizations=100
            )
            _, _, _, result = run_pipeline(cfg)
            pulls.append(result.fit.eps / result.fit.sigma_eps)
        pulls = np.array(pulls)
        assert abs(pulls.mean()) < 0.25
        assert 0.8 < pulls.std(ddof=1) < 1.25

    def test_blinded_counts_match_bit_counts(self):
        cfg = make_config(sources=scaled_sources(100), mc_realizations=100)
        strings = generate_bits(cfg)
        blinded_bits, key = blind(cfg, strings)
        readings = acquire(cfg, blinded_bits, key)
        summary = blinded_summary(readings, cfg)
        n_ones = sum(int(s.bits.sum()) for s in strings)
        n_total = sum(s.source.count for s in strings)
        assert summary.n_total == n_total
        assert summary.high.n == n_ones
        assert summary.low.n == n_total - n_ones

    def test_unblind_fit_groups_by_source(self):
        cfg = make_config(sources=scaled_sources(100), mc_realizations=100)
        strings = generate_bits(cfg)
        blinded_bits, key = blind(cfg, strings)
        readings = acquire(cfg, blinded_bits, key)
        result = unblind_fit(unblind(readings, key), cfg)
        for spec in cfg.sources:
            n_zeros = spec.count - int(
                next(s for s in strings if s.source.id == spec.id).bits.sum()
            )
            assert result.per_source_low[spec.id].n == n_zeros
        assert list(result.per_source_low) == ["c1", "q2", "q3"]

    def test_acquire_reads_each_position_at_its_source_fidelity(self):
        # noiseless, eps injected: a low reading is vs + eps * v1 * (fidelity - 1/2)
        cfg = make_config(eps_gamma=1e-9, sources=scaled_sources(1000), mc_realizations=100)
        cfg = replace(cfg, acquisition=replace(cfg.acquisition, sigma_low=0.0, sigma_high=0.0))
        blinded_bits, key = blind(cfg, generate_bits(cfg))
        readings = acquire(cfg, blinded_bits, key)
        fidelity = {s.id: s.fidelity for s in cfg.sources}
        for pos, (sid, _) in enumerate(origin_pairs(key)):
            if blinded_bits[pos] == 0:
                want = cfg.params.vs + 1e-9 * cfg.params.v1 * (fidelity[sid] - 0.5)
                assert readings[pos] == pytest.approx(want, rel=1e-12)

    def test_full_scale_blinded_summary_replays_quoted_statistics(self):
        cfg = make_config(mc_realizations=100)
        _, _, summary, _ = run_pipeline(cfg)
        assert abs(summary.low.mean - (-0.309e-9)) < 3 * summary.low.sem
        # quoted high mean is 2.98 V against a 3 V switch level: the 0.02 V gap
        # is instrument calibration this model does not include
        assert abs(summary.high.mean - 2.98) < 0.05

    def test_two_source_config_still_fits(self):
        cfg = make_config(sources=scaled_sources(100)[:2], mc_realizations=100)
        _, _, _, result = run_pipeline(cfg)
        assert result.fit.bound_90 is not None
