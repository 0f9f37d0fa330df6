import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qvolt.model import (
    Interpretation,
    NonlinearParams,
    expected_reading,
    net_fidelity_majority,
    per_cycle_from_net,
)


def majority_prob_enumeration(p, n):
    """Independent oracle: term-by-term binomial sum for the majority vote."""
    total = 0.0
    for k in range(n + 1):
        term = math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if 2 * k > n:
            total += term
        elif 2 * k == n:
            total += 0.5 * term
    return total


class TestNonlinearParams:
    def test_defaults_match_experiment(self):
        params = NonlinearParams()
        assert params.v0 == 0.0
        assert params.v1 == 3.0

    def test_rejects_v1_not_above_v0(self):
        with pytest.raises(ValueError):
            NonlinearParams(v0=3.0, v1=3.0)

    def test_rejects_large_leakage(self):
        with pytest.raises(ValueError):
            NonlinearParams(vs=0.31)


class TestExpectedReading:
    def test_bit_one_reads_full_level(self):
        params = NonlinearParams(eps_gamma=1e-9, vs=-0.306e-9)
        for f in (0.5, 0.75, 1.0):
            assert expected_reading(1, f, params) == 3.0

    def test_fidelity_half_reads_leakage_only(self):
        params = NonlinearParams(eps_gamma=1e-3, vs=-0.306e-9)
        assert expected_reading(0, 0.5, params) == -0.306e-9

    def test_hand_evaluated_shift(self):
        params = NonlinearParams(eps_gamma=1e-10, vs=0.0, v1=3.0)
        assert expected_reading(0, 0.99, params) == pytest.approx(1.47e-10, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expected_reading(2, 0.9, NonlinearParams())
        with pytest.raises(ValueError):
            expected_reading(0, 0.4, NonlinearParams())
        with pytest.raises(ValueError):
            expected_reading(0, 1.1, NonlinearParams())

    @pytest.mark.parametrize("interpretation", list(Interpretation))
    def test_arrays_match_scalar_calls(self, interpretation):
        params = NonlinearParams(eps_gamma=1e-9, vs=-0.306e-9, interpretation=interpretation)
        bits = np.array([0, 1, 0, 1, 0], dtype=np.uint8)
        fids = np.array([0.5, 0.5, 0.99, 0.55, 1.0])
        levels = expected_reading(bits, fids, params)
        assert levels.shape == (5,)
        assert levels.tolist() == [expected_reading(int(b), f, params) for b, f in zip(bits, fids)]
        assert type(expected_reading(np.uint8(0), np.float64(0.9), params)) is float

    def test_rejects_any_bad_array_element(self):
        with pytest.raises(ValueError, match="bit"):
            expected_reading(np.array([0, 1, 2]), np.full(3, 0.9), NonlinearParams())
        with pytest.raises(ValueError, match="fidelity"):
            expected_reading(np.zeros(3), np.array([0.9, np.nan, 0.9]), NonlinearParams())

    @given(
        f=st.floats(0.5, 1.0),
        eps=st.floats(-1e-6, 1e-6),
        vs=st.floats(-0.2, 0.2),
    )
    def test_signal_is_leakage_independent(self, f, eps, vs):
        params = NonlinearParams(eps_gamma=eps, vs=vs)
        shift = expected_reading(0, f, params) - expected_reading(0, 0.5, params)
        # exact in real arithmetic; the subtraction cancels at the ulp of vs
        assert shift == pytest.approx(eps * 3.0 * (f - 0.5), rel=1e-9, abs=1e-16)

    @given(f=st.floats(0.5, 1.0), eps=st.floats(-1e-3, 1e-3))
    def test_copenhagen_independent_of_eps(self, f, eps):
        params = NonlinearParams(
            eps_gamma=eps, vs=-0.1e-9, interpretation=Interpretation.COPENHAGEN
        )
        assert expected_reading(0, f, params) == -0.1e-9
        assert expected_reading(1, f, params) == 3.0


class TestMajorityFidelity:
    def test_fair_coin_stays_fair(self):
        assert net_fidelity_majority(0.5, 50) == pytest.approx(0.5, abs=1e-14)

    def test_perfect_cycles_stay_perfect(self):
        for n in (1, 2, 49, 50):
            assert net_fidelity_majority(1.0, n) == 1.0

    def test_matches_enumeration_at_n50(self):
        assert net_fidelity_majority(0.51, 50) == pytest.approx(
            majority_prob_enumeration(0.51, 50), abs=1e-14
        )

    @pytest.mark.parametrize("n", [1, 10, 50])
    def test_monotone_in_per_cycle_fidelity(self, n):
        grid = np.linspace(0.5, 1.0, 51)
        values = [net_fidelity_majority(p, n) for p in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.5 <= v <= 1.0 for v in values)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            net_fidelity_majority(0.4, 50)
        with pytest.raises(ValueError):
            net_fidelity_majority(0.6, 0)


class TestPerCycleInversion:
    def test_fixed_points(self):
        assert per_cycle_from_net(0.5, 50) == 0.5
        assert per_cycle_from_net(1.0, 50) == 1.0

    def test_paper_operating_point(self):
        # 55% net fidelity from 50 repetitions
        p = per_cycle_from_net(0.55, 50)
        assert abs(net_fidelity_majority(p, 50) - 0.55) < 1e-12
        assert p == pytest.approx(0.50893, abs=1e-4)

    def test_round_trip_identity_on_grid(self):
        for n in (1, 7, 50):
            for p in np.linspace(0.5, 1.0, 11):
                net = net_fidelity_majority(float(p), n)
                back = per_cycle_from_net(net, n)
                assert abs(net_fidelity_majority(back, n) - net) < 1e-10
