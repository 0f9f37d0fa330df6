"""Closed-form outcome model for the qubit-controlled voltage switch.

The nonlinear coupling shifts the detected voltage by eps_gamma times the
state-averaged switch voltage. With readout fidelity f, an open-switch cycle
reads vs + eps_gamma * v1 * (f - 1/2); a closed-switch cycle reads v1.
Under a collapse (Copenhagen-style) interpretation the nonlinear term is
identically zero. All functions here are pure and thread-safe.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np
from scipy.optimize import brentq
from scipy.stats import binom


class Interpretation(str, Enum):
    EVERETT = "everett"
    COPENHAGEN = "copenhagen"


@dataclass(frozen=True)
class NonlinearParams:
    """Physics constants of the outcome model. Voltages in volts."""

    eps_gamma: float = 0.0
    v0: float = 0.0
    v1: float = 3.0
    vs: float = 0.0
    interpretation: Interpretation = Interpretation.EVERETT

    def __post_init__(self):
        if not self.v1 > self.v0:
            raise ValueError(f"v1 ({self.v1}) must exceed v0 ({self.v0})")
        if not abs(self.vs) < self.v1 / 10:
            raise ValueError(f"|vs| ({abs(self.vs)}) must be < v1/10 ({self.v1 / 10})")


def expected_reading(bit, fidelity, params: NonlinearParams):
    """Expected reduced voltage for switch cycles controlled by `bit`.

    bit 1 closes the switch: the full v1 level. bit 0 leaves it open: leakage
    vs plus the fidelity-weighted nonlinear shift eps_gamma * v1 * (f - 1/2).
    `bit` and `fidelity` broadcast elementwise; scalars give a float.
    """
    b = np.asarray(bit)
    f = np.asarray(fidelity, dtype=float)
    bad_bit = (b != 0) & (b != 1)
    if np.any(bad_bit):
        raise ValueError(f"bit must be 0 or 1, got {b[bad_bit][0].item()!r}")
    bad_fid = ~((f >= 0.5) & (f <= 1.0))
    if np.any(bad_fid):
        raise ValueError(f"fidelity {f[bad_fid][0]} outside [1/2, 1]")
    if params.interpretation is Interpretation.COPENHAGEN:
        low = np.full(f.shape, params.vs)
    else:
        low = params.vs + params.eps_gamma * params.v1 * (f - 0.5)
    level = np.where(b == 1, params.v1, low)
    return float(level) if level.ndim == 0 else level


def net_fidelity_majority(per_cycle_fidelity: float, n: int) -> float:
    """Net fidelity of a majority vote over n readout repetitions.

    P(majority correct) with a fair coin flip on even-n ties. Uses the exact
    binomial tail; the test suite cross-checks against term-by-term enumeration.
    """
    p = per_cycle_fidelity
    if not 0.5 <= p <= 1.0:
        raise ValueError(f"per-cycle fidelity {p} outside [1/2, 1]")
    if n < 1:
        raise ValueError(f"n {n} < 1")
    if n == 1:
        return p
    result = float(binom.sf(n // 2, n, p))
    if n % 2 == 0:
        result += 0.5 * float(binom.pmf(n // 2, n, p))
    # the exact value lies in [1/2, 1]; clip roundoff at the endpoints
    return min(max(result, 0.5), 1.0)


def per_cycle_from_net(net_target: float, n: int) -> float:
    """Per-repetition fidelity whose n-vote majority achieves `net_target`.

    Inverts the monotone map net_fidelity_majority(., n) by root bracketing;
    round-trip residual below 1e-12.
    """
    if not 0.5 <= net_target <= 1.0:
        raise ValueError(f"net target {net_target} outside [1/2, 1]")
    if n < 1:
        raise ValueError(f"n {n} < 1")
    if net_target == 0.5:
        return 0.5
    if net_target == 1.0:
        return 1.0
    p = brentq(
        lambda q: net_fidelity_majority(q, n) - net_target,
        0.5,
        1.0,
        xtol=1e-15,
        rtol=8.9e-16,
    )
    assert math.isfinite(p)
    return float(p)
