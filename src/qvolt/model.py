"""Closed-form outcome model for the qubit-controlled voltage switch.

The nonlinear coupling shifts the detected voltage by eps_gamma times the
state-averaged switch voltage. With readout fidelity f, an open-switch cycle
reads vs + eps_gamma * v1 * (f - 1/2); a closed-switch cycle reads v1.
The bound on eps_gamma is read within the Everett interpretation, where the
term couples the branches that the qubit measurement creates. All functions
here are pure and thread-safe.
"""

from dataclasses import dataclass
import math

import numpy as np


@dataclass(frozen=True)
class NonlinearParams:
    """Physics constants of the outcome model. Voltages in volts."""

    eps_gamma: float = 0.0
    v1: float = 3.0
    vs: float = 0.0

    def __post_init__(self):
        for name in ("eps_gamma", "v1", "vs"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.v1 > 0:
            raise ValueError(f"v1 must be positive, got {self.v1}")
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
    bad = (b != 0) & (b != 1)
    if np.any(bad):
        raise ValueError(f"bit must be 0 or 1, got {b[bad][0].item()!r}")
    bad = ~((f >= 0.5) & (f <= 1.0))
    if np.any(bad):
        raise ValueError(f"fidelity {f[bad][0]} outside [1/2, 1]")
    level = np.where(b == 1, params.v1, (f - 0.5) * (params.eps_gamma * params.v1) + params.vs)
    return float(level) if level.ndim == 0 else level


def net_fidelity_majority(per_cycle_fidelity: float, n: int) -> float:
    """Net fidelity of a majority vote over n readout repetitions.

    P(majority correct) with a fair coin flip on even-n ties: the binomial
    tail summed term by term with exact coefficients (math.comb), so n may not
    exceed 1029, past which C(n, n/2) overflows a float.
    """
    p = per_cycle_fidelity
    if not 0.5 <= p <= 1.0:
        raise ValueError(f"per-cycle fidelity {p} outside [1/2, 1]")
    if not 1 <= n <= 1029:
        raise ValueError(f"n {n} outside 1..1029")
    result = 0.0
    for k in range((n + 1) // 2, n + 1):
        term = math.comb(n, k) * p**k * (1 - p) ** (n - k)
        result += 0.5 * term if 2 * k == n else term
    # the exact value lies in [1/2, 1]; clip roundoff at the endpoints
    return min(max(result, 0.5), 1.0)


def per_cycle_from_net(net_target: float, n: int) -> float:
    """Per-repetition fidelity whose n-vote majority achieves `net_target`.

    Inverts the monotone map net_fidelity_majority(., n) by 60 halvings of
    [1/2, 1], which narrow it to adjacent floats; round-trip residual below 1e-12.
    """
    if not 0.5 <= net_target <= 1.0:
        raise ValueError(f"net target {net_target} outside [1/2, 1]")
    if n < 1:
        raise ValueError(f"n {n} < 1")
    if net_target == 0.5:
        return 0.5
    if net_target == 1.0:
        return 1.0
    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if net_fidelity_majority(mid, n) < net_target:
            lo = mid
        else:
            hi = mid
    return hi
