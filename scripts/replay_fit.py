#!/usr/bin/env python3
"""Replay the regression from the published per-source summaries alone.

No simulation involved: feeds the quoted per-source low-voltage means and
SEMs into the weighted fit and prints the intercept, slope, nonlinearity
estimate, and the 90% CL bound under each available rule.
"""

import numpy as np

from qvolt import analysis

# per source: fidelity - 1/2, mean low reading and its SEM, in volts
X = np.array([0.00, 0.49, 0.05])
Y = np.array([-0.307e-9, -0.316e-9, -0.302e-9])
SIGMA = np.array([0.020e-9, 0.029e-9, 0.047e-9])


def main():
    fit = analysis.wls_fit(X, Y, SIGMA, v1=3.0)
    print(f"intercept = {fit.intercept * 1e9:+.4f} +- {fit.sigma_intercept * 1e9:.4f} nV")
    print(f"slope     = {fit.slope * 1e9:+.4f} +- {fit.sigma_slope * 1e9:.4f} nV")
    print(f"eps       = {fit.eps:+.3e} +- {fit.sigma_eps:.3e}")

    mc = analysis.mc_errors(X, Y, SIGMA, np.random.default_rng(0), n_real=10_000)
    print(f"MC sd(slope) = {mc.sd_slope * 1e9:.4f} nV ({mc.n_realizations} realizations)")

    for rule in analysis.BoundRule:
        bound = analysis.confidence_bound(fit.eps, fit.sigma_eps, cl=0.90, rule=rule)
        print(f"90% CL bound ({rule.value:7s}): |eps| < {bound:.3e}")


if __name__ == "__main__":
    main()
