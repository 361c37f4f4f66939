"""Query-count scaling of the estimators' resource ledgers.

The ledger charges the degree formulas times the amplitude-estimation
repetition counts of each estimator's schedule, so log-log slopes across rank
and accuracy sweeps land near the stated complexities: r^2/eps^2 for the von
Neumann entropy, r^5/eps^6 for the trace distance, r^6.5/eps^7.5 combined for
the fidelity, and a rank-flat O(1/eps) for the Tsallis entropy at alpha = 3.
"""

import numpy as np

from blockenc import (AmplitudeEstimatorConfig, estimate_tsallis,
                      estimate_trace_distance, estimate_von_neumann,
                      purification_of)
from blockenc.fixtures import floored_spectrum_state, shared_support_pair

cfg = AmplitudeEstimatorConfig(mode="analytic", seed=0)


def fit(xs, qs):
    return np.polyfit(np.log(np.asarray(xs, float)),
                      np.log(np.asarray(qs, float)), 1)[0]


print("von Neumann entropy, eps = 0.1:")
counts = []
for r in (2, 4, 8):
    rho = floored_spectrum_state(16, r, np.random.default_rng((1, r)), floor=0.05)
    rep = estimate_von_neumann(purification_of(rho, label="rho"), r, 0.1, cfg)
    counts.append(float(rep.ledger.query_count()))
    print(f"  r = {r}: {rep.ledger.query_count():.3g} queries")
print(f"  slope vs r = {fit([2, 4, 8], counts):.2f}  (stated exponent 2)")

print("\ntrace distance alpha = 1, eps = 0.1:")
counts = []
for r in (2, 4, 8):
    rho, sigma = shared_support_pair(16, r, np.random.default_rng((2, r)),
                                     floor=min(0.1, 0.8 / r))
    rep = estimate_trace_distance(purification_of(rho, label="rho"),
                                  purification_of(sigma, label="sigma"),
                                  1.0, r, 0.1, cfg)
    counts.append(float(rep.ledger.query_count()))
    print(f"  r = {r}: {rep.ledger.query_count():.3g} queries")
print(f"  slope vs r = {fit([2, 4, 8], counts):.2f}  (stated exponent 5)")

print("\nTsallis entropy alpha = 3 is rank-flat:")
for r in (2, 4, 8):
    rho = floored_spectrum_state(16, r, np.random.default_rng((3, r)), floor=0.05)
    rep = estimate_tsallis(purification_of(rho, label="rho"), 3.0, r, 0.1, cfg)
    print(f"  r = {r}: {rep.ledger.query_count()} queries")
