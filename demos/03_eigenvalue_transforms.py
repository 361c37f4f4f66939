"""Eigenvalue transforms of density operators: powers and threshold projectors.

Fractional powers of a state are prepared without any floor on its spectrum,
and the eigenvalue threshold projector sandwiches a scaled support projector.
Every declared error bound is checked against the measured deviation.
"""

import numpy as np

from blockenc import purification_of
from blockenc.fixtures import floored_spectrum_state
from blockenc.numerics import matrix_function, spectral_norm
from blockenc.transform import (eigenvalue_threshold_projector,
                                positive_power_density, sandwich_coefficients)

rng = np.random.default_rng(11)
rho = floored_spectrum_state(8, 3, rng, floor=0.1)
oracle = purification_of(rho, label="rho")

out = positive_power_density(oracle, 0.5, delta=0.02, epsilon=1e-3)
got = out.scale * out.encoded.matrix
want = matrix_function(rho, lambda w: np.where(w > 0, w, 0.0) ** 0.5, clamp=True)
print("sqrt(rho) via the density-power route:")
print("  scale  =", f"{out.scale:.4f}")
print("  measured deviation =", f"{spectral_norm(got - want):.2e}")
print("  declared bound     =", f"{out.declared_error:.2e}")
print("  recorded degree    =", sum(p.degree for p in out.step.params["factors"]))

delta, eps = 0.05, 0.01
thr = eigenvalue_threshold_projector(oracle, delta, eps)
lo, hi = sandwich_coefficients(delta, eps)
got = thr.encoded.matrix
w, v = np.linalg.eigh(rho)
supp = v[:, w > 1e-10] @ v[:, w > 1e-10].conj().T
print("\nthreshold projector at delta =", delta, "eps =", eps)
print("  sandwich multipliers: lower =", f"{lo:.5f}", "upper =", f"{hi:.5f}")
print("  min eig(B - lo P_supp_2d) =",
      f"{np.linalg.eigvalsh(got - lo * supp).min():.2e}")
print("  min eig(hi P_supp - B)    =",
      f"{np.linalg.eigvalsh(hi * supp - got).min():.2e}")
print("  tr(B) * 4/delta ~ rank:", f"{4 * np.trace(got).real / delta:.3f}",
      "(true rank 3)")
