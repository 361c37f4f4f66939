"""Dense complex linear algebra kernel and exact spectral reference values.

Everything downstream (encodings, transforms, estimators) is checked against
the closed-form quantities computed here by direct eigendecomposition.  All
matrices are plain ``numpy.ndarray`` of complex128; wrappers stay thin.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: Largest total dimension of a circuit the simulator will build (a ``.unitary``
#: read) and of a generated state.  Override with the BLOCKENC_DIM_CAP
#: environment variable.
DEFAULT_DIMENSION_CAP = 4096

#: Relative tolerance for Hermiticity checks.
HERMITICITY_TOL = 1e-9

#: Eigenvalues in [-EIG_CLAMP, 0) of nominally PSD matrices are clamped to 0
#: before logs and fractional powers.
EIG_CLAMP = 1e-12

#: Eigenvalues at most RANK_CUT in magnitude do not count toward an operator's
#: rank.
RANK_CUT = 1e-10


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


def dimension_cap() -> int:
    cap = os.environ.get("BLOCKENC_DIM_CAP")
    return int(cap) if cap else DEFAULT_DIMENSION_CAP


def as_matrix(m: np.ndarray | Sequence) -> np.ndarray:
    """Coerce to a finite 2-D complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"expected a 2-D matrix, got shape {a.shape}")
    # a finite sum of squares has only finite terms; one that overflows
    # falls back to the entrywise test
    if not np.isfinite(np.vdot(a, a)) and not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    return a


def require_square(m: np.ndarray) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Hermitian part of m, which must satisfy ||m - m^dag||_2 <= tol (1 + ||m||_2).

    A Frobenius defect ||m - m^dag||_F <= tol passes without an SVD: the
    Frobenius norm bounds the spectral norm and tol <= tol (1 + ||m||_2), so
    the accept set is that of the spectral test, which runs otherwise.  The
    Hermitian part h is one transposed pass over m; the pre-test reads the
    defect as twice m - h, whose Frobenius norm is one ``vdot`` (the
    rounding of m - h, below 1e-15 ||m||_F, is far inside the margin between
    tol and tol (1 + ||m||_2)), and m - m^dag is formed only when the
    spectral test runs.
    """
    a = require_square(m)
    h = a + a.conj().T
    h *= 0.5
    half = a - h
    if 2.0 * math.sqrt(np.vdot(half, half).real) > tol:
        diff = a - a.conj().T
        defect = spectral_norm(diff)
        if defect > tol * (1.0 + spectral_norm(a)):
            raise ValidationError(f"matrix is not Hermitian within tolerance (defect {defect:.3e})")
    return h


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def spectral_decompose(m: np.ndarray, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and orthonormal eigenvector columns.

    Validates Hermiticity (``require_hermitian``), and checks the
    reconstruction: ||V diag(w) V^dag - h||_F <= 1e-8 (1 + ||h||), with h
    the Hermitian part of m.  ||h|| is max|w|, its spectral norm, and the
    Frobenius norm is never below the spectral norm, so neither needs an SVD.
    """
    h = require_hermitian(m, tol)
    w, v = np.linalg.eigh(h)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    recon = (v * w) @ v.conj().T
    if np.linalg.norm(recon - h) > 1e-8 * (1.0 + float(np.abs(w).max())):
        raise ValidationError("eigendecomposition failed reconstruction check")
    return w, v


def clamp_psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Zero out tiny negative eigenvalues of a numerically PSD spectrum."""
    w = np.asarray(w, dtype=float).copy()
    w[(w < 0) & (w >= -EIG_CLAMP * max(1.0, float(np.max(np.abs(w), initial=0.0))))] = 0.0
    return w


def matrix_function(m: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
                    *, clamp: bool = False, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """V f(w) V^dag for Hermitian m; f acts elementwise on the spectrum.

    With clamp=True, tiny negative eigenvalues are zeroed first (for logs
    and fractional powers of numerically PSD inputs).
    """
    w, v = spectral_decompose(m, tol)
    if clamp:
        w = clamp_psd_eigenvalues(w)
    with np.errstate(invalid="ignore", divide="ignore"):
        fw = np.asarray(f(w), dtype=complex)
    if not np.all(np.isfinite(fw)):
        raise ValidationError("eigenvalue outside the domain of the scalar function")
    out = (v * fw) @ v.conj().T
    return (out + out.conj().T) / 2.0


def partial_trace(state: np.ndarray, keep_dims: int, trace_dims: int) -> np.ndarray:
    """Trace out the trailing factor of a density operator on C^keep x C^trace."""
    rho = require_square(state)
    d = rho.shape[0]
    if keep_dims * trace_dims != d:
        raise ValidationError(f"dimension mismatch: {keep_dims} * {trace_dims} != {d}")
    r = rho.reshape(keep_dims, trace_dims, keep_dims, trace_dims)
    return np.einsum("ikjk->ij", r)


# ---------------------------------------------------------------------------
# Exact quantities (the trusted oracle for all estimator tests)
# ---------------------------------------------------------------------------

def _spectrum(rho: np.ndarray) -> np.ndarray:
    w, _ = spectral_decompose(rho)
    return clamp_psd_eigenvalues(w)


def von_neumann_entropy(rho: np.ndarray) -> float:
    w = _spectrum(rho)
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


def trace_power(rho: np.ndarray, alpha: float) -> float:
    if alpha <= 0:
        raise ValidationError("trace_power requires alpha > 0")
    w = _spectrum(rho)
    w = w[w > 0]
    return float((w ** alpha).sum())


def renyi_entropy(rho: np.ndarray, alpha: float) -> float:
    if alpha == 1:
        raise ValidationError("Renyi entropy is undefined at alpha = 1 (use von Neumann)")
    return float(np.log(trace_power(rho, alpha)) / (1.0 - alpha))


def tsallis_entropy(rho: np.ndarray, alpha: float) -> float:
    if alpha == 1:
        raise ValidationError("Tsallis entropy is undefined at alpha = 1 (use von Neumann)")
    return float((trace_power(rho, alpha) - 1.0) / (1.0 - alpha))


def rank_delta(rho: np.ndarray, delta: float) -> int:
    """Number of eigenvalues exceeding delta in magnitude (delta-rank)."""
    w, _ = spectral_decompose(rho)
    return int(np.count_nonzero(np.abs(w) > delta))


def operator_rank(rho: np.ndarray) -> int:
    return rank_delta(rho, RANK_CUT)


def max_entropy(rho: np.ndarray) -> float:
    return float(np.log(operator_rank(rho)))


def trace_distance(rho: np.ndarray, sigma: np.ndarray, alpha: float = 1.0) -> float:
    """T_alpha = tr |(rho - sigma)/2|^alpha."""
    if alpha <= 0:
        raise ValidationError("alpha-trace-distance requires alpha > 0")
    nu = (require_hermitian(rho) - require_hermitian(sigma)) / 2.0
    w = np.linalg.eigvalsh(nu)
    aw = np.abs(w)
    aw = aw[aw > EIG_CLAMP]
    return float((aw ** alpha).sum())


def alpha_fidelity(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """F_alpha = tr((sigma^beta rho sigma^beta)^alpha), beta = (1-alpha)/(2 alpha).

    Computed from the singular values of sigma^beta rho^(1/2): their squares
    are the nonzero eigenvalues of the sandwiched product, and the singular
    route stays accurate on rank-deficient states where a direct eigh + sqrt
    would amplify noise near zero.
    """
    if not 0 < alpha < 1:
        raise ValidationError("alpha-fidelity requires alpha in (0, 1)")
    beta = (1.0 - alpha) / (2.0 * alpha)
    sig_b = matrix_function(sigma, lambda w: np.where(w > 0, w, 0.0) ** beta, clamp=True)
    rho_half = matrix_function(rho, lambda w: np.sqrt(np.where(w > 0, w, 0.0)), clamp=True)
    s = np.linalg.svd(sig_b @ rho_half, compute_uv=False)
    s = s[s > 1e-12 * max(1.0, float(s.max(initial=0.0)))]
    return float((s ** (2.0 * alpha)).sum())


@dataclass(frozen=True)
class Quantity:
    """One estimable quantity: how many states it takes, its alpha rule, and
    its exact value ``exact(rho, sigma, alpha)``.

    ``needs_alpha`` quantities fail without alpha, and a missing alpha becomes
    ``alpha_default`` otherwise; a quantity with neither rejects any alpha.
    """

    states: int
    exact: Callable[[np.ndarray, np.ndarray | None, float | None], float]
    needs_alpha: bool = False
    alpha_default: float | None = None

    def resolve_alpha(self, kind: str, alpha: float | None) -> float | None:
        if alpha is not None:
            if not self.needs_alpha and self.alpha_default is None:
                raise ValidationError(f"{kind} takes no alpha")
            return alpha
        if self.needs_alpha:
            raise ValidationError(f"{kind} needs alpha")
        return self.alpha_default


# The entries call through module globals when they run, so a function
# rebound on this module (for instance by a tracing harness) is the one used.
QUANTITIES = {
    "von-neumann": Quantity(1, lambda rho, sigma, a: von_neumann_entropy(rho)),
    "renyi": Quantity(1, lambda rho, sigma, a: renyi_entropy(rho, a), needs_alpha=True),
    "tsallis": Quantity(1, lambda rho, sigma, a: tsallis_entropy(rho, a),
                        needs_alpha=True),
    "trace-power": Quantity(1, lambda rho, sigma, a: trace_power(rho, a),
                            needs_alpha=True),
    "rank": Quantity(1, lambda rho, sigma, a: float(operator_rank(rho))),
    "exact-rank": Quantity(1, lambda rho, sigma, a: float(operator_rank(rho))),
    "max-entropy": Quantity(1, lambda rho, sigma, a: max_entropy(rho)),
    "trace-distance": Quantity(2, lambda rho, sigma, a: trace_distance(rho, sigma, a),
                               alpha_default=1.0),
    "fidelity": Quantity(2, lambda rho, sigma, a: alpha_fidelity(rho, sigma, a),
                         needs_alpha=True),
}


def exact_quantity(kind: str, rho: np.ndarray, sigma: np.ndarray | None = None,
                   alpha: float | None = None) -> float:
    """Exact value of a quantity in ``QUANTITIES``; the trusted oracle for acceptance."""
    kind = kind.lower()
    if kind not in QUANTITIES:
        raise ValidationError(f"unknown quantity {kind!r}")
    spec = QUANTITIES[kind]
    if spec.states == 2 and sigma is None:
        raise ValidationError(f"{kind} needs a second state")
    return spec.exact(rho, sigma, spec.resolve_alpha(kind, alpha))
