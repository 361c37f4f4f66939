"""Eigenvalue transformations of block-encodings and density-operator oracles.

Polynomial transforms are realized semantically, while query costs are
charged per the originating analysis.  A transform takes its certified
factors P_1, ..., P_m, checks each against its QSVT limit, applies the
product of their values at the spectrum, and charges one transform at the
summed degree (the degrees of a product add, Gilyen, Su, Low and Wiebe,
arXiv:1806.01838).  A density transform maps the input operator's
eigenpairs, read from a thin SVD of its purification factor, to the output's
factor, so no dense matrix is decomposed; a unitary transform decomposes the
k x k compression of the encoded block, applies the polynomial to that
spectrum and to the kernel value, keeps the block's support, and checks the
result's norm from those values.  Circuits are built only if ``.unitary`` is
read.  No phase-factor sequences are synthesized; the circuit-precision
parameter becomes the declared ``QSVT_PRECISION``.  Every declared error
bound is the proof's final inequality chain evaluated with the actual
certified polynomial errors, with explicit constants instead of Theta(.)s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encodings import (PSD_TOL, PurifiedAccessOracle, SubnormalizedDensityOperator,
                        UnitaryBlockEncoding, encoding_power, product, purification_of)
from .numerics import (ValidationError, matrix_function, spectral_decompose,
                       spectral_norm)
from .polyapprox import (CertifiedPolynomial, approx_negative_power,
                         approx_positive_power, approx_support_indicator, certified)
from .resources import QueryCost

#: Declared precision of the (not synthesized) phase-factor computation.
QSVT_PRECISION = 1e-12


@dataclass(frozen=True)
class TransformResult:
    """Transform output with its tracked error bound and cost.

    ``scale * <output block or trace>`` approximates the named target within
    ``declared_error``.
    """

    result: object                    # UnitaryBlockEncoding | PurifiedAccessOracle
    declared_error: float
    scale: float

    @property
    def cost(self) -> QueryCost:
        return self.result.cost

    @property
    def oracle(self) -> PurifiedAccessOracle:
        if not isinstance(self.result, PurifiedAccessOracle):
            raise ValidationError("transform result is not an oracle")
        return self.result

    @property
    def encoding(self) -> UnitaryBlockEncoding:
        if not isinstance(self.result, UnitaryBlockEncoding):
            raise ValidationError("transform result is not a block-encoding")
        return self.result


def _product(factors: tuple[CertifiedPolynomial, ...]):
    """w -> prod_i P_i(w) on w clipped to [-1, 1], and the summed degree.

    Each factor must meet its QSVT limit; as each is then at most one in
    absolute value, so is their product.
    """
    for p in factors:
        limit = 1.0 if p.parity in ("even", "odd") else 0.5
        if p.global_bound > limit + 1e-9:
            raise ValidationError(
                f"polynomial bound {p.global_bound:.6f} violates the QSVT limit {limit}")

    def f(w):
        w = np.clip(w, -1.0, 1.0)
        return math.prod((p(w) for p in factors), start=np.ones(np.shape(w)))

    return f, sum(p.degree for p in factors)


def _block_function(u: UnitaryBlockEncoding, f, **contract) -> UnitaryBlockEncoding:
    """SVD dilation of f(B) for the Hermitian block B = (Q, M, c) of ``u``.

    One decomposition of the k x k compression M = v diag(w) v^dag gives
    f(B) = (Q, v diag(f(w)) v^dag, f(c)) on u's support, and its norm
    max|f(w)| together with |f(c)| when Q leaves a complement; with the
    whole space as the support M is B itself.  ``contract`` holds the
    output's remaining fields.
    """
    m, c = u.compression, complex(u.kernel_value)
    if abs(c.imag) > 1e-8:
        raise ValidationError(f"kernel value {c} of the block is not real")
    w, v = spectral_decompose(m, tol=1e-8) if m.size else (np.zeros(0), m)
    fw = np.asarray(f(np.append(w, c.real)), dtype=float)
    fw, fc = fw[:-1], (float(fw[-1]) if m.shape[0] < 2 ** u.system_qubits else 0.0)
    norm = max(float(np.abs(fw).max(initial=0.0)), abs(fc))
    if norm > 1.0 + PSD_TOL:
        raise ValidationError(f"operator norm {norm:.6f} exceeds one")
    fm = (v * fw) @ v.conj().T
    return UnitaryBlockEncoding(
        compression=(fm + fm.conj().T) / 2.0, system_qubits=u.system_qubits,
        realized_ancillas=1, support=u.support, kernel_value=fc, **contract)


def qsvt_unitary(u: UnitaryBlockEncoding, *factors: CertifiedPolynomial) -> TransformResult:
    """(1, a+2, precision)-block-encoding of P(A), P the product of ``factors``,
    from a scale-1 encoding of A.

    Charges the transform cost at d = sum of the factors' degrees: 2d uses of
    U and U^dag and one controlled use.
    """
    if abs(u.scale - 1.0) > 1e-12:
        raise ValidationError("QSVT needs a scale-1 block-encoding")
    f, degree = _product(factors)
    out = _block_function(u, f, ancillas=u.ancillas + 2,
                          scale=1.0, declared_error=QSVT_PRECISION,
                          cost=u.cost.transformed(degree, u.realized_ancillas + 1))
    return TransformResult(result=out, declared_error=QSVT_PRECISION, scale=1.0)


def qsvt_density(oracle: PurifiedAccessOracle, *factors: CertifiedPolynomial
                 ) -> TransformResult:
    """Oracle preparing A (P(A))^2, P the product of ``factors``, from an
    oracle preparing A.

    The output's factor is V sqrt(w) P(w) on the input's eigenpairs (w, V);
    P reads an eigenvalue above one (by at most the input's trace tolerance)
    as one.
    The composition constant from the proof is 5/2, so the declared error of
    the prepared operator is 2.5 * QSVT_PRECISION.  Charges the transform cost
    at d = sum of the factors' degrees: 2d uses of the oracle and its inverse
    and one controlled use.
    """
    f, degree = _product(factors)
    w, v = oracle.encoded.eigenpairs
    cost = oracle.cost.transformed(degree, oracle.total_qubits + 1)
    out = SubnormalizedDensityOperator(v * (np.sqrt(w) * f(w)), oracle.system_qubits)
    return TransformResult(result=purification_of(out, label=oracle.label, cost=cost),
                           declared_error=2.5 * QSVT_PRECISION, scale=1.0)


def transform_with_target(oracle: PurifiedAccessOracle, f, p: CertifiedPolynomial,
                          delta: float) -> TransformResult:
    """Oracle approximating A (f(A))^2 through a polynomial certified on [delta, 1].

    Declared error: 2 eps + delta + sup_{[0, delta]} |x f(x)^2| + 2.5 QSVT_PRECISION,
    with eps the polynomial's actual certified error.
    """
    lo, hi = p.certified_interval
    if lo > delta + 1e-12 or hi < 1.0 - 1e-9:
        raise ValidationError(
            f"certification interval [{lo}, {hi}] does not cover [{delta}, 1]")
    inner = qsvt_density(oracle, p)
    grid = np.linspace(0.0, delta, 2001)
    with np.errstate(invalid="ignore", divide="ignore"):
        tail_vals = grid * np.asarray(f(grid), dtype=float) ** 2
    tail = float(np.nanmax(np.abs(tail_vals)))
    err = 2.0 * p.certified_error + delta + tail + 2.5 * QSVT_PRECISION
    return TransformResult(result=inner.result, declared_error=err, scale=1.0)


def positive_power_density(oracle: PurifiedAccessOracle, c: float, delta: float,
                           epsilon: float) -> TransformResult:
    """Oracle for B with 4 delta^(c-1) B ~ A^c, for c in (0, 1).

    Uses the negative-power approximant at exponent (1-c)/2: with
    f(x) = (delta^cn / 2) x^(-cn), the transform prepares
    A f(A)^2 = (delta^(1-c) / 4) A^c.
    """
    if not 0 < c < 1:
        raise ValidationError("positive power exponent must be in (0, 1)")
    if not (0 < delta <= 0.5 and 0 < epsilon <= 0.5):
        raise ValidationError("delta, epsilon must lie in (0, 1/2]")
    c_neg = (1.0 - c) / 2.0
    poly = certified(approx_negative_power, c_neg, delta, epsilon)

    def f(x):
        return (delta ** c_neg / 2.0) * np.asarray(x, dtype=float) ** (-c_neg)

    inner = transform_with_target(oracle, f, poly, delta)
    scale = 4.0 * delta ** (c - 1.0)
    return TransformResult(result=inner.result, declared_error=scale * inner.declared_error,
                           scale=scale)


def positive_power_unitary(u: UnitaryBlockEncoding, c: float, delta: float,
                           epsilon: float) -> TransformResult:
    """(2, 2a+4, err)-block-encoding of |A|^c from a scale-1 encoding of A.

    Transforms by the positive-power approximant P times the support
    indicator R; err evaluates the proof's three regions at the actual
    certified errors: max(eP + eR/2, eR + delta^c/2, eP + (2 delta)^c/2),
    doubled by the scale.  Charges the transform cost at degree
    d = deg(P) + deg(R): 2d uses of U and U^dag and one controlled use.
    The target |A|^c is decomposed afresh only when a check reads it.
    """
    if not 0 < c < 1:
        raise ValidationError("positive power exponent must be in (0, 1)")
    if not (0 < delta <= 0.25 and 0 < epsilon <= 0.25):
        raise ValidationError("delta, epsilon must lie in (0, 1/4]")
    if abs(u.scale - 1.0) > 1e-12:
        raise ValidationError("positive_power_unitary needs a scale-1 encoding")
    p = certified(approx_positive_power, c, delta, epsilon)
    r = certified(approx_support_indicator, delta, epsilon)
    f, degree = _product((p, r))

    def target():
        return matrix_function(u.matrix, lambda x: np.abs(x) ** c, tol=1e-8)

    e_p, e_r = p.certified_error, r.certified_error
    err_block = max(e_p + 0.5 * e_r,
                    e_r + 0.5 * delta ** c,
                    e_p + 0.5 * (2.0 * delta) ** c) + 2.0 * QSVT_PRECISION
    cost = u.cost.transformed(degree, u.realized_ancillas + 1)
    out = _block_function(u, f, ancillas=2 * u.ancillas + 4, scale=2.0,
                          declared_error=2.0 * err_block, target_builder=target, cost=cost)
    return TransformResult(result=out, declared_error=2.0 * err_block, scale=2.0)


def power_unitary(u: UnitaryBlockEncoding, exponent: float, delta: float,
                  epsilon: float) -> UnitaryBlockEncoding:
    """Block-encoding of A^k |A|^c, k = floor(exponent) and c = exponent - k.

    The fractional factor is ``positive_power_unitary`` at (c, delta, epsilon),
    so c must lie in (0, 1); for k >= 1 it follows k products of U.
    """
    k = math.floor(exponent)
    frac = positive_power_unitary(u, exponent - k, delta, epsilon).encoding
    return frac if k == 0 else product(encoding_power(u, k), frac)


def sandwich_coefficients(delta: float, epsilon: float) -> tuple[float, float]:
    """Scaled-projector sandwich: lower and upper multipliers of the support
    projectors bounding the threshold-projector output."""
    lo = delta / 4.0 * (1.0 - 2.0 * epsilon) - np.sqrt(delta) * epsilon
    hi = delta / 4.0 + epsilon ** 2 + np.sqrt(delta) * epsilon
    return float(lo), float(hi)


def eigenvalue_threshold_projector(oracle: PurifiedAccessOracle, delta: float,
                                   epsilon: float) -> TransformResult:
    """Oracle for B with lo(d,e) P_supp_2d(A) <= B <= hi(d,e) P_supp(A).

    Requires delta, epsilon in (0, 1/10] and 32 epsilon^2 <= delta; B is
    A (Q(A))^2 with Q the product of the negative-power and support-indicator
    approximants at (delta, epsilon), applied as one transform of the two
    factors.
    """
    if not (0 < delta <= 0.1 and 0 < epsilon <= 0.1):
        raise ValidationError("delta, epsilon must lie in (0, 1/10]")
    if 32.0 * epsilon ** 2 > delta:
        raise ValidationError(f"precondition violated: 32 eps^2 = "
                              f"{32 * epsilon ** 2:.4g} > delta = {delta}")
    inner = qsvt_density(oracle, certified(approx_negative_power, 0.5, delta, epsilon),
                         certified(approx_support_indicator, delta, epsilon))
    return TransformResult(result=inner.result, declared_error=2.0 * QSVT_PRECISION,
                           scale=1.0)


def psd_order_holds(lower: np.ndarray, upper: np.ndarray, tol: float = 1e-8) -> bool:
    """A <= B as a PSD ordering: min eig(B - A) >= -tol * max(1, ||B||)."""
    diff = np.asarray(upper) - np.asarray(lower)
    diff = (diff + diff.conj().T) / 2.0
    w = np.linalg.eigvalsh(diff)
    return bool(w.min() >= -tol * max(1.0, spectral_norm(np.asarray(upper))))
