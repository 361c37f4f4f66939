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
result's norm from those values.  A transform returns what it builds, a
``UnitaryBlockEncoding`` or a ``PurifiedAccessOracle``, with its contract on
it: ``scale`` times the block or the prepared operator approximates the named
target within ``declared_error``.  ``qsvt_unitary`` and ``qsvt_density`` do
the transforms; each named transform calls one of them once, sets its own
contract and re-labels the construction record with its own rule, its input
and its certified factors, from which ``blockenc.circuits`` builds the
target.  No phase-factor sequences are synthesized; the circuit-precision
parameter becomes the declared ``QSVT_PRECISION``.  Every declared error
bound is the proof's final inequality chain evaluated with the actual
certified polynomial errors, with explicit constants instead of Theta(.)s.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .encodings import (PSD_TOL, PurifiedAccessOracle, Step, SubnormalizedDensityOperator,
                        UnitaryBlockEncoding, encoding_power, product, purification_of)
from .numerics import ValidationError, spectral_decompose, spectral_norm
from .polyapprox import (CertifiedPolynomial, approx_negative_power,
                         approx_positive_power, approx_support_indicator, certified)

#: Declared precision of the (not synthesized) phase-factor computation.
QSVT_PRECISION = 1e-12


def _product(factors: tuple[CertifiedPolynomial, ...]):
    """w -> prod_i P_i(w) on w clipped to [-1, 1], and the summed degree.

    Each factor must meet its QSVT limit, the ``bound_limit`` it was certified
    against; as each is then at most one in absolute value, so is their product.
    """
    for p in factors:
        if p.global_bound > p.bound_limit + 1e-9:
            raise ValidationError(f"polynomial bound {p.global_bound:.6f} violates "
                                  f"the QSVT limit {p.bound_limit}")

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
    output's remaining fields, its construction record included.
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
        support=u.support, kernel_value=fc, **contract)


def qsvt_unitary(u: UnitaryBlockEncoding, *factors: CertifiedPolynomial
                 ) -> UnitaryBlockEncoding:
    """(1, a+2, precision)-block-encoding of P(A), P the product of ``factors``,
    from a scale-1 encoding of A.

    Charges the transform cost at d = sum of the factors' degrees: 2d uses of
    U and U^dag and one controlled use.
    """
    if abs(u.scale - 1.0) > 1e-12:
        raise ValidationError("QSVT needs a scale-1 block-encoding")
    f, degree = _product(factors)
    return _block_function(u, f, ancillas=u.ancillas + 2, scale=1.0,
                           declared_error=QSVT_PRECISION,
                           step=Step("qsvt_unitary", (u,), {"factors": factors}),
                           cost=u.cost.transformed(degree, u.ancillas + 1))


def qsvt_density(oracle: PurifiedAccessOracle, *factors: CertifiedPolynomial
                 ) -> PurifiedAccessOracle:
    """Oracle preparing A (P(A))^2, P the product of ``factors``, from an
    oracle preparing A.

    The output's factor is V sqrt(w) P(w) on the input's eigenpairs (w, V);
    P reads an eigenvalue above one (by at most the input's trace tolerance)
    as one.
    The composition constant from the proof is 5/2, so the declared error of
    the prepared operator is 2.5 * QSVT_PRECISION, at scale one.  Charges the
    transform cost at d = sum of the factors' degrees: 2d uses of the oracle
    and its inverse and one controlled use.
    """
    f, degree = _product(factors)
    w, v = oracle.encoded.eigenpairs
    cost = oracle.cost.transformed(degree, oracle.total_qubits + 1)
    out = SubnormalizedDensityOperator(v * (np.sqrt(w) * f(w)), oracle.system_qubits)
    return replace(purification_of(out, label=oracle.label, cost=cost),
                   declared_error=2.5 * QSVT_PRECISION,
                   step=Step("qsvt_density", (oracle,), {"factors": factors}))


def positive_power_density(oracle: PurifiedAccessOracle, c: float, delta: float,
                           epsilon: float) -> PurifiedAccessOracle:
    """Oracle for B with 4 delta^(c-1) B ~ A^c, for c in (0, 1), at that scale.

    Transforms by the negative-power approximant P at exponent cn = (1-c)/2,
    certified within eps on [delta, 1] against f(x) = (delta^cn / 2) x^(-cn),
    so it prepares A P(A)^2 ~ A f(A)^2 = (delta^(1-c) / 4) A^c.  Declared
    error: the scale times 2 eps + delta + sup_{[0, delta]} x f(x)^2
    + 2.5 QSVT_PRECISION, with eps the polynomial's actual certified error.
    """
    if not 0 < c < 1:
        raise ValidationError("positive power exponent must be in (0, 1)")
    poly = certified(approx_negative_power, (1.0 - c) / 2.0, delta, epsilon)
    # x f(x)^2 = delta^(2 cn) x^c / 4 increases in x, so its sup on [0, delta]
    # is its value at delta, delta / 4
    err = 2.0 * poly.certified_error + delta + delta / 4.0 + 2.5 * QSVT_PRECISION
    scale = 4.0 * delta ** (c - 1.0)
    return replace(qsvt_density(oracle, poly), scale=scale, declared_error=scale * err,
                   step=Step("positive_power_density", (oracle,), {"factors": (poly,)}))


def positive_power_unitary(u: UnitaryBlockEncoding, c: float, delta: float,
                           epsilon: float) -> UnitaryBlockEncoding:
    """(2, 2a+4, err)-block-encoding of |A|^c from a scale-1 encoding of A.

    ``qsvt_unitary`` by the positive-power approximant P times the support
    indicator R, at degree deg(P) + deg(R); err evaluates the proof's three
    regions at the actual certified errors: max(eP + eR/2, eR + delta^c/2,
    eP + (2 delta)^c/2), doubled by the scale.  The record carries c, so a
    check builds the target |A|^c from it.
    """
    r = certified(approx_support_indicator, delta, epsilon)
    p = certified(approx_positive_power, c, delta, epsilon)
    e_p, e_r = p.certified_error, r.certified_error
    err_block = max(e_p + 0.5 * e_r,
                    e_r + 0.5 * delta ** c,
                    e_p + 0.5 * (2.0 * delta) ** c) + 2.0 * QSVT_PRECISION
    return replace(qsvt_unitary(u, p, r), ancillas=2 * u.ancillas + 4, scale=2.0,
                   declared_error=2.0 * err_block,
                   step=Step("positive_power_unitary", (u,), {"factors": (p, r), "c": c}))


def power_unitary(u: UnitaryBlockEncoding, exponent: float, delta: float,
                  epsilon: float) -> UnitaryBlockEncoding:
    """Block-encoding of A^k |A|^c, k = floor(exponent) and c = exponent - k.

    The fractional factor is ``positive_power_unitary`` at (c, delta, epsilon),
    so c must lie in (0, 1); for k >= 1 it follows k products of U.
    """
    k = math.floor(exponent)
    frac = positive_power_unitary(u, exponent - k, delta, epsilon)
    return frac if k == 0 else product(encoding_power(u, k), frac)


def sandwich_coefficients(delta: float, epsilon: float) -> tuple[float, float]:
    """Scaled-projector sandwich: lower and upper multipliers of the support
    projectors bounding the threshold-projector output."""
    lo = delta / 4.0 * (1.0 - 2.0 * epsilon) - np.sqrt(delta) * epsilon
    hi = delta / 4.0 + epsilon ** 2 + np.sqrt(delta) * epsilon
    return float(lo), float(hi)


def eigenvalue_threshold_projector(oracle: PurifiedAccessOracle, delta: float,
                                   epsilon: float) -> PurifiedAccessOracle:
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
    factors = (certified(approx_negative_power, 0.5, delta, epsilon),
               certified(approx_support_indicator, delta, epsilon))
    return replace(qsvt_density(oracle, *factors), declared_error=2.0 * QSVT_PRECISION,
                   step=Step("eigenvalue_threshold_projector", (oracle,), {"factors": factors}))


def psd_order_holds(lower: np.ndarray, upper: np.ndarray) -> bool:
    """A <= B as a PSD ordering: min eig(B - A) >= -1e-8 * max(1, ||B||)."""
    diff = np.asarray(upper) - np.asarray(lower)
    diff = (diff + diff.conj().T) / 2.0
    w = np.linalg.eigvalsh(diff)
    return bool(w.min() >= -1e-8 * max(1.0, spectral_norm(np.asarray(upper))))
