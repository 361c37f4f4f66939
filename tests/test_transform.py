import functools

import numpy as np
import pytest

from blockenc import circuits
from blockenc import encodings as enc
from blockenc import polyapprox as pa
from blockenc import transform as tf
from blockenc.fixtures import (floored_spectrum_state, ginibre_state, maximally_mixed,
                               pure_state)
from blockenc.numerics import ValidationError, matrix_function, spectral_norm


def oracle_for(m, label="rho"):
    return enc.purification_of(enc.SubnormalizedDensityOperator.from_matrix(m), label=label)


def identity_poly():
    # P(x) = x in the Chebyshev basis: T_1
    return pa.CertifiedPolynomial(
        coefficients=np.array([0.0, 1.0]), parity="odd", target=lambda x: x,
        certified_interval=(-1.0, 1.0), certified_error=0.0, global_bound=1.0,
        bound_limit=1.0, family="identity")


def constant_one_poly():
    return pa.CertifiedPolynomial(
        coefficients=np.array([1.0]), parity="even", target=lambda x: np.ones_like(x),
        certified_interval=(-1.0, 1.0), certified_error=0.0, global_bound=1.0,
        bound_limit=1.0, family="one")


def two_factors():
    """The negative power times the support indicator, as the threshold
    projector applies them."""
    return (pa.certified(pa.approx_negative_power, 0.5, 0.05, 0.01),
            pa.certified(pa.approx_support_indicator, 0.05, 0.01))


def product_at(factors, x):
    return np.prod([p(x) for p in factors], axis=0)


# -- qsvt_unitary -------------------------------------------------------------

def test_qsvt_unitary_identity_polynomial():
    rng = np.random.default_rng(3)
    rho = ginibre_state(4, 3, rng)
    u = enc.dilate(rho)
    out = tf.qsvt_unitary(u, identity_poly())
    assert (out.scale, out.declared_error) == (1.0, tf.QSVT_PRECISION)
    assert spectral_norm(circuits.block(out) - rho) < 1e-9


def test_qsvt_unitary_support_indicator_separates_spectrum():
    r = pa.approx_support_indicator(0.1, 0.01)
    a = np.diag([0.5, 0.05]).astype(complex)
    out = tf.qsvt_unitary(enc.dilate(a), r)
    assert spectral_norm(circuits.block(out) - np.diag([1.0, 0.0])) < 0.02


@pytest.mark.parametrize("factors", [
    lambda: (pa.approx_support_indicator(0.1, 0.01),), two_factors,
], ids=["one-factor", "two-factors"])
def test_qsvt_unitary_cost_charges_degree_queries(factors):
    factors = factors()
    u = enc.dilate(maximally_mixed(2))
    out = tf.qsvt_unitary(u, *factors)
    assert spectral_norm(circuits.block(out) - product_at(factors, 0.5) * np.eye(2)) < 1e-12


@pytest.mark.parametrize("admissible", [
    lambda: (), lambda: (pa.approx_support_indicator(0.1, 0.01),),
], ids=["alone", "next-to-admissible"])
def test_qsvt_unitary_rejects_unbounded_polynomial(admissible):
    bad = pa.CertifiedPolynomial(
        coefficients=np.array([0.0, 2.0]), parity="odd", target=None,
        certified_interval=(-1, 1), certified_error=0.0, global_bound=2.0,
        bound_limit=1.0, family="bad")
    with pytest.raises(ValidationError):
        tf.qsvt_unitary(enc.identity_encoding(1), *admissible(), bad)
    with pytest.raises(ValidationError):
        tf.qsvt_density(oracle_for(maximally_mixed(2)), *admissible(), bad)


def test_qsvt_unitary_rejects_non_hermitian_block():
    m = np.array([[0.0, 0.5], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError):
        tf.qsvt_unitary(enc.dilate(m), identity_poly())


def test_transform_of_an_input_with_accepted_residual():
    # an input the PSD test accepts, with a negative eigenvalue and one below
    # the support cut outside its support
    rho = floored_spectrum_state(16, 4, np.random.default_rng(3))
    w, v = np.linalg.eigh(rho)
    h = rho - 5e-11 * np.outer(v[:, 0], v[:, 0].conj()) \
        + 5e-15 * np.outer(v[:, 1], v[:, 1].conj())
    a = enc.SubnormalizedDensityOperator.from_matrix(h)
    assert a.factor.shape[1] == 4
    ffh = a.factor @ a.factor.conj().T
    residual = np.linalg.norm(h - ffh)
    tol = enc.PSD_TOL * max(1.0, np.linalg.norm(h))
    assert 1e-11 < residual <= tol
    # the block is F F^dag, and its contract against h holds within the residual
    u = enc.block_encode_density(enc.purification_of(a))
    assert u.support.shape == (16, 4)
    assert np.linalg.norm(u.matrix - ffh) <= 1e-12
    assert spectral_norm(u.matrix - h) <= tol
    circuits.check(u, slack=tol)
    # so an f with Lipschitz constant L moves f(h) by at most L ||B - h||_F
    lipschitz = 0.6
    f = lambda x: 0.3 + lipschitz * x  # noqa: E731
    out = tf._block_function(u, f, ancillas=u.ancillas + 2, scale=1.0, declared_error=0.0,
                             step=enc.Step("qsvt_unitary", (u,)))
    assert out.kernel_value == pytest.approx(0.3)
    assert 0 < np.linalg.norm(out.matrix - matrix_function(h, f)) \
        <= lipschitz * (residual + 1e-12)


# -- qsvt_density -------------------------------------------------------------

def test_qsvt_density_constant_polynomial_returns_state():
    rng = np.random.default_rng(5)
    rho = ginibre_state(4, 2, rng)
    o = oracle_for(rho)
    # an input oracle is a (1, a, 0) block-encoding of its state
    assert (o.scale, o.declared_error) == (1.0, 0.0)
    out = tf.qsvt_density(o, constant_one_poly())
    assert (out.scale, out.declared_error) == (1.0, 2.5 * tf.QSVT_PRECISION)
    assert spectral_norm(out.encoded.matrix - rho) < 1e-10


def test_qsvt_density_identity_polynomial_cubes_diagonal():
    out = tf.qsvt_density(oracle_for(maximally_mixed(2)), identity_poly())
    assert np.allclose(out.encoded.matrix, np.diag([0.125, 0.125]), atol=1e-10)


def test_qsvt_density_diagonal_is_exact():
    rho = np.diag([0.6, 0.3, 0.1, 0.0]).astype(complex)
    p = pa.approx_positive_power(0.5, 0.05, 0.01)
    out = tf.qsvt_density(oracle_for(rho), p)
    want = np.diag([lam * p(lam) ** 2 for lam in [0.6, 0.3, 0.1, 0.0]])
    assert spectral_norm(out.encoded.matrix - want) < 1e-10


@pytest.mark.parametrize("factors, target", [
    (lambda: (pa.approx_positive_power(0.5, 0.05, 0.01),), lambda x: 0.5 * x ** 0.5),
    (two_factors, lambda x: (0.05 ** 0.5 / 2.0) * x ** -0.5),
], ids=["one-factor", "two-factors"])
def test_qsvt_density_passes_eigenpairs_on(linalg_calls, factors, target):
    factors = factors()
    x = np.linspace(0.1, 1.0, 2001)
    assert np.abs(product_at(factors, x) - target(x)).max() <= 0.025
    o = oracle_for(floored_spectrum_state(16, 4, np.random.default_rng(3)))
    w, v = o.encoded.eigenpairs
    linalg_calls.clear()
    out = tf.qsvt_density(o, *factors)
    assert not linalg_calls
    assert np.array_equal(out.encoded.factor, v * (np.sqrt(w) * product_at(factors, w)))


def _unit_rank_one_factor(seed: int) -> enc.SubnormalizedDensityOperator:
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))) / np.sqrt(2.0)
    return enc.SubnormalizedDensityOperator(g / np.linalg.norm(g), 3)


@pytest.mark.parametrize("a", [
    # the thin SVD of this unit rank-1 factor gives an eigenvalue of 1 + 4.4e-16
    _unit_rank_one_factor(0),
    # a trace above one by less than the validation tolerance
    enc.SubnormalizedDensityOperator.from_matrix((1.0 + 5e-10) * pure_state(8)),
], ids=["svd-rounding", "trace-tolerance"])
def test_qsvt_density_of_rank_one_state_reads_eigenvalue_above_one_as_one(a):
    o = enc.purification_of(a)
    w, _ = o.encoded.eigenpairs
    assert w.max() > 1.0
    p = pa.approx_positive_power(0.5, 0.05, 0.01)
    out = tf.qsvt_density(o, p).encoded
    assert spectral_norm(out.matrix - p(1.0) ** 2 * a.matrix) < 1e-12


def test_qsvt_density_matches_spectral_oracle():
    rng = np.random.default_rng(7)
    rho = ginibre_state(8, 3, rng)
    p = pa.approx_positive_power(0.5, 0.05, 0.01)
    out = tf.qsvt_density(oracle_for(rho), p)
    want = matrix_function(rho, lambda w: w * p(w) ** 2, clamp=True)
    assert spectral_norm(out.encoded.matrix - want) < 1e-8


# -- positive_power_density ---------------------------------------------------

def test_positive_power_density_projector_spectrum():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    out = tf.positive_power_density(oracle_for(rho), 0.5, 0.02, 1e-3)
    got = out.scale * out.encoded.matrix
    want = np.diag([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
    assert spectral_norm(got - want) <= out.declared_error
    assert spectral_norm(got - want) < 0.05


def test_positive_power_density_zero_state():
    zero = enc.SubnormalizedDensityOperator.from_matrix(np.zeros((2, 2), dtype=complex))
    out = tf.positive_power_density(enc.purification_of(zero), 0.5, 0.05, 1e-2)
    assert spectral_norm(out.encoded.matrix) < 1e-9


def test_positive_power_density_trace_of_sqrt():
    rng = np.random.default_rng(13)
    rho = floored_spectrum_state(8, 2, rng, floor=0.2)
    out = tf.positive_power_density(oracle_for(rho), 0.5, 0.02, 1e-3)
    got = out.scale * out.encoded.trace
    want = matrix_function(rho, lambda w: np.sqrt(np.maximum(w, 0)), clamp=True).trace().real
    assert abs(got - want) <= out.declared_error
    assert abs(got - want) < 0.05


# -- positive_power_unitary ---------------------------------------------------

def test_positive_power_unitary_sign_symmetry():
    a = np.diag([1.0, -1.0]).astype(complex)
    out = tf.positive_power_unitary(enc.dilate(a), 0.5, 0.05, 0.01)
    got = 2.0 * circuits.block(out)
    assert spectral_norm(got - np.eye(2)) <= out.declared_error


def test_positive_power_unitary_suppresses_small_eigenvalue():
    a = np.diag([0.5, 0.0]).astype(complex)
    out = tf.positive_power_unitary(enc.dilate(a), 0.5, 0.05, 0.01)
    got = 2.0 * circuits.block(out)
    assert abs(got[1, 1]) <= out.declared_error
    assert abs(got[0, 0] - np.sqrt(0.5)) <= out.declared_error


def test_positive_power_unitary_random_hermitian():
    rng = np.random.default_rng(17)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (g + g.conj().T) / 2
    a /= np.linalg.norm(a, 2) * 1.1
    out = tf.positive_power_unitary(enc.dilate(a), 0.5, 0.05, 0.01)
    want = matrix_function(a, lambda w: np.abs(w) ** 0.5)
    assert spectral_norm(2.0 * circuits.block(out) - want) <= out.declared_error
    circuits.check(out)


def test_positive_power_unitary_cost_is_sum_of_degrees():
    p = pa.certified(pa.approx_positive_power, 0.5, 0.05, 0.01)
    r = pa.certified(pa.approx_support_indicator, 0.05, 0.01)
    u = enc.dilate(maximally_mixed(2))
    out = tf.positive_power_unitary(u, 0.5, 0.05, 0.01)
    assert (out.scale, out.ancillas) == (2.0, 2 * u.ancillas + 4)
    # the record holds the two factors, whose degrees the construction sums
    assert out.step.params["factors"] == (p, r)


@pytest.mark.parametrize("exponent", [0.5, 1.5, 2.25])
def test_power_unitary_encodes_integer_times_fractional_power(exponent):
    rng = np.random.default_rng(17)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = (g + g.conj().T) / 2
    a /= np.linalg.norm(a, 2) * 1.1
    out = tf.power_unitary(enc.dilate(a), exponent, 0.05, 0.01)
    k = int(np.floor(exponent))
    want = (np.linalg.matrix_power(a, k)
            @ matrix_function(a, lambda w: np.abs(w) ** (exponent - k)))
    assert out.scale == 2.0
    assert spectral_norm(out.scale * circuits.block(out) - want) <= out.declared_error


# -- eigenvalue threshold projector -------------------------------------------

def test_threshold_projector_maximally_mixed_scalar_value():
    delta, eps = 0.05, 0.01
    out = tf.eigenvalue_threshold_projector(oracle_for(maximally_mixed(2)), delta, eps)
    assert (out.scale, out.declared_error) == (1.0, 2.0 * tf.QSVT_PRECISION)
    lo, hi = tf.sandwich_coefficients(delta, eps)
    got = out.encoded.matrix
    assert tf.psd_order_holds(lo * np.eye(2), got)
    assert tf.psd_order_holds(got, hi * np.eye(2))
    # scalar check: x (Q(x))^2 at x = 1/2 is close to delta/4
    assert abs(got[0, 0].real - delta / 4.0) < 0.2 * delta


def test_threshold_projector_annihilates_kernel():
    rho = np.diag([1.0, 0.0]).astype(complex)
    delta, eps = 0.05, 0.01
    out = tf.eigenvalue_threshold_projector(oracle_for(rho), delta, eps)
    got = out.encoded.matrix
    assert abs(got[1, 1]) <= delta * eps ** 2 + 1e-12


def test_threshold_projector_sandwich_on_random_states():
    rng = np.random.default_rng(19)
    delta, eps = 0.05, 0.01
    for _ in range(5):
        rho = ginibre_state(8, 3, rng)
        out = tf.eigenvalue_threshold_projector(oracle_for(rho), delta, eps)
        got = out.encoded.matrix
        w, v = np.linalg.eigh(rho)
        supp = (v[:, w > 1e-10] @ v[:, w > 1e-10].conj().T)
        supp2d = (v[:, w > 2 * delta] @ v[:, w > 2 * delta].conj().T)
        lo, hi = tf.sandwich_coefficients(delta, eps)
        assert tf.psd_order_holds(lo * supp2d, got)
        assert tf.psd_order_holds(got, hi * supp)


def test_threshold_projector_precondition():
    with pytest.raises(ValidationError):
        tf.eigenvalue_threshold_projector(oracle_for(maximally_mixed(2)), 0.01, 0.1)


@pytest.mark.parametrize("dim, rank, seed", [(8, 3, 23), (4, 4, 11)],
                         ids=["8x8-rank-3", "4x4-rank-4"])
def test_declared_bounds_are_consistent_with_measured_deviation(dim, rank, seed):
    rho = floored_spectrum_state(dim, rank, np.random.default_rng(seed), floor=0.1)
    out = tf.positive_power_density(oracle_for(rho), 0.5, 0.02, 1e-3)
    # the closed-form tail delta / 4 gives the value the parent's 2001-point
    # grid sup of x f(x)^2 on [0, delta] gave
    assert out.declared_error == pytest.approx(0.707865583740502, rel=1e-15)
    assert out.scale == pytest.approx(28.284271247461902, rel=1e-15)
    target = matrix_function(rho, lambda w: np.where(w > 0, w, 0.0) ** 0.5, clamp=True)
    measured = spectral_norm(out.scale * out.encoded.matrix - target)
    assert measured <= out.declared_error


def test_positive_power_density_c_near_one_sanity():
    # scaled output trace within 5% of tr(A) when all eigenvalues exceed 2 delta
    rng = np.random.default_rng(29)
    rho = floored_spectrum_state(8, 3, rng, floor=0.1)
    out = tf.positive_power_density(oracle_for(rho), 0.99, 0.02, 1e-2)
    got = out.scale * out.encoded.trace
    assert abs(got - 1.0) <= 0.05


# -- named transforms own their polynomial families ---------------------------

#: each named transform at two parameter points (its arguments after its
#: input), and whether its input is an oracle or a block-encoding
NAMED_TRANSFORMS = [
    (tf.positive_power_density, "oracle", (0.5, 0.05, 0.01)),
    (tf.positive_power_density, "oracle", (0.25, 0.02, 1e-3)),
    (tf.positive_power_unitary, "encoding", (0.5, 0.05, 0.01)),
    (tf.positive_power_unitary, "encoding", (0.75, 0.02, 1e-3)),
    (tf.eigenvalue_threshold_projector, "oracle", (0.05, 0.01)),
    (tf.eigenvalue_threshold_projector, "oracle", (0.02, 1e-3)),
    (tf.neglog_density, "oracle", (0.05, 0.01)),
    (tf.neglog_density, "oracle", (0.01, 1.5e-3)),
]


@pytest.mark.parametrize("transform, kind, params", NAMED_TRANSFORMS,
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_named_transform_formula_sums_its_recorded_factors(transform, kind, params):
    # the formula degree a ledger charges is the families' formula at the
    # factors the transform certified and recorded
    oracle = oracle_for(floored_spectrum_state(4, 2, np.random.default_rng(5), floor=0.1))
    out = transform(oracle if kind == "oracle" else enc.block_encode_density(oracle), *params)
    factors = out.step.params["factors"]
    assert factors == transform.factors(*params)
    assert transform.formula(*params) == sum(pa.FAMILIES[p.family].formula(**p.params)
                                             for p in factors)
    # a tracer that wraps the transform keeps its families
    wrapped = functools.wraps(transform)(lambda *args: transform(*args))
    assert wrapped.formula(*params) == transform.formula(*params)
