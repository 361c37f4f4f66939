import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import chebval as clenshaw

from blockenc import polyapprox as pa
from blockenc import resources
from blockenc.numerics import ValidationError


def grid_error(poly, target, lo, hi, n=10001):
    x = np.linspace(lo, hi, n)
    return float(np.abs(poly(x) - target(x)).max())


# -- positive powers ----------------------------------------------------------

def test_positive_power_value_at_one():
    p = pa.approx_positive_power(0.5, 0.1, 0.01)
    assert 0.49 <= p(1.0) <= 0.51


def test_positive_power_grid_certificate():
    p = pa.approx_positive_power(0.5, 0.1, 0.01)
    assert grid_error(p, lambda x: 0.5 * np.sqrt(x), 0.1, 1.0) <= 0.01
    assert p.certified_error <= 0.01
    assert p.global_bound <= 1.0 + 1e-9


def test_positive_power_even_symmetry():
    p = pa.approx_positive_power(0.3, 0.1, 0.01)
    x = np.linspace(0.0, 1.0, 512)
    assert np.allclose(p(-x), p(x), atol=1e-12)
    assert np.all(p.coefficients[1::2] == 0.0)


def test_positive_power_parameter_validation():
    with pytest.raises(ValidationError):
        pa.approx_positive_power(1.5, 0.1, 0.01)
    with pytest.raises(ValidationError):
        pa.approx_positive_power(0.5, 0.6, 0.01)


# -- negative powers ----------------------------------------------------------

def test_negative_power_values():
    p = pa.approx_negative_power(0.5, 0.1, 0.01)
    # f(delta) = 1/2 and f(1) = delta^c / 2
    assert 0.49 <= p(0.1) <= 0.51
    assert abs(p(1.0) - np.sqrt(0.1) / 2.0) <= 0.01
    assert abs(np.sqrt(0.1) / 2.0 - 0.15811) < 1e-4


def test_negative_power_global_bound():
    p = pa.approx_negative_power(0.5, 0.1, 0.01)
    x = np.linspace(-1, 1, 20001)
    assert np.abs(p(x)).max() <= 1.0 + 1e-9


# -- threshold and indicator families ----------------------------------------

def test_threshold_band_values():
    p = pa.approx_threshold(0.5, 0.05, 0.01)
    assert p(0.0) >= 0.99
    assert p(0.55) <= 0.01
    inside = np.linspace(-0.45, 0.45, 2001)
    outside = np.concatenate([np.linspace(-1, -0.55, 801), np.linspace(0.55, 1, 801)])
    assert p(inside).min() >= 0.99
    assert np.abs(p(outside)).max() <= 0.01


def test_threshold_invalid_band():
    with pytest.raises(ValidationError):
        pa.approx_threshold(0.99, 0.05, 0.01)


def test_support_indicator_bands():
    r = pa.approx_support_indicator(0.1, 0.01)
    assert r(0.05) <= 0.01
    assert r(0.3) >= 0.99
    assert r(0.0) <= 0.01
    keep = np.linspace(0.2, 1.0, 1501)
    kill = np.linspace(-0.1, 0.1, 501)
    assert r(keep).min() >= 0.99 and r(keep).max() <= 1.0 + 1e-9
    assert np.abs(r(kill)).max() <= 0.01


def test_interior_indicator_bands():
    r = pa.approx_interior_indicator(0.1, 0.01)
    assert r(0.0) >= 0.99
    assert r(1.0) <= 0.01
    assert r(np.linspace(-0.8, 0.8, 1001)).min() >= 0.99
    assert np.abs(r(np.linspace(0.9, 1.0, 301))).max() <= 0.01


# -- sqrt(-ln x) --------------------------------------------------------------

def test_sqrt_neglog_left_edge_is_half():
    p = pa.approx_sqrt_neglog(0.1, 0.01)
    assert abs(p(0.1) - 0.5) <= 0.01


def test_sqrt_neglog_right_edge_value():
    # f(0.9) = sqrt(ln(10/9)) / (2 sqrt(ln 10))
    expected = math.sqrt(-math.log(0.9)) / (2.0 * math.sqrt(math.log(10.0)))
    assert abs(expected - 0.106955) < 1e-5
    p = pa.approx_sqrt_neglog(0.1, 0.01)
    assert abs(p(0.9) - expected) <= 0.01


def test_sqrt_neglog_grid_certificate():
    p = pa.approx_sqrt_neglog(0.1, 0.01)
    target = lambda x: np.sqrt(-np.log(x)) / (2.0 * np.sqrt(np.log(10.0)))
    assert grid_error(p, target, 0.1, 0.9) <= 0.01
    assert p.global_bound <= 1.0 + 1e-9


# -- generic Taylor route -----------------------------------------------------

def test_taylor_constant_is_degree_zero():
    p = pa.approx_taylor(np.array([0.5]), 0.0, 1.0, 1.0, 0.5, 0.01)
    assert p.degree == 0
    assert abs(p(0.3) - 0.5) < 1e-12


def test_taylor_exponential_window():
    coeffs = np.array([1.0 / (4.0 * math.factorial(k)) for k in range(30)])
    p = pa.approx_taylor(coeffs, 0.0, 0.5, 0.1, math.exp(0.6) / 4.0, 0.01,
                         target=lambda x: np.exp(x) / 4.0)
    assert grid_error(p, lambda x: np.exp(x) / 4.0, -0.5, 0.5, 2001) <= 0.01
    outside = np.concatenate([np.linspace(-1, -0.66, 301), np.linspace(0.66, 1, 301)])
    assert np.abs(p(outside)).max() <= 0.01
    assert p.global_bound <= 0.5 + 1e-9


def test_taylor_interval_past_the_domain_is_refused():
    # the interval grid is checked before any rung streams it through the
    # kernel, whose node lookup would otherwise index past its spectra
    with pytest.raises(ValidationError, match=r"evaluated outside \[-1, 1\]"):
        pa.approx_taylor(np.array([0.1, 0.2]), 0.8, 0.5, 0.1, 0.3, 0.01)


def test_non_finite_target_sample_is_refused_before_the_ladder():
    # a nan maximum once passed both certificate comparisons: this returned a
    # degree-105 polynomial with certified_error nan
    def target(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.4, np.nan, 0.1 + 0.5 * x + 0.2 * x ** 2)

    with pytest.raises(ValidationError, match="the taylor target is not finite"):
        pa.approx_taylor(np.array([0.1, 0.5, 0.2]), 0.0, 0.5, 0.2, 0.3, 0.01, target=target)


def test_taylor_rejects_oversized_bound():
    with pytest.raises(ValidationError):
        pa.approx_taylor(np.array([2.0]), 0.0, 0.5, 0.1, 2.0, 0.01)
    # a target whose sup exceeds the parity-free limit fails certification
    with pytest.raises(pa.CertificationError):
        pa.approx_taylor(np.array([0.9]), 0.0, 0.5, 0.1, 0.9, 0.01)


# -- cross-family invariants --------------------------------------------------

def test_constructor_certifies_all_criterion_parameters():
    for delta in (0.1, 0.05):
        for eps in (1e-2, 1e-3):
            for build, target, lo, hi in [
                (lambda: pa.approx_positive_power(0.5, delta, eps),
                 lambda x: 0.5 * x ** 0.5, delta, 1.0),
                (lambda: pa.approx_negative_power(0.5, delta, eps),
                 lambda x: (delta ** 0.5 / 2.0) * x ** -0.5, delta, 1.0),
                (lambda: pa.approx_sqrt_neglog(delta, eps),
                 lambda x: np.sqrt(-np.log(x)) / (2 * np.sqrt(np.log(1 / delta))),
                 delta, 1.0 - delta),
            ]:
                poly = build()
                assert grid_error(poly, target, lo, hi) <= eps
                assert poly.global_bound <= poly.bound_limit + 1e-9


def test_degree_growth_halving_delta_at_most_doubles_plus_constant():
    eps = 1e-2
    degrees = [pa.approx_negative_power(0.5, d, eps).degree for d in (0.2, 0.1, 0.05)]
    for small, big in zip(degrees, degrees[1:]):
        assert big <= 2 * small + 256
    assert degrees == sorted(degrees)


def test_evaluation_matches_compensated_monomial_summation():
    p = pa.approx_positive_power(0.5, 0.25, 0.25)
    assert p.degree <= 50
    mono = np.polynomial.chebyshev.cheb2poly(p.coefficients)
    xs = np.linspace(-1, 1, 10001)
    direct = p(xs)
    for x, d in zip(xs[::397], direct[::397]):
        terms = [float(c) * x ** k for k, c in enumerate(mono)]
        assert abs(math.fsum(terms) - d) < 1e-7


#: each family's formula degree at three points, as the ledgers and the degree
#: ladder have read it since the formulas were introduced
FORMULA_DEGREES = [
    ("pos-power", (0.5, 0.02, 1e-3), 1382),
    ("pos-power", (0.3, 0.1, 0.01), 185),
    ("pos-power", (0.9, 0.5, 0.5), 6),
    ("neg-power", (0.5, 4e-3, 1e-3), 10362),
    ("neg-power", (0.25, 0.02, 1e-3), 1727),
    ("neg-power", (3.0, 0.1, 0.01), 737),
    ("threshold", (0.5, 0.01, 5e-4), 3041),
    ("threshold", (0.5, 0.05, 0.01), 369),
    ("threshold", (0.3, 0.2, 0.25), 28),
    ("support-indicator", (0.01, 1e-3), 2764),
    ("support-indicator", (0.05, 0.01), 369),
    ("support-indicator", (0.25, 0.25), 23),
    ("interior-indicator", (0.01, 1.5e-3), 2601),
    ("interior-indicator", (0.05, 0.01), 369),
    ("interior-indicator", (0.25, 0.25), 23),
    ("sqrt-neglog", (0.01, 1.5e-3), 4443),
    ("sqrt-neglog", (0.1, 0.01), 277),
    ("sqrt-neglog", (0.25, 0.25), 45),
]


@pytest.mark.parametrize("family, args, degree", FORMULA_DEGREES)
def test_formula_degree_of_each_family(family, args, degree):
    record = pa.FAMILIES[family]
    assert getattr(pa, record.constructor).formula(*args) == record.formula(*args) == degree
    # the reader by family name, at delta (delta'), epsilon and c
    c = args[0] if len(args) == 3 else 0.0
    assert resources.degree_formula(family, *args[-2:], c) == degree


def test_every_family_is_in_the_table():
    assert sorted(r.constructor for r in pa.FAMILIES.values()) == sorted(
        name for name in vars(pa) if name.startswith("approx_") and name != "approx_taylor")


def test_certification_failure_is_reported():
    with pytest.raises(pa.CertificationError):
        pa.approx_negative_power(3.0, 0.002, 1e-3)


def test_indicator_band_failure_raises_with_the_band_details():
    # a constant surrogate meets the one band and misses the zero band
    # at every rung, so only the band check can reject it
    with pytest.raises(pa.CertificationError) as failure:
        pa._build("threshold", {"t": 0.5, "delta": 0.1, "epsilon": 0.01}, 0.01, 1.0, "even",
                  pa.approx_threshold.formula(0.5, 0.1, 0.01),
                  *pa._indicator(0.01, np.ones_like, (0.0, 0.4), (0.6, 1.0)))
    achieved = failure.value.achieved
    assert achieved["degree"] == pa.DEGREE_CAP
    assert achieved["interval_error"] < 1e-12
    assert achieved["one_band_min"] == pytest.approx(1.0, abs=1e-12)
    assert achieved["one_band_max"] == pytest.approx(1.0, abs=1e-12)
    assert achieved["zero_band_max"] == pytest.approx(1.0, abs=1e-12)


def test_erf_matches_math_erf_bit_for_bit():
    # _erf skips math.erf where |x| >= 6, where it rounds to +-1.0 anyway
    x = np.concatenate([np.linspace(-40.0, 40.0, 160001), np.linspace(5.8, 6.2, 40001),
                        np.linspace(-6.2, -5.8, 40001),
                        [0.0, -0.0, 5.92, np.nextafter(6.0, 0.0), 6.0, -6.0,
                         np.inf, -np.inf, np.nan]])
    want = np.array([math.erf(v) for v in x])
    got = pa._erf(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert pa._erf(x[:6].reshape(2, 3)).tolist() == want[:6].reshape(2, 3).tolist()
    assert pa._erf(0.5).shape == () and pa._erf(0.5) == math.erf(0.5)


# -- the evaluation kernel ----------------------------------------------------
# numpy's Clenshaw recurrence is the independent reference; src/ does not use it.
# On arbitrary series it runs in extended precision: in double precision its
# own error near +-1 grows like degree^2 * eps and, for flat coefficients at
# the degree cap, exceeds the tolerance below (measured against a 40-digit
# sum).  The certified families' coefficients decay, and double precision
# stays two orders of magnitude inside the tolerance on their grids.

ITEM_3_POINTS = [  # the ROADMAP item 3 parameter points and their realized degrees
    (pa.approx_sqrt_neglog, (0.01, 1.5e-3), 4442),
    (pa.approx_interior_indicator, (0.01, 1.5e-3), 896),
    (pa.approx_threshold, (0.5, 0.01, 5e-4), 2230),
    (pa.approx_negative_power, (0.5, 4e-3, 1e-3), 6048),
    (pa.approx_positive_power, (0.5, 0.02, 1e-3), 1382),
    (pa.approx_support_indicator, (0.01, 1e-3), 2764),
]


#: (certified_error, global_bound) at each ITEM_3_POINTS entry.  The global
#: bound is a sampled maximum and is pinned relatively.  The certified error
#: is a maximum of |P(x) - f(x)| with P(x) of order one, so a kernel's
#: rounding moves it by a few units of 1e-16 whatever its size: the baby-step
#: and the FFT kernels differ by up to 4.2e-15 here (1.4e-10 relative at
#: 8e-7), so it also gets an absolute 1e-14.
PINNED_CERTIFICATES = {
    "approx_sqrt_neglog": (0.0003650667781560646, 0.6050994483284305),
    "approx_interior_indicator": (0.00037500000098644737, 0.9999999999989999),
    "approx_threshold": (0.0001250000011338015, 0.9999999999989999),
    "approx_negative_power": (0.00013279231416812864, 0.875497331132386),
    "approx_positive_power": (8.006193658038896e-07, 0.5000006833716982),
    "approx_support_indicator": (0.00027023498636857823, 0.9999999999989999),
}


@st.composite
def chebyshev_series(draw):
    degree = draw(st.one_of(st.integers(0, 16), st.integers(0, pa.DEGREE_CAP),
                            st.just(pa.DEGREE_CAP)))
    parity = draw(st.sampled_from(["even", "odd", "none"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    decay = draw(st.sampled_from([0.0, 1.0, 2.0]))
    c = rng.uniform(-1.0, 1.0, degree + 1) / (1.0 + np.arange(degree + 1)) ** decay
    return pa._apply_parity(c, parity)


points = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                   st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def evaluation_points(draw, terms):
    """Points of every shape.  "many" draws at least ``terms`` points (the
    series' coefficient count), so the kernel's many-point regime runs; the
    other shapes hold at most 18 points."""
    shape = draw(st.sampled_from(["scalar", "0-d", "empty", "1-d", "2-d", "many"]))
    if shape == "scalar":
        return draw(points)
    if shape == "0-d":
        return np.array(draw(points))
    if shape == "empty":
        return np.empty((0,))
    if shape == "many":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        count = draw(st.integers(terms, terms + 64))
        head = draw(st.lists(points, max_size=8))
        return np.concatenate([head, rng.uniform(-1.0, 1.0, count)])
    rows = draw(st.integers(1, 3)) if shape == "2-d" else 1
    flat = draw(st.lists(points, min_size=rows, max_size=6 * rows))
    flat = flat[: len(flat) - len(flat) % rows]
    return np.array(flat).reshape(rows, -1) if shape == "2-d" else np.array(flat)


@st.composite
def series_and_points(draw):
    c = draw(chebyshev_series())
    return c, draw(evaluation_points(c.size))


def assert_matches_clenshaw(x, c, compared=slice(None)):
    """The kernel on all of x against the reference on the ``compared`` points."""
    got = pa._chebval(x, c)
    assert np.shape(got) == np.shape(x)
    flat = np.ravel(x)[compared]
    want = clenshaw(flat.astype(np.longdouble), c.astype(np.longdouble))
    assert np.all(np.abs(np.ravel(got)[compared] - want)
                  <= 1e-12 * max(1.0, float(np.abs(c).sum())))


@settings(max_examples=80, deadline=None)
@given(series_and_points())
def test_kernel_matches_clenshaw(case):
    c, x = case
    # the reference costs points x terms in extended precision, so a "many"
    # set is compared on its drawn head and 256 points spread over the rest
    size = np.size(x)
    compared = (slice(None) if size <= 264 else
                np.r_[0:8, np.linspace(8, size - 1, 256).astype(int)])
    assert_matches_clenshaw(x, c, compared)


@pytest.mark.parametrize("parity", ["even", "odd", "none"])
def test_kernel_matches_clenshaw_at_the_cap_on_fft_nodes_and_midpoints(parity):
    # the many-point regime samples the series at psi_j = 2 pi j / n_f and
    # expands about the nearest one; midpoints are the largest offsets.  An
    # even series is a series in psi = 2 arccos|x| with top frequency 4096
    # (n_f = 2^14); odd and parity-free ones run as parity-free series in
    # psi = arccos x with top frequency 8192 (n_f = 2^15).
    c = pa._apply_parity(np.random.default_rng(1).uniform(-1.0, 1.0, pa.DEGREE_CAP + 1),
                         parity)
    top = c[0::2].size - 1 if parity == "even" else c.size - 1
    nodes = pa._fft_nodes(top)
    assert nodes == (2 ** 14 if parity == "even" else 2 ** 15)
    angle = 2.0 * np.pi / nodes * np.arange(0.0, nodes / 2 + 1, 0.5)   # nodes and midpoints
    x = np.cos(angle / 2.0) if parity == "even" else np.cos(angle)
    if parity == "even":
        x = np.concatenate([x, -x])
    picked = x[np.linspace(0, x.size - 1, pa.GRID_POINTS - 3).astype(int)]
    x = np.concatenate([[-1.0, 0.0, 1.0], picked])
    assert x.size == pa.GRID_POINTS
    assert_matches_clenshaw(x, c)


@pytest.mark.parametrize("terms, nodes", [(1, 4), (2, 4), (3, 8), (4, 8), (1116, 4096),
                                          (4097, 16384), (8193, 32768)])
def test_one_packed_rfft_carries_two_taylor_rows(terms, nodes):
    # the real part of row l and the imaginary part of row l + 1 from one
    # real FFT; the rows hold T terms and 2T - 1 <= n_f
    rng = np.random.default_rng(terms)
    even, odd = rng.uniform(-1.0, 1.0, (2, terms))
    packed = np.fft.rfft(pa._pack(even, odd, np.zeros(nodes)))
    tol = 1e-15 * (np.abs(even).sum() + np.abs(odd).sum())
    assert np.abs(packed.real - np.fft.rfft(even, nodes).real).max() <= tol
    assert np.abs(packed.imag - np.fft.rfft(odd, nodes).imag).max() <= tol


@pytest.mark.parametrize("seed, terms, decay", [(0, 1, 0.0), (1, 2, 0.0), (2, 1116, 1.0),
                                                 (3, 4097, 2.0), (4, 8193, 0.0),
                                                 (5, 8193, 3.0)])
@pytest.mark.parametrize("reach", [0.1, math.pi / 8, math.pi / 4])
def test_taylor_order_is_the_smallest_meeting_the_weighted_bound(seed, terms, decay, reach):
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, terms) / (1.0 + np.arange(terms)) ** decay
    weight = np.arange(terms) / max(terms - 1, 1)

    def remainder(order):   # reach^L / L! sum_k |a_k| (k/K)^L
        return reach ** order / math.factorial(order) * np.sum(np.abs(a) * weight ** order)

    order, rows = pa._taylor_rows(a, reach)
    limit = pa._FFT_TAIL * np.abs(a).sum()
    assert remainder(order) <= limit
    assert all(remainder(smaller) > limit for smaller in range(1, order))
    assert len(rows) == order + order % 2
    for l, row in enumerate(rows):
        assert np.allclose(row, a * weight ** l / math.factorial(l), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 635, 4562, 8192, 8193])
def test_dct2_matches_the_even_extension_formula(n):
    # |y_k| <= 2 sum |x_j|, so the tolerance is relative to sum |x_j|
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    want = (np.fft.rfft(np.concatenate([x, x[::-1]]))[:n]
            * np.exp(-0.5j * np.pi * np.arange(n) / n)).real
    got = pa._dct2(x)
    assert got.shape == (n,)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(x).sum()


@pytest.mark.parametrize("build, args, degree", ITEM_3_POINTS)
def test_kernel_matches_clenshaw_on_certificate_grids(build, args, degree):
    p = pa.certified(build, *args)
    assert p.degree == degree
    certified_error, global_bound = PINNED_CERTIFICATES[build.__name__]
    assert p.certified_error == pytest.approx(certified_error, rel=1e-12, abs=1e-14)
    assert p.global_bound == pytest.approx(global_bound, rel=1e-12)
    tol = 1e-12 * max(1.0, float(np.abs(p.coefficients).sum()))
    for grid in (np.concatenate(pa._global_grid(p.degree)),
                 np.linspace(*p.certified_interval, pa.GRID_POINTS)):
        assert np.abs(p(grid) - clenshaw(grid, p.coefficients)).max() <= tol


@pytest.mark.parametrize("build, args, degree", ITEM_3_POINTS)
def test_even_global_bound_is_the_maximum_over_the_full_global_grid(build, args, degree):
    # an even series is certified on every |x| of the global grid, which the
    # kernel evaluates exactly as it does the signed points
    p = pa.certified(build, *args)
    assert p.parity == "even"
    full = np.concatenate(pa._global_grid(p.degree))
    half = np.concatenate(pa._global_grid(p.degree, even=True))
    assert np.array_equal(np.unique(half), np.unique(np.abs(full)))
    assert np.abs(p(full)).max() == np.abs(p(half)).max()
    assert np.abs(p(full)).max() == pytest.approx(p.global_bound, rel=1e-15)


def _polynomial(parity, degree=301, seed=0):
    c = pa._apply_parity(np.random.default_rng(seed).uniform(-1.0, 1.0, degree + 1),
                         parity)
    return pa.CertifiedPolynomial(
        coefficients=c, parity=parity, target=None, certified_interval=(-1.0, 1.0),
        certified_error=0.0, global_bound=1.0, bound_limit=1.0)


@pytest.mark.parametrize("parity", ["even", "odd", "none"])
@pytest.mark.parametrize("points", [1, 4, 8])
def test_polynomial_call_matches_the_kernel_on_its_coefficients(parity, points):
    # a polynomial evaluates from the parity split it keeps; the kernel
    # splits the raw coefficients on each call
    p = _polynomial(parity)
    x = np.linspace(-0.95, 0.9, points)
    tol = 1e-12 * max(1.0, float(np.abs(p.coefficients).sum()))
    for _ in range(2):            # the second call reads the kept split
        assert np.abs(p(x) - pa._chebval(x, p.coefficients)).max() <= tol
        assert np.abs(p(x) - clenshaw(x, p.coefficients)).max() <= tol


@pytest.mark.parametrize("parity", ["even", "odd", "none"])
def test_a_replaced_polynomial_evaluates_its_own_coefficients(parity):
    p = _polynomial(parity)
    x = np.array([-0.3, 0.1, 0.7])
    before = p(x)
    q = dataclasses.replace(p, coefficients=0.5 * p.coefficients)
    assert np.abs(q(x) - 0.5 * before).max() <= 1e-12 * np.abs(p.coefficients).sum()
    assert np.array_equal(p(x), before)


def _kernel_peak(c, x):
    tracemalloc.start()
    try:
        pa._chebval(x, c)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("parity", ["even", "odd", "none"])
def test_kernel_blocks_do_not_move_a_bit(parity):
    # every many-point reduction is elementwise, so a grid evaluated whole and
    # split off the block boundaries gives the same bits
    c = _polynomial(parity, degree=2001).coefficients
    x = np.linspace(-1.0, 1.0, pa.GRID_POINTS)
    cut = pa._BLOCK + 1001
    assert cut % pa._BLOCK and min(cut, x.size - cut) >= c.size
    whole = pa._chebval(x, c)
    assert np.array_equal(whole, np.concatenate([pa._chebval(x[:cut], c),
                                                 pa._chebval(x[cut:], c)]))


def test_streamed_maximum_keeps_a_nan():
    # Python's max(0.0, nan) is 0.0; the streamed reduction must not drop it
    x = np.linspace(-1.0, 1.0, pa.GRID_POINTS)
    plan = pa._plan(pa._parity_split(_polynomial("none").coefficients))
    f = np.zeros(x.size)
    f[-1] = np.nan
    assert math.isnan(pa._peak(plan, x, f=f))
    assert math.isfinite(pa._peak(plan, x))


def test_build_memory_is_bounded_by_its_blocks():
    # a rung streams its grids through the kernel in blocks and forms no
    # array of the concatenated grids; unstreamed this build peaked at 2.79 MiB
    tracemalloc.start()
    try:
        p = pa.approx_support_indicator(0.01, 5e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.degree > 0
    assert peak < 2.25 * 2 ** 20


def test_kernel_memory_is_bounded_by_its_chunk():
    # 10001 points and 8193 terms run the many-point regime; unchunked, the
    # baby-step/giant-step tables alone would take 10001 x 91 x 16 B x 2 = 29 MB
    c = np.random.default_rng(0).uniform(-1.0, 1.0, pa.DEGREE_CAP + 1)
    assert _kernel_peak(c, np.linspace(-1.0, 1.0, pa.GRID_POINTS)) < 8 * 2 ** 20


def test_kernel_memory_is_bounded_for_an_even_series_at_the_cap():
    c = pa._apply_parity(np.random.default_rng(0).uniform(-1.0, 1.0, pa.DEGREE_CAP + 1),
                         "even")
    assert _kernel_peak(c, np.linspace(-1.0, 1.0, pa.GRID_POINTS)) < 8 * 2 ** 20


def test_mixture_surrogate_memory_is_bounded_by_its_chunk():
    # a degree-cap build samples the Gaussian mixture at 8193 fit nodes and
    # 49 quadrature nodes; unchunked, the outer product and its exponential
    # take 2 x 8193 x 49 x 8 B = 6.1 MiB
    tracemalloc.start()
    try:
        p = pa.approx_negative_power(0.25, 4e-3, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.degree == pa.DEGREE_CAP
    assert peak < 3 * 2 ** 20


#: Evaluates series with a non-finite coefficient in both regimes and
#: prints each refusal.
NON_FINITE_SCRIPT = """
import numpy as np
from blockenc import polyapprox as pa
from blockenc.numerics import ValidationError
x = np.linspace(-1.0, 1.0, pa.GRID_POINTS)
for c in ([1.0, np.nan, 0.5], [np.nan], [0.5, 0.0, np.inf]):
    for points in (x, x[:1]):
        try:
            pa._chebval(points, np.array(c))
        except ValidationError as exc:
            print(exc)
"""


def test_kernel_refuses_a_non_finite_series():
    # the many-point regime's order loop never met its stop test on a nan sum
    # and appended rows without end; the timeout turns such a hang into a failure
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", NON_FINITE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["Chebyshev series has a non-finite coefficient"] * 6


def test_kernel_domain_clamps_rounding_and_rejects_the_rest():
    p = pa.approx_positive_power(0.5, 0.1, 0.01)
    assert p(1.0 + 1e-13) == p(1.0)
    assert p(-1.0 - 1e-13) == p(-1.0)
    for bad in (1.0 + 1e-9, -1.5, np.nan):
        with pytest.raises(ValidationError):
            p(np.array([0.5, bad]))
