"""Certified Chebyshev approximants for the transform layer.

Each constructor targets one scalar function family (positive and negative
powers, threshold projectors, support/interior indicators, the scaled
sqrt(-ln x)), builds a smooth surrogate that is cheap to sample, projects it
onto the Chebyshev basis by discrete cosine quadrature, and then certifies
the result on a dense grid: sup error against the target on the certified
interval, the global bound on [-1, 1], and any band conditions.  Degrees
start at four times the family's asymptotic formula and double until the
certificate passes or the degree cap is hit; a failed certificate is always
a raised error, never a silent pass.

Every evaluation, on a polynomial's call and on the certificate grids, goes
through one kernel, ``_chebval``.  With theta = arccos x, T_k(x) =
Re e^{ik theta}.  The k that the coefficients' parity leaves (all k, or
every other k from 0 or from 1, on the angle 2 theta) are split as
k = s + t (a m + b) with m ~ sqrt(number of terms).  A baby table
e^{i(s + t b) theta} and a giant table e^{i t m a theta} are geometric
sequences, each filled by doubling; one real matrix product folds the
coefficients into the baby table, and a dot product over the giant index
finishes the sum.  This is the baby-step/giant-step split of Paterson and
Stockmeyer (SIAM J. Comput. 1973) in angle form.  Points are processed in
blocks of ``_CHUNK``, so the tables stay near a megabyte at the degree cap
however many points are evaluated.  Points outside [-1, 1] by more than
rounding are an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from scipy.fft import dct
from scipy.special import erf, erfcinv, gammaln

from .numerics import ValidationError
from .resources import degree_formula

DEGREE_CAP = 8192
GRID_POINTS = 10001
_EXTREMA = 64
_CHUNK = 256
# |x| up to 1 + _DOMAIN_SLACK is rounding (an SVD eigenvalue of a pure state
# reads up to 1 + 7e-16) and is clamped to +-1; anything further is rejected
_DOMAIN_SLACK = 1e-12


class CertificationError(RuntimeError):
    """Grid certification failed at every degree up to the cap."""

    def __init__(self, family: str, params: dict, achieved: dict):
        self.family = family
        self.params = params
        self.achieved = achieved
        super().__init__(
            f"certification of {family} failed up to degree {DEGREE_CAP}: {achieved}")


@dataclass(frozen=True, eq=False)
class CertifiedPolynomial:
    """Chebyshev-basis polynomial with a grid-checked certificate.

    Compared and hashed by identity, so a cached polynomial can key the
    cached product built from it (see ``certified``).
    """

    coefficients: np.ndarray
    parity: str                      # "even" | "odd" | "none"
    target: Callable[[np.ndarray], np.ndarray] | None
    certified_interval: tuple[float, float]
    certified_error: float           # measured sup |P - f| on the interval grid
    global_bound: float              # measured sup |P| on the [-1, 1] grid
    bound_limit: float               # 1.0 (even/odd) or 0.5 (no parity)
    family: str = "custom"
    params: dict = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        return _chebval(x, self.coefficients)


def _chebval(x, c: np.ndarray):
    """sum_k c_k T_k(x), shaped like x; see the module docstring."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if not np.all(np.abs(flat) <= 1.0 + _DOMAIN_SLACK):
        raise ValidationError("Chebyshev series evaluated outside [-1, 1]")
    flat = np.clip(flat, -1.0, 1.0)
    c = np.asarray(c, dtype=float)
    if not c[1::2].any():
        terms, start, step = c[0::2], 0, 2
    elif not c[0::2].any():
        terms, start, step = c[1::2], 1, 2
    else:
        terms, start, step = c, 0, 1
    m = math.isqrt(terms.size - 1) + 1
    giants = -(-terms.size // m)
    table = np.zeros(giants * m)
    table[:terms.size] = terms
    table = table.reshape(giants, m)              # table[a, b] = c_{s + t(am + b)}
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _CHUNK):
        theta = np.arccos(flat[lo:lo + _CHUNK])
        baby = _geometric(np.exp(1j * start * theta), np.exp(1j * step * theta), m)
        # conjugated, so Re(G H) is the dot product of the (re, im) pairs
        giant = _geometric(np.ones(theta.size, dtype=complex),
                           np.exp(-1j * (step * m) * theta), giants)
        inner = table @ baby.view(float)          # (re, im) of sum_b table[a, b] baby[b]
        out[lo:lo + _CHUNK] = np.einsum("ap,ap->p", giant.view(float),
                                        inner).reshape(-1, 2).sum(axis=1)
    return out.reshape(x.shape)[()]


def _geometric(first: np.ndarray, ratio: np.ndarray, count: int) -> np.ndarray:
    """Rows first * ratio^j for j < count, by doubling the filled rows."""
    out = np.empty((count, first.size), dtype=complex)
    out[0] = first
    filled = 1
    while filled < count:
        more = min(filled, count - filled)
        np.multiply(out[:more], ratio, out=out[filled:filled + more])
        filled += more
        ratio = ratio * ratio
    return out


def _global_grid(degree: int) -> np.ndarray:
    base = np.linspace(-1.0, 1.0, GRID_POINTS)
    extrema = np.cos(np.pi * np.arange(_EXTREMA) / max(degree, _EXTREMA))
    return np.concatenate([base, extrema, -extrema])


def _chebyshev_fit(func: Callable[[np.ndarray], np.ndarray], degree: int) -> np.ndarray:
    """Coefficients of the degree-d Chebyshev interpolant at first-kind nodes."""
    n = degree + 1
    nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    vals = np.asarray(func(nodes), dtype=float)
    coeffs = dct(vals, type=2) / n
    coeffs[0] /= 2.0
    return coeffs


def _apply_parity(coeffs: np.ndarray, parity: str) -> np.ndarray:
    out = coeffs.copy()
    if parity == "even":
        out[1::2] = 0.0
    elif parity == "odd":
        out[0::2] = 0.0
    return out


def _trim_tail(coeffs: np.ndarray, rel: float = 1e-14) -> np.ndarray:
    """Drop trailing coefficients at aliasing-noise level."""
    cut = rel * max(1.0, float(np.abs(coeffs).max()))
    keep = np.nonzero(np.abs(coeffs) > cut)[0]
    if keep.size == 0:
        return coeffs[:1]
    return coeffs[: keep[-1] + 1]


def _degree_ladder(start: int) -> list[int]:
    start = max(4, int(start))
    if start >= DEGREE_CAP:
        return [DEGREE_CAP]
    ladder = []
    d = start
    while d < DEGREE_CAP:
        ladder.append(d)
        d *= 2
    ladder.append(DEGREE_CAP)
    return ladder


def _build(family: str, params: dict, surrogate, target, interval: tuple[float, float],
           epsilon: float, bound_limit: float, parity: str, start_degree: int,
           extra_checks=None) -> CertifiedPolynomial:
    lo, hi = interval
    grid = np.linspace(lo, hi, GRID_POINTS)
    f_grid = np.asarray(target(grid), dtype=float)
    achieved: dict = {}
    for degree in _degree_ladder(start_degree):
        coeffs = _apply_parity(_chebyshev_fit(surrogate, degree), parity)
        coeffs = _trim_tail(coeffs)
        gg = _global_grid(degree)
        gmax = float(np.abs(_chebval(gg, coeffs)).max())
        if gmax > bound_limit:
            coeffs = coeffs * (bound_limit / (gmax * (1.0 + 1e-12)))
            gmax = float(np.abs(_chebval(gg, coeffs)).max())
        err = float(np.abs(_chebval(grid, coeffs) - f_grid).max())
        poly = CertifiedPolynomial(
            coefficients=coeffs, parity=parity, target=target,
            certified_interval=interval, certified_error=err,
            global_bound=gmax, bound_limit=bound_limit,
            family=family, params=dict(params))
        achieved = {"degree": degree, "interval_error": err, "global_max": gmax}
        if err > epsilon or gmax > bound_limit + 1e-9:
            continue
        if extra_checks is not None:
            ok, detail = extra_checks(poly)
            achieved.update(detail)
            if not ok:
                continue
        return poly
    raise CertificationError(family, dict(params), achieved)


# ---------------------------------------------------------------------------
# Smooth surrogates
# ---------------------------------------------------------------------------

def _inverse_power_quadrature(a: float, y_min: float, eps: float,
                              lam_cap: float | None = None):
    """Nodes t_j and weights w_j with sum_j w_j exp(-t_j y) ~ y^(-a).

    Log-trapezoid discretization of y^(-a) = (1/Gamma(a)) int t^(a-1) e^(-yt) dt,
    accurate to relative eps on [y_min, 1].  lam_cap limits the upper cutoff
    t_max = lam / y_min (used to keep the mixture's value at y = 0 bounded).
    """
    if a <= 0 or not 0 < y_min < 1:
        raise ValidationError("inverse-power quadrature needs a > 0, y_min in (0, 1)")
    eps = min(eps, 0.1)
    lam = np.log(4.0 / eps) + max(a, 1.0) * np.log(np.log(4.0 / eps) + 4.0) + 2.0
    if lam_cap is not None:
        lam = min(lam, lam_cap)
    # the [0, t_min] segment is integrated analytically as a node at t = 0
    # (exp(-yt) ~ 1 there up to relative y t_min); this stays well-posed for
    # arbitrarily small exponents where a t_min^(1/a) cutoff would underflow
    t_min = min(eps * 1e-4, 0.25)
    w_zero = np.exp(a * np.log(t_min) - gammaln(a + 1.0))
    h = (np.pi ** 2) / (np.log(40.0 / eps) + 4.0)

    def nodes(lam_val):
        lo, hi = np.log(t_min), np.log(lam_val / y_min)
        n = int(np.ceil((hi - lo) / h)) + 1
        u = lo + h * np.arange(n)
        u = u[u <= hi + 1e-12]
        w = h * np.exp(a * u - gammaln(a))
        w[0] *= 0.5
        w[-1] *= 0.5
        return (np.concatenate([[0.0], np.exp(u)]),
                np.concatenate([[w_zero], w]))

    t, w = nodes(lam)
    if lam_cap is not None and w.sum() > 0:
        # one correction pass so the discrete mixture value at y = 0 hits the cap
        target_sum = (lam_cap / y_min) ** a / (a * np.exp(gammaln(a)))
        excess = w.sum() / target_sum
        if excess > 1.0:
            t, w = nodes(lam / excess ** (1.0 / a))
    return t, w


def _gaussian_mixture(x: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_j w_j exp(-t_j x^2), in blocks of ``_CHUNK`` points so the
    points-by-nodes exponential table stays small."""
    y = np.atleast_1d(np.asarray(x, dtype=float)) ** 2
    out = np.empty(y.shape)
    for lo in range(0, y.size, _CHUNK):
        out[lo:lo + _CHUNK] = np.exp(-np.outer(y[lo:lo + _CHUNK], t)) @ w
    return out if np.ndim(x) else float(out[0])


def _erf_band(x: np.ndarray, center: float, k: float) -> np.ndarray:
    """Smooth even indicator of |x| <= center with transition scale 1/k."""
    return (erf(k * (center - x)) + erf(k * (center + x))) / 2.0


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _check_range(name: str, value: float, lo: float, hi: float):
    if not lo < value <= hi:
        raise ValidationError(f"{name} must be in ({lo}, {hi}], got {value}")


def approx_positive_power(c: float, delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even P with |P - x^c / 2| <= epsilon on [delta, 1] and |P| <= 1 on [-1, 1]."""
    if not 0 < c < 1:
        raise ValidationError(f"positive power exponent must be in (0, 1), got {c}")
    _check_range("delta", delta, 0.0, 0.5)
    _check_range("epsilon", epsilon, 0.0, 0.5)
    a = 1.0 - c / 2.0
    t, w = _inverse_power_quadrature(a, delta ** 2, epsilon / 2.0)

    def surrogate(x):
        return 0.5 * np.asarray(x, dtype=float) ** 2 * _gaussian_mixture(x, t, w)

    def target(x):
        return 0.5 * np.abs(x) ** c

    return _build("pos-power", {"c": c, "delta": delta, "epsilon": epsilon},
                  surrogate, target, (delta, 1.0), epsilon, 1.0, "even",
                  degree_formula("pos-power", delta, epsilon))


def approx_negative_power(c: float, delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even P with |P - (delta^c / 2) x^(-c)| <= epsilon on [delta, 1], |P| <= 1.

    For c <= 0.55 the Gaussian mixture's value at x = 0 can be held below 1 by
    capping the quadrature cutoff, so no suppression window is needed and the
    degree stays near the asymptotic formula.  Larger exponents multiply in an
    erf window below x = delta, which limits how small delta can get before
    the degree cap bites.
    """
    if c <= 0:
        raise ValidationError(f"negative power exponent must be positive, got {c}")
    _check_range("delta", delta, 0.0, 0.5)
    _check_range("epsilon", epsilon, 0.0, 0.5)
    windowless = c <= 0.55
    lam_cap = None
    if windowless:
        # (delta^c / 2) * sum(w) ~ bulge_coeff * lam^(c/2); keep it below 0.96
        bulge_coeff = (2.0 / c) / (2.0 * np.exp(gammaln(c / 2.0)))
        lam_cap = (0.96 / bulge_coeff) ** (2.0 / c)
    t, w = _inverse_power_quadrature(c / 2.0, delta ** 2, epsilon / 2.0, lam_cap)
    if windowless:
        def surrogate(x):
            return (delta ** c / 2.0) * _gaussian_mixture(x, t, w)
    else:
        width = delta / (4.0 * max(1.0, np.sqrt(c)))
        k = erfcinv(min(epsilon, 0.1) / 2.0) / width
        center = delta - 2.0 * width

        def surrogate(x):
            x = np.asarray(x, dtype=float)
            window = 1.0 - _erf_band(x, center, k)
            return (delta ** c / 2.0) * _gaussian_mixture(x, t, w) * window

    def target(x):
        return (delta ** c / 2.0) * np.abs(x) ** (-c)

    return _build("neg-power", {"c": c, "delta": delta, "epsilon": epsilon},
                  surrogate, target, (delta, 1.0), epsilon, 1.0, "even",
                  degree_formula("neg-power", delta, epsilon, c))


def approx_threshold(t: float, delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even P ~ indicator of |x| <= t: in [1-eps, 1] inside [-t+delta, t-delta],
    in [0, eps] outside [-t-delta, t+delta], |P| <= 1 globally."""
    if not (0 < epsilon < 0.5 and 0 < delta < 0.5):
        raise ValidationError("threshold needs delta, epsilon in (0, 1/2)")
    if not 0 < t - delta < t + delta < 1:
        raise ValidationError(f"band constraints violated: t={t}, delta={delta}")
    k = erfcinv(epsilon / 2.0) / delta

    def surrogate(x):
        return _erf_band(np.asarray(x, dtype=float), t, k)

    return _indicator_family("threshold", {"t": t, "delta": delta, "epsilon": epsilon},
                             surrogate, (0.0, t - delta), (t + delta, 1.0))


def _indicator_family(family, params, surrogate, one_band, zero_band):
    """Even P in [1 - epsilon, 1] on ``one_band``, its certified interval, and
    |P| <= epsilon on ``zero_band``; ``params`` names delta and epsilon."""
    delta, epsilon = params["delta"], params["epsilon"]

    def extra(poly):
        ones = poly(np.linspace(*one_band, GRID_POINTS // 4))
        zeros = np.abs(poly(np.linspace(*zero_band, GRID_POINTS // 4)))
        detail = {"one_band_min": float(ones.min()), "one_band_max": float(ones.max()),
                  "zero_band_max": float(zeros.max())}
        ok = (ones.min() >= 1.0 - epsilon and ones.max() <= 1.0 + 1e-9
              and zeros.max() <= epsilon)
        return ok, detail

    return _build(family, params, surrogate,
                  lambda x: np.ones_like(np.asarray(x, dtype=float)),
                  one_band, epsilon, 1.0, "even",
                  degree_formula(family, delta, epsilon), extra)


def approx_support_indicator(delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even R ~ 1 for |x| >= 2 delta, ~ 0 for |x| <= delta."""
    _check_range("delta", delta, 0.0, 0.25)
    _check_range("epsilon", epsilon, 0.0, 0.25)
    k = 2.0 * erfcinv(epsilon / 2.0) / delta

    def surrogate(x):
        return 1.0 - _erf_band(np.asarray(x, dtype=float), 1.5 * delta, k)

    return _indicator_family("support-indicator", {"delta": delta, "epsilon": epsilon},
                             surrogate, (2.0 * delta, 1.0), (0.0, delta))


def approx_interior_indicator(delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even R ~ 1 on [-1+2 delta, 1-2 delta], ~ 0 for |x| >= 1 - delta."""
    _check_range("delta", delta, 0.0, 0.25)
    _check_range("epsilon", epsilon, 0.0, 0.25)
    k = 2.0 * erfcinv(epsilon / 2.0) / delta

    def surrogate(x):
        return _erf_band(np.asarray(x, dtype=float), 1.0 - 1.5 * delta, k)

    return _indicator_family("interior-indicator", {"delta": delta, "epsilon": epsilon},
                             surrogate, (0.0, 1.0 - 2.0 * delta), (1.0 - delta, 1.0))


def approx_sqrt_neglog(delta_prime: float, epsilon: float) -> CertifiedPolynomial:
    """Even P ~ sqrt(-ln x) / (2 sqrt(-ln delta')) on [delta', 1 - delta'], |P| <= 1."""
    _check_range("delta_prime", delta_prime, 0.0, 0.25)
    _check_range("epsilon", epsilon, 0.0, 0.25)
    big_l = np.log(1.0 / delta_prime)
    s = delta_prime * min(0.5, np.sqrt(2.0 * big_l * epsilon))
    margin = min(epsilon * np.sqrt(delta_prime * big_l), 0.05)

    def surrogate(x):
        x = np.asarray(x, dtype=float)
        u = -0.5 * np.log((x ** 2 + s ** 2) / (1.0 + s ** 2 + margin))
        return np.sqrt(np.maximum(u, 0.0)) / (2.0 * np.sqrt(big_l))

    def target(x):
        return np.sqrt(-np.log(np.asarray(x, dtype=float))) / (2.0 * np.sqrt(big_l))

    return _build("sqrt-neglog", {"delta_prime": delta_prime, "epsilon": epsilon},
                  surrogate, target, (delta_prime, 1.0 - delta_prime),
                  epsilon, 1.0, "even", degree_formula("sqrt-neglog", delta_prime, epsilon))


def approx_taylor(series: np.ndarray, x0: float, r: float, delta: float,
                  bound: float, epsilon: float,
                  target: Callable[[np.ndarray], np.ndarray] | None = None) -> CertifiedPolynomial:
    """Windowed Taylor approximant of f(x0 + u) = sum_k a_k u^k.

    Certifies |P - f| <= epsilon on [x0 - r, x0 + r], |P| <= epsilon outside the
    delta/2-widened window, and the global bound min(epsilon + bound, 1/2).
    Suited to targets with moderate coefficient mass (bound + epsilon <= 1/2);
    steep targets go through the dedicated family constructors instead.
    """
    a = np.asarray(series, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValidationError("series must be a nonempty 1-D coefficient array")
    if not (0 < r <= 2 and 0 < delta <= r):
        raise ValidationError("need 0 < r <= 2 and 0 < delta <= r")
    if bound + epsilon > 1.0 + 1e-12:
        raise ValidationError("coefficient bound too large for a parity-free polynomial")
    radii = (r + delta / 2.0) ** np.arange(a.size)
    tails = np.cumsum(np.abs(a[::-1] * radii[::-1]))[::-1]
    tail_after = np.concatenate([tails[1:], [0.0]])
    usable = np.nonzero(tail_after <= epsilon / 4.0)[0]
    if usable.size == 0:
        raise ValidationError("series too short for the requested accuracy")
    trunc = a[: int(usable[0]) + 1]

    def t_poly(x):
        return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float) - x0, trunc)

    windowed = (x0 - r - delta / 2.0 > -1.0) or (x0 + r + delta / 2.0 < 1.0)
    if windowed:
        t_max = float(np.abs(t_poly(np.linspace(-1, 1, 2001))).max())
        suppress = max(epsilon / (4.0 * max(t_max, 1.0)), 1e-300)
        k = erfcinv(suppress) * 4.0 / delta

        def surrogate(x):
            x = np.asarray(x, dtype=float)
            return t_poly(x) * _erf_band(x - x0, r + delta / 4.0, k)
    else:
        surrogate = t_poly

    if target is None:
        def target(x):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float) - x0, a)

    def extra(poly):
        lo_out = np.linspace(-1.0, x0 - r - delta / 2.0, 512) if x0 - r - delta / 2.0 > -1 else None
        hi_out = np.linspace(x0 + r + delta / 2.0, 1.0, 512) if x0 + r + delta / 2.0 < 1 else None
        worst = 0.0
        for band in (lo_out, hi_out):
            if band is not None:
                worst = max(worst, float(np.abs(poly(band)).max()))
        return worst <= epsilon, {"outside_max": worst}

    start = 4.0 / delta * np.log(max(bound, 1.0) / epsilon) + 4 * len(trunc)
    return _build("taylor", {"x0": x0, "r": r, "delta": delta, "bound": bound,
                             "epsilon": epsilon},
                  surrogate, target, (x0 - r, x0 + r), epsilon,
                  0.5, "none", int(start) + 1, extra)


def multiply(p: CertifiedPolynomial, q: CertifiedPolynomial,
             target: Callable[[np.ndarray], np.ndarray] | None = None) -> CertifiedPolynomial:
    """Exact Chebyshev product; certificate measured against target (default f_p f_q)
    on the intersection of the two certified intervals."""
    coeffs = _cheb.chebmul(p.coefficients, q.coefficients)
    parities = {p.parity, q.parity}
    if parities == {"even"} or parities == {"odd"}:
        parity = "even"
    elif parities == {"even", "odd"}:
        parity = "odd"
    else:
        parity = "none"
    coeffs = _apply_parity(coeffs, parity)
    lo = max(p.certified_interval[0], q.certified_interval[0])
    hi = min(p.certified_interval[1], q.certified_interval[1])
    if lo >= hi:
        raise ValidationError("certified intervals do not overlap")
    if target is None and p.target is not None and q.target is not None:
        pt, qt = p.target, q.target
        def target(x):
            return np.asarray(pt(x)) * np.asarray(qt(x))
    grid = np.linspace(lo, hi, GRID_POINTS)
    vals = _chebval(grid, coeffs)
    err = float(np.abs(vals - target(grid)).max()) if target is not None else 0.0
    gmax = float(np.abs(_chebval(_global_grid(len(coeffs) - 1), coeffs)).max())
    return CertifiedPolynomial(
        coefficients=coeffs, parity=parity, target=target,
        certified_interval=(lo, hi), certified_error=err,
        global_bound=gmax, bound_limit=1.0 if parity != "none" else 0.5,
        family=f"product({p.family},{q.family})",
        params={"left": dict(p.params), "right": dict(q.params)})


@lru_cache(maxsize=1024)
def certified(build: Callable[..., CertifiedPolynomial], *args) -> CertifiedPolynomial:
    """``build(*args)``, memoized.

    The estimators reuse identical parameter tuples across fixtures, and
    construction dominates their runtime.  ``build`` is one of the
    constructors above or ``multiply``; a product keyed by two cached
    polynomials is found again because polynomials hash by identity.
    """
    return build(*args)
