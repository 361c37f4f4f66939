"""Certified Chebyshev approximants for the transform layer.

Each constructor targets one scalar function family (positive and negative
powers, threshold projectors, support/interior indicators, the scaled
sqrt(-ln x)), builds a smooth surrogate that is cheap to sample, projects it
onto the Chebyshev basis by discrete cosine quadrature, and then certifies
the result on a dense grid: sup error against the target on the certified
interval, the global bound on [-1, 1], and any band conditions.  Each rung
of the degree ladder samples all of these grids in one kernel call; an even
series is evaluated at |x|, so its global grid is the distinct |x| of the
[-1, 1] grid.  Degrees start at four times the family's asymptotic formula
and double until the certificate passes or the degree cap is hit; a failed
certificate is always a raised error, never a silent pass.  No product of approximants is formed
here: a transform takes its certified factors and multiplies their values
at the spectrum (see ``transform``).

``FAMILIES`` is the one table of the six families: one ``Family`` record
each, with the family's name, the range of each constructor parameter and
the formula degree as a function of the constructor's arguments.  The
``_family`` decorator writes a record and wraps the constructor: the
wrapper checks the ranges, names the polynomial and its ``params``, and
starts the ladder at the formula, so a constructor's body holds only its
surrogate, target, interval and band check.  The CLI's ``approx-poly``
takes its choices and arguments from the table.  Each named transform of
``transform`` lists the families of its factors and sums their formulas,
as ``approx_*.formula``, into the degree an estimator's ledger charges, so
no estimator names a family.

Every evaluation, on a polynomial's call and on the certificate grids, goes
through one kernel, ``_evaluate``, on a parity split of the coefficients: a
polynomial computes its split once and keeps it, and ``_chebval`` splits raw
coefficients (a rung of the degree ladder) on each call.  With
theta = arccos x, T_k(x) = Re e^{ik theta}; the coefficients' parity leaves
all k, or every other k from 0 or from 1 (on the angle 2 theta).  The kernel
has two regimes, and the input's size picks one: a call with fewer points
than the series has terms after this parity split (an operator's
eigenvalues) is few-point, any other call (a certificate grid) is
many-point.

Few points: the k are split as k = s + t (a m + b) with m ~ sqrt(number of
terms); the split holds the giant x baby coefficient table and the
frequencies s + t b and -t m a.  The baby table (cos, sin)((s + t b) theta)
and the conjugated giant table (cos, sin)(-t m a theta) are one cos and one
sin of the outer product of the frequencies and theta; one real matrix
product folds the coefficients into the baby table, and a dot product of
(cos, sin) pairs over the giant index takes Re(G H) and finishes the sum.
This is the baby-step/giant-step split of Paterson and Stockmeyer (SIAM J.
Comput. 1973) in angle form.  Points are processed in blocks of ``_CHUNK``,
so the tables stay near a megabyte at the degree cap however many points
are evaluated.

Many points: the series is sum_{k <= K} a_k cos(k psi), with
psi = 2 arccos|x| in [0, pi] for an even series (the a_k are the even
coefficients) and psi = theta otherwise (an odd series runs as a
parity-free one).  With G_l(psi) = sum_k a_k (k/K)^l e^{ik psi}, the l-th
psi-derivative of sum_k a_k e^{ik psi} is (iK)^l G_l, so about the nearest
node psi_j = 2 pi j / n_f, with delta = psi - psi_j,

    sum_k a_k cos(k psi) = sum_{l < L} (K delta)^l / l! Re(i^l G_l(psi_j)).

n_f is the smallest power of two at least 4 K, so |K delta| <= reach =
pi K / n_f <= pi / 4.  As |e^{i t} - sum_{l < L} (i t)^l / l!| <= |t|^L / L!
for real t, the remainder is at most reach^L / L! sum_k |a_k| (k/K)^L, and
L is the smallest order that brings this weighted sum to ``_FFT_TAIL``
sum|a_k| = 1e-17 sum|a_k|; the weights (k/K)^L make L smaller for the
decaying series the families certify.  The rows a_k (k/K)^l / l! come from
a running product, and the G_l at the nodes from real FFTs of length n_f,
two rows to an FFT: Re(i^l G_l) needs the real part of an even row's
spectrum and the imaginary part of an odd row's, and one real FFT of a
packed array carries both (``_pack``).  The L / 2 spectra are held at
once, and the points run through them in blocks of ``_BLOCK``, so that the
per-point arrays stay in cache and the allocator reuses them.  The cost is
O(L n_f log n_f / 2 + L points) against O(points x terms).  This is the
Taylor-series nonuniform FFT of Anderson and Dahleh (SIAM J. Sci. Comput.
1996); see also Dutt and Rokhlin (SIAM J. Sci. Comput. 1993).

In both regimes points outside [-1, 1] by more than rounding are an error.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from statistics import NormalDist
from typing import Callable

import numpy as np

from .numerics import ValidationError

DEGREE_CAP = 8192
GRID_POINTS = 10001
_EXTREMA = 64
_CHUNK = 256
# points per block of the many-point regime
_BLOCK = 4096
# truncation bound of the many-point regime, relative to sum_k |a_k|
_FFT_TAIL = 1e-17
# 2 pi = _TAU_HI + _TAU_LO to about 1e-27, with _TAU_HI on at most 36 bits, so
# that j * _TAU_HI is exact for the node indices j < 2^17
_TAU_HI = math.ldexp(round(math.ldexp(math.tau, 33)), -33)
_TAU_LO = (math.tau - _TAU_HI) + 2.4492935982947064e-16
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
    """Chebyshev-basis polynomial with a grid-checked certificate."""

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

    @cached_property
    def _split(self) -> "_Split":
        return _parity_split(self.coefficients)

    def __call__(self, x):
        return _evaluate(x, self._split)


@dataclass(frozen=True, eq=False)
class _Split:
    """A series after its parity split: ``terms`` are the c_k with
    k = start + step j."""

    coefficients: np.ndarray
    terms: np.ndarray
    start: int
    step: int

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The few-point regime's giant x baby table, ``table[a, b]`` =
        terms[a m + b] (zero past the last), and its frequencies: the baby
        steps start + step b (b < m) followed by the negated giant steps
        -step m a (a < giants)."""
        size = self.terms.size
        m = math.isqrt(size - 1) + 1
        giants = -(-size // m)
        table = np.zeros(giants * m)
        table[:size] = self.terms
        frequencies = np.concatenate([self.start + self.step * np.arange(m),
                                      -self.step * m * np.arange(giants)]).astype(float)
        return table.reshape(giants, m), frequencies


def _parity_split(c) -> _Split:
    c = np.asarray(c, dtype=float)
    # a non-finite sum never meets the many-point regime's stop test
    if not np.isfinite(c).all():
        raise ValidationError("Chebyshev series has a non-finite coefficient")
    if not c[1::2].any():
        return _Split(c, c[0::2], 0, 2)
    if not c[0::2].any():
        return _Split(c, c[1::2], 1, 2)
    return _Split(c, c, 0, 1)


def _chebval(x, c: np.ndarray):
    """sum_k c_k T_k(x), shaped like x; see the module docstring."""
    return _evaluate(x, _parity_split(c))


def _evaluate(x, split: _Split):
    """sum_k c_k T_k(x) for the series ``split`` holds, shaped like x."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    # a NaN maximum fails the test too
    if not np.abs(flat).max(initial=0.0) <= 1.0 + _DOMAIN_SLACK:
        raise ValidationError("Chebyshev series evaluated outside [-1, 1]")
    flat = flat.clip(-1.0, 1.0)
    if flat.size >= split.terms.size:
        # many points; an odd series runs as a parity-free one
        if split.start == 0 and split.step == 2:
            out = _cosine_series(split.terms, flat, lambda v: 2.0 * np.arccos(np.abs(v)))
        else:
            out = _cosine_series(split.coefficients, flat, np.arccos)
        return out.reshape(x.shape)[()]
    table, frequencies = split.tables
    m = table.shape[1]
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _CHUNK):
        angle = np.multiply.outer(frequencies, np.arccos(flat[lo:lo + _CHUNK]))
        points = angle.shape[1]
        # trig[f] is the (cos, sin) row pair of frequency f
        trig = np.empty((angle.shape[0], 2, points))
        np.cos(angle, out=trig[:, 0])
        np.sin(angle, out=trig[:, 1])
        # (cos, sin) of H_a = sum_b table[a, b] e^{i(s + t b) theta}; the giant
        # frequencies are negated, so sum_a Re(G_a H_a) with G_a = e^{i t m a theta}
        # is the dot product of the giants' (cos, sin) pairs with H's
        inner = table @ trig[:m].reshape(m, 2 * points)
        out[lo:lo + points] = np.einsum("ap,ap->p", trig[m:].reshape(-1, points),
                                        inner.reshape(-1, points))
    return out.reshape(x.shape)[()]


def _fft_nodes(top: int) -> int:
    """n_f for a series of highest frequency K = ``top``: the smallest power
    of two at least 4 K."""
    return 1 << (4 * top - 1).bit_length()


def _taylor_rows(a: np.ndarray, reach: float) -> tuple[int, list[np.ndarray]]:
    """The Taylor order L and the rows r_l = a_k (k/K)^l / l! of the
    many-point regime.

    L is the smallest order with reach^L sum|r_L| <= ``_FFT_TAIL`` sum|a_k|.
    The rows are taken in pairs, so an odd L gets row L as well; the extra
    term only shrinks the remainder.
    """
    frequency = np.arange(a.size) / max(a.size - 1, 1)
    limit = _FFT_TAIL * float(np.abs(a).sum())
    rows = [a]
    while True:
        row = rows[-1] * frequency
        row /= len(rows)
        if reach ** len(rows) * float(np.abs(row).sum()) <= limit:
            break
        rows.append(row)
    order = len(rows)
    if order % 2:
        rows.append(row)
    return order, rows


def _pack(even: np.ndarray, odd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` (zero between its ends) with rfft(out) = Re rfft(even) +
    i Im rfft(odd) at every node, for real rows of T terms and 2T - 1 <=
    len(out): out_0 = even_0, out_k = (even + odd)_k / 2 and
    out_{n-k} = (even - odd)_k / 2 for 0 < k < T."""
    terms = even.size
    out[0] = even[0]
    head = out[1:terms]
    np.add(even[1:], odd[1:], out=head)
    head *= 0.5
    tail = out[out.size - terms + 1:]
    np.subtract(even[:0:-1], odd[:0:-1], out=tail)
    tail *= 0.5
    return out


def _cosine_series(a: np.ndarray, x: np.ndarray, angle) -> np.ndarray:
    """sum_k a_k cos(k psi) at psi = angle(x) in [0, pi], for a flat x: the
    many-point regime of the module docstring."""
    top = max(a.size - 1, 1)                      # K, the highest frequency
    nodes = _fft_nodes(top)
    reach = math.pi * top / nodes                 # |K delta| <= reach <= pi / 4
    _, rows = _taylor_rows(a, reach)
    # node j of rfft(packed) is Re F r_l + i Im F r_{l+1}, with
    # F r_l = conj G_l(psi_j) / l!, so Re(i^l G_l) / l! is (-1)^{floor(l/2)}
    # times the real part for even l and the imaginary part for odd l
    packed = np.zeros(nodes)
    spectra = []
    for l in range(0, len(rows), 2):
        spectrum = np.fft.rfft(_pack(rows[l], rows[l + 1], packed))
        spectra.append((np.ascontiguousarray(spectrum.real),
                        np.ascontiguousarray(spectrum.imag)))
    re_top, im_top = spectra.pop()
    out = np.empty(x.size)
    for lo in range(0, x.size, _BLOCK):
        psi = angle(x[lo:lo + _BLOCK])
        nearest = np.rint(psi * (nodes / math.tau))     # j, in [0, nodes / 2]
        # delta = psi - 2 pi j / n_f: j _TAU_HI / n_f is exact and so is its
        # difference from psi, so only the small _TAU_LO term rounds
        offset = (psi - nearest * (_TAU_HI / nodes)) - nearest * (_TAU_LO / nodes)
        offset *= top                                   # K delta
        square = offset * offset
        index = nearest.astype(np.intp)
        # Horner in -(K delta)^2 on the even rows and on the odd rows, then
        # sum = even + K delta odd
        even = np.take(re_top, index)
        odd = np.take(im_top, index)
        for re, im in reversed(spectra):
            even *= square
            np.subtract(np.take(re, index), even, out=even)
            odd *= square
            np.subtract(np.take(im, index), odd, out=odd)
        odd *= offset
        np.add(even, odd, out=out[lo:lo + _BLOCK])
    return out


def _global_grid(degree: int, even: bool = False) -> np.ndarray:
    """GRID_POINTS equispaced points on [-1, 1] and +-cos(pi k / degree) for
    k < _EXTREMA.

    With ``even``, every |x| of those points instead, each about once: an
    even series is evaluated at |x|, so its maximum there is the same number.
    The equispaced points are not mirror images to the last bit (only about a
    third of the negative ones are), so x >= 0 alone would not do: a negative
    point is kept unless its mirror image has its magnitude.
    """
    base = np.linspace(-1.0, 1.0, GRID_POINTS)
    extrema = np.cos(np.pi * np.arange(_EXTREMA) / max(degree, _EXTREMA))
    if even:
        size = np.abs(base)
        return np.concatenate([size[(base >= 0.0) | (size != size[::-1])],
                               np.abs(extrema)])
    return np.concatenate([base, extrema, -extrema])


def _dct2(x: np.ndarray) -> np.ndarray:
    """Unnormalized type-2 DCT, y_k = 2 sum_j x_j cos(pi k (2j + 1) / 2n),
    from one real FFT of length n (Makhoul, IEEE TASSP 1980).

    The reordering v = [x_0, x_2, ..., x_3, x_1] has DFT V with
    y_k = 2 Re W_k, W_k = e^{-i pi k / 2n} V_k; as V_{n-k} = conj V_k, the
    upper half is y_{n-k} = -2 Im W_k, so the half spectrum rfft(v) gives all
    of y.
    """
    n = x.size
    w = np.fft.rfft(np.concatenate([x[0::2], x[1::2][::-1]]))
    w *= np.exp(-0.5j * np.pi * np.arange(w.size) / n)
    y = np.empty(n)
    np.multiply(w.real, 2.0, out=y[:w.size])
    np.multiply(w.imag[n - w.size:0:-1], -2.0, out=y[w.size:])
    return y


def _chebyshev_fit(func: Callable[[np.ndarray], np.ndarray], degree: int) -> np.ndarray:
    """Coefficients of the degree-d Chebyshev interpolant at first-kind nodes."""
    n = degree + 1
    nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    vals = np.asarray(func(nodes), dtype=float)
    coeffs = _dct2(vals) / n
    coeffs[0] /= 2.0
    return coeffs


def _apply_parity(coeffs: np.ndarray, parity: str) -> np.ndarray:
    out = coeffs.copy()
    if parity == "even":
        out[1::2] = 0.0
    elif parity == "odd":
        out[0::2] = 0.0
    return out


def _trim_tail(coeffs: np.ndarray) -> np.ndarray:
    """Drop trailing coefficients at aliasing-noise level: at most 1e-14 times
    the largest one (or one)."""
    cut = 1e-14 * max(1.0, float(np.abs(coeffs).max()))
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


def _build(family: str, params: dict, epsilon: float, bound_limit: float, parity: str,
           start_degree: int, surrogate, target, interval: tuple[float, float],
           check=None) -> CertifiedPolynomial:
    """Climb the degree ladder until a rung's certificate passes.

    ``check``, if given, is ``(points, test)``: ``test`` receives the rung's
    values at ``points`` and returns ``(ok, detail)``.
    """
    lo, hi = interval
    grid = np.linspace(lo, hi, GRID_POINTS)
    f_grid = np.asarray(target(grid), dtype=float)
    check_grid, test = check if check is not None else (np.empty(0), None)
    achieved: dict = {}
    for degree in _degree_ladder(start_degree):
        coeffs = _chebyshev_fit(surrogate, degree)
        if not np.isfinite(coeffs).all():
            raise ValidationError(f"the {family} surrogate is not finite at {params}")
        coeffs = _trim_tail(_apply_parity(coeffs, parity))
        # one kernel call samples the interval, global and check grids, so the
        # many-point regime pays for its FFTs once
        global_grid = _global_grid(degree, parity == "even")
        sampled = _chebval(np.concatenate([grid, global_grid, check_grid]), coeffs)
        values, on_global, checked = np.split(sampled, [grid.size,
                                                        grid.size + global_grid.size])
        gmax = float(np.abs(on_global).max())
        if gmax > bound_limit:
            # the series is linear in its coefficients, so the rescaled
            # series' samples are the sampled ones times the same factor
            shrink = bound_limit / (gmax * (1.0 + 1e-12))
            coeffs = coeffs * shrink
            values = values * shrink
            checked = checked * shrink
            gmax *= shrink
        err = float(np.abs(values - f_grid).max())
        achieved = {"degree": degree, "interval_error": err, "global_max": gmax}
        if err > epsilon or gmax > bound_limit + 1e-9:
            continue
        if test is not None:
            ok, detail = test(checked)
            achieved.update(detail)
            if not ok:
                continue
        return CertifiedPolynomial(
            coefficients=coeffs, parity=parity, target=target,
            certified_interval=interval, certified_error=err,
            global_bound=gmax, bound_limit=bound_limit,
            family=family, params=dict(params))
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
    w_zero = np.exp(a * np.log(t_min) - math.lgamma(a + 1.0))
    h = (np.pi ** 2) / (np.log(40.0 / eps) + 4.0)

    def nodes(lam_val):
        lo, hi = np.log(t_min), np.log(lam_val / y_min)
        n = int(np.ceil((hi - lo) / h)) + 1
        u = lo + h * np.arange(n)
        u = u[u <= hi + 1e-12]
        w = h * np.exp(a * u - math.lgamma(a))
        w[0] *= 0.5
        w[-1] *= 0.5
        return (np.concatenate([[0.0], np.exp(u)]),
                np.concatenate([[w_zero], w]))

    t, w = nodes(lam)
    if lam_cap is not None and w.sum() > 0:
        # one correction pass so the discrete mixture value at y = 0 hits the cap
        target_sum = (lam_cap / y_min) ** a / (a * np.exp(math.lgamma(a)))
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


_ERF = np.frompyfunc(math.erf, 1, 1)


def _erf(x) -> np.ndarray:
    """The error function, elementwise.  math.erf rounds to exactly +-1.0 from
    |x| ~ 5.92 on, so it is called only where |x| < 6."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 6.0
    out = np.sign(x, out=np.empty(x.shape))
    out[inside] = _ERF(x[inside])
    return out


def _erfcinv(y: float) -> float:
    """Inverse of the complementary error function: erfc(x) = y for y in (0, 2)."""
    return -NormalDist().inv_cdf(y / 2.0) / math.sqrt(2.0)


def _erf_band(x: np.ndarray, center: float, k: float) -> np.ndarray:
    """Smooth even indicator of |x| <= center with transition scale 1/k."""
    return (_erf(k * (center - x)) + _erf(k * (center + x))) / 2.0


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One polynomial family: its name, the range of each parameter of its
    constructor, and its formula degree.

    ``ranges`` maps each parameter, in the constructor's order, to
    ``(lo, hi, bracket)``: the open interval (lo, hi), with hi included when
    ``bracket`` is ``"]"``; a non-finite value is never in range.
    ``formula`` takes the constructor's arguments and gives the asymptotic
    degree with the ladder's starting constant 4, the degree a build starts
    its ladder at and the ledgers charge.  ``constructor`` names the
    ``approx_*`` function of this module that builds the family.
    """

    name: str
    ranges: dict
    formula: Callable[..., int]
    constructor: str


#: Every polynomial family, by name, in the order the constructors are defined.
FAMILIES: dict[str, Family] = {}


def _degree(delta: float, epsilon: float, c: float = 0.0) -> int:
    """ceil(4 (c + 1) / delta ln(1 / epsilon))."""
    return math.ceil(4.0 * (c + 1.0) / delta * math.log(1.0 / epsilon))


def _family(name: str, formula: Callable[..., int], **ranges):
    """Register the decorated constructor as family ``name`` of ``FAMILIES``.

    The constructor's body checks what the ranges cannot (a relation between
    its parameters) and returns ``(surrogate, target, interval)``, with the
    band check of ``_build`` as a fourth item where it has one.  The decorated
    function checks each argument against its range, then certifies an even
    polynomial with |P| <= 1 within the argument ``epsilon``, starting the
    degree ladder at ``formula``; the polynomial's ``params`` are the
    arguments by name.  It carries ``formula`` as an attribute, so a named
    transform reads the formula degree of each of its factors.
    """
    def register(body):
        signature = inspect.signature(body)

        @wraps(body)
        def construct(*args, **kwargs):
            params = signature.bind(*args, **kwargs).arguments
            for key, value in params.items():
                lo, hi, bracket = ranges[key]
                if not (lo < value < hi or (bracket == "]" and value == hi)):
                    raise ValidationError(f"{name} {key} must be in ({lo}, {hi}{bracket}, "
                                          f"got {value}")
            try:
                start, parts = formula(**params), body(**params)
            except OverflowError:
                raise ValidationError(f"the {name} formula degree or surrogate is not "
                                      f"finite at {params}") from None
            return _build(name, params, params["epsilon"], 1.0, "even", start, *parts)

        construct.formula = formula
        FAMILIES[name] = Family(name, ranges, formula, body.__name__)
        return construct
    return register


#: The power families' smallest delta.  Their quadratures run up to
#: t = lambda / delta^2, with lambda below 1e8 for the exponents and
#: epsilons the families are used at, so delta^2 >= 1e-300 keeps that cutoff
#: a finite double.
_POWER_DELTA_MIN = 1e-150


@_family("pos-power", lambda c, delta, epsilon: _degree(delta, epsilon),
         c=(0, 1, ")"), delta=(_POWER_DELTA_MIN, 0.5, "]"), epsilon=(0, 0.5, "]"))
def approx_positive_power(c: float, delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even P with |P - x^c / 2| <= epsilon on [delta, 1] and |P| <= 1 on [-1, 1]."""
    a = 1.0 - c / 2.0
    t, w = _inverse_power_quadrature(a, delta ** 2, epsilon / 2.0)

    def surrogate(x):
        return 0.5 * np.asarray(x, dtype=float) ** 2 * _gaussian_mixture(x, t, w)

    def target(x):
        return 0.5 * np.abs(x) ** c

    return surrogate, target, (delta, 1.0)


@_family("neg-power", lambda c, delta, epsilon: _degree(delta, epsilon, c),
         c=(0, math.inf, ")"), delta=(_POWER_DELTA_MIN, 0.5, "]"), epsilon=(0, 0.5, "]"))
def approx_negative_power(c: float, delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even P with |P - (delta^c / 2) x^(-c)| <= epsilon on [delta, 1], |P| <= 1.

    For c <= 0.55 the Gaussian mixture's value at x = 0 can be held below 1 by
    capping the quadrature cutoff, so no suppression window is needed and the
    degree stays near the asymptotic formula.  Larger exponents multiply in an
    erf window below x = delta, which limits how small delta can get before
    the degree cap bites.
    """
    windowless = c <= 0.55
    lam_cap = None
    if windowless:
        # (delta^c / 2) * sum(w) ~ bulge_coeff * lam^(c/2); keep it below 0.96
        bulge_coeff = (2.0 / c) / (2.0 * np.exp(math.lgamma(c / 2.0)))
        lam_cap = (0.96 / bulge_coeff) ** (2.0 / c)
    t, w = _inverse_power_quadrature(c / 2.0, delta ** 2, epsilon / 2.0, lam_cap)
    if windowless:
        def surrogate(x):
            return (delta ** c / 2.0) * _gaussian_mixture(x, t, w)
    else:
        width = delta / (4.0 * max(1.0, np.sqrt(c)))
        k = _erfcinv(min(epsilon, 0.1) / 2.0) / width
        center = delta - 2.0 * width

        def surrogate(x):
            x = np.asarray(x, dtype=float)
            window = 1.0 - _erf_band(x, center, k)
            return (delta ** c / 2.0) * _gaussian_mixture(x, t, w) * window

    def target(x):
        return (delta ** c / 2.0) * np.abs(x) ** (-c)

    return surrogate, target, (delta, 1.0)


@_family("threshold", lambda t, delta, epsilon: _degree(delta, epsilon),
         t=(0, 1, ")"), delta=(0, 0.5, ")"), epsilon=(0, 0.5, ")"))
def approx_threshold(t: float, delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even P ~ indicator of |x| <= t: in [1-eps, 1] inside [-t+delta, t-delta],
    in [0, eps] outside [-t-delta, t+delta], |P| <= 1 globally."""
    if not 0 < t - delta < t + delta < 1:
        raise ValidationError(f"band constraints violated: t={t}, delta={delta}")
    k = _erfcinv(epsilon / 2.0) / delta

    def surrogate(x):
        return _erf_band(np.asarray(x, dtype=float), t, k)

    return _indicator(epsilon, surrogate, (0.0, t - delta), (t + delta, 1.0))


def _indicator(epsilon, surrogate, one_band, zero_band):
    """The body of an indicator family: P in [1 - epsilon, 1] on ``one_band``,
    its certified interval, and |P| <= epsilon on ``zero_band``."""
    band = GRID_POINTS // 4
    points = np.concatenate([np.linspace(*one_band, band), np.linspace(*zero_band, band)])

    def test(values):
        ones, zeros = values[:band], np.abs(values[band:])
        detail = {"one_band_min": float(ones.min()), "one_band_max": float(ones.max()),
                  "zero_band_max": float(zeros.max())}
        ok = (ones.min() >= 1.0 - epsilon and ones.max() <= 1.0 + 1e-9
              and zeros.max() <= epsilon)
        return ok, detail

    return (surrogate, lambda x: np.ones_like(np.asarray(x, dtype=float)), one_band,
            (points, test))


@_family("support-indicator", _degree, delta=(0, 0.25, "]"), epsilon=(0, 0.25, "]"))
def approx_support_indicator(delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even R ~ 1 for |x| >= 2 delta, ~ 0 for |x| <= delta."""
    k = 2.0 * _erfcinv(epsilon / 2.0) / delta

    def surrogate(x):
        return 1.0 - _erf_band(np.asarray(x, dtype=float), 1.5 * delta, k)

    return _indicator(epsilon, surrogate, (2.0 * delta, 1.0), (0.0, delta))


@_family("interior-indicator", _degree, delta=(0, 0.25, "]"), epsilon=(0, 0.25, "]"))
def approx_interior_indicator(delta: float, epsilon: float) -> CertifiedPolynomial:
    """Even R ~ 1 on [-1+2 delta, 1-2 delta], ~ 0 for |x| >= 1 - delta."""
    k = 2.0 * _erfcinv(epsilon / 2.0) / delta

    def surrogate(x):
        return _erf_band(np.asarray(x, dtype=float), 1.0 - 1.5 * delta, k)

    return _indicator(epsilon, surrogate, (0.0, 1.0 - 2.0 * delta), (1.0 - delta, 1.0))


@_family("sqrt-neglog",
         lambda delta_prime, epsilon: _degree(delta_prime, delta_prime * epsilon),
         delta_prime=(0, 0.25, "]"), epsilon=(0, 0.25, "]"))
def approx_sqrt_neglog(delta_prime: float, epsilon: float) -> CertifiedPolynomial:
    """Even P ~ sqrt(-ln x) / (2 sqrt(-ln delta')) on [delta', 1 - delta'], |P| <= 1."""
    big_l = np.log(1.0 / delta_prime)
    s = delta_prime * min(0.5, np.sqrt(2.0 * big_l * epsilon))
    margin = min(epsilon * np.sqrt(delta_prime * big_l), 0.05)

    def surrogate(x):
        x = np.asarray(x, dtype=float)
        u = -0.5 * np.log((x ** 2 + s ** 2) / (1.0 + s ** 2 + margin))
        return np.sqrt(np.maximum(u, 0.0)) / (2.0 * np.sqrt(big_l))

    def target(x):
        return np.sqrt(-np.log(np.asarray(x, dtype=float))) / (2.0 * np.sqrt(big_l))

    return surrogate, target, (delta_prime, 1.0 - delta_prime)


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

    # P is held below epsilon outside [left, right]
    left, right = x0 - r - delta / 2.0, x0 + r + delta / 2.0
    if left > -1.0 or right < 1.0:
        t_max = float(np.abs(t_poly(np.linspace(-1, 1, 2001))).max())
        suppress = max(epsilon / (4.0 * max(t_max, 1.0)), 1e-300)
        k = _erfcinv(suppress) * 4.0 / delta

        def surrogate(x):
            x = np.asarray(x, dtype=float)
            return t_poly(x) * _erf_band(x - x0, r + delta / 4.0, k)
    else:
        surrogate = t_poly

    if target is None:
        def target(x):
            return np.polynomial.polynomial.polyval(np.asarray(x, dtype=float) - x0, a)

    outside = np.concatenate([np.linspace(-1.0, left, 512) if left > -1 else [],
                              np.linspace(right, 1.0, 512) if right < 1 else []])

    def test(values):
        worst = float(np.abs(values).max(initial=0.0))
        return worst <= epsilon, {"outside_max": worst}

    start = 4.0 / delta * np.log(max(bound, 1.0) / epsilon) + 4 * len(trunc)
    return _build("taylor", {"x0": x0, "r": r, "delta": delta, "bound": bound,
                             "epsilon": epsilon},
                  epsilon, 0.5, "none", int(start) + 1,
                  surrogate, target, (x0 - r, x0 + r), (outside, test))


@lru_cache(maxsize=1024)
def certified(build: Callable[..., CertifiedPolynomial], *args) -> CertifiedPolynomial:
    """``build(*args)``, memoized.

    The estimators reuse identical parameter tuples across fixtures, and
    construction dominates their runtime.  ``build`` is one of the
    constructors above.
    """
    return build(*args)
