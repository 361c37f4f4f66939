"""Amplitude-estimation models and the top-level entropy/distance estimators.

Each estimator gets two parameter schedules from one function, ``_schedule``:

* the *analysis schedule*: the complexity analysis's settings instantiated with
  explicit constants, all halved together (up to six rounds) until the
  proof's composite error bound evaluates at or below the target epsilon.
  The query ledger is computed from this schedule via amplitude-estimation
  repetition counts and the formula degree of each transform the pipeline
  runs, read as ``formula`` from the named transform itself (the transform
  lists its polynomial families; this module names none), so its scaling
  follows the stated complexities.
* the *operational schedule*: the analysis values raised to the estimator's
  ``OP_FLOORS`` entries, so every required polynomial certificate stays
  constructible under the degree cap, with the amplitude-estimation precision
  re-derived from the floored values.  The simulated pipeline runs at these
  values; in analytic mode its trace estimates are exact, so the realized
  error is governed by the certified polynomial errors alone.

The rank estimator and the odd-alpha trace power take their analysis values
as given and use only the clamping half, ``_operational``.  Reports, built by
``_report``, carry both schedules, the evaluated bound, the ledger, and the
exact value from ``numerics.QUANTITIES``, computed the first time it is read.

Each argument's range is decided once, where an estimator first reads it:
epsilon (``EPSILON_RANGE``), alpha and its schedule, the rank bound (between
the input's rank and its dimension), the rank estimator's delta
(``RANK_DELTA_MIN``) and kappa (``KAPPA_MAX``); a sampled trace estimate
holds at most ``AE_OUTCOME_CAP`` outcomes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import numerics as nm
from .encodings import (SUPPORT_CUT, PurifiedAccessOracle, StatePreparationPair, Step,
                        SubnormalizedDensityOperator, _qubits, block_encode_density,
                        encoding_power, evolve, lcu, linear_combination_density)
from .numerics import ValidationError
from .resources import QueryCost, ae_repetitions
from .transform import (QSVT_PRECISION, eigenvalue_threshold_projector, neglog_density,
                        positive_power_density, positive_power_unitary, power_unitary)

MODES = ("analytic", "adversarial", "sampled")

#: Lower clamps on the operational schedule parameters, keeping the required
#: polynomial certificates under the degree cap.  Fixture spectra in the
#: acceptance suite stay a factor >= 2 above every truncation threshold.
OP_FLOORS = {
    "vn_delta": 1.0e-2, "vn_eps": 1.5e-3,
    "pow_delta": 2.0e-2, "pow_eps": 1.0e-3,
    "powu_delta": 1.0e-2, "powu_eps": 1.0e-3,
    "thr_delta": 1.0e-2, "thr_eps": 5.0e-4,
    "fid_delta": 4.0e-3, "fid_eps": 1.0e-3,
    "rank_eps": 5.0e-4,
}


class ScheduleBudgetError(RuntimeError):
    """The auto-tightening loop could not drive the composite bound below eps."""

    def __init__(self, quantity: str, achieved: float, target: float):
        self.achieved = achieved
        self.target = target
        super().__init__(f"{quantity}: bound {achieved:.4g} > target {target:.4g} "
                         f"after tightening")


@dataclass(frozen=True)
class AmplitudeEstimatorConfig:
    mode: str = "analytic"
    repetitions: int = 64
    seed: int = 0
    median_trials: int = 3     # k; statistical estimators take a median of 2k+1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be at least one")

    def rng(self, *stream) -> np.random.Generator:
        parts = [zlib.crc32(s.encode()) if isinstance(s, str) else int(s)
                 for s in stream]
        return np.random.default_rng((self.seed,) + tuple(parts))


@dataclass(frozen=True)
class EstimateReport:
    """An estimate with its schedules and ledger; ``truth()`` computes the
    exact value the first time ``true_value`` is read."""

    quantity: str
    estimate: float
    target_epsilon: float
    truth: Callable[[], float] = field(repr=False, compare=False)
    alpha: float | None = None
    parameters: dict = field(default_factory=dict)
    ledger: QueryCost = field(default_factory=QueryCost)
    expected_complexity: str = ""
    mode: str = "analytic"
    success_probability_note: float = 1.0
    notes: tuple = ()

    @cached_property
    def true_value(self) -> float:
        return self.truth()

    @property
    def error(self) -> float:
        return abs(self.estimate - self.true_value)

    def as_dict(self) -> dict:
        return {"quantity": self.quantity, "alpha": self.alpha,
                "estimate": self.estimate, "target_epsilon": self.target_epsilon,
                "true_value": self.true_value, "parameters": self.parameters,
                "ledger": {**self.ledger.as_dict(),
                           "expected_complexity": self.expected_complexity},
                "mode": self.mode,
                "success_probability_note": self.success_probability_note,
                "notes": list(self.notes)}


# ---------------------------------------------------------------------------
# Amplitude estimation
# ---------------------------------------------------------------------------

def ae_error_bound(p: float, reps: int) -> float:
    """2 pi sqrt(p (1-p)) / M + pi^2 / M^2."""
    return (2.0 * math.pi * math.sqrt(max(p * (1.0 - p), 0.0)) / reps
            + math.pi ** 2 / reps ** 2)


#: The most outcomes ``ae_outcome_distribution`` holds.  Building the
#: distribution and its cumulative sum peaks at 57 bytes per outcome
#: (``tracemalloc``: 57.0 MiB at M = 2^20, 228 MiB at 2^22), so at 2^22 it
#: stays under 256 MB; a sampled trace estimate reaches that M near
#: epsilon = 3e-6 at trace bound one.
AE_OUTCOME_CAP = 2 ** 22


def ae_outcome_distribution(p: float, reps: int) -> np.ndarray:
    """Exact phase-estimation outcome distribution over m = 0..M-1.

    The prepared state splits evenly onto the two Grover eigenphases
    +-omega with sin^2(pi omega) = p; measuring the M-point estimation
    register lands on m with the Fejer-type kernel below.  M is at most
    ``AE_OUTCOME_CAP``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError("amplitude must lie in [0, 1]")
    if reps > AE_OUTCOME_CAP:
        raise ValidationError(f"sampled amplitude estimation draws from all M = {reps} "
                              f"outcomes, above the cap {AE_OUTCOME_CAP}; a larger "
                              f"epsilon needs fewer")
    omega = math.asin(math.sqrt(p)) / math.pi
    m = np.arange(reps)

    def kernel(x):
        x = np.asarray(x, dtype=float)
        num = np.sin(np.pi * reps * x) ** 2
        den = reps ** 2 * np.sin(np.pi * x) ** 2
        # at an integer x the kernel's limit is one
        near = np.abs(x - np.round(x)) <= 1e-12
        return np.where(near, 1.0, num / np.where(near, 1.0, den))

    probs = 0.5 * (kernel(m / reps - omega) + kernel(m / reps + omega))
    return probs / probs.sum()


def ae_sample(p: float, reps: int, rng: np.random.Generator) -> float:
    """One draw from the exact outcome distribution, mapped to sin^2(pi m / M)."""
    return _ae_draw(_ae_cdf(ae_outcome_distribution(p, reps)), rng)


def _ae_cdf(probs: np.ndarray) -> np.ndarray:
    """The normalized cumulative sum ``Generator.choice(M, p=probs)`` forms."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _ae_draw(cdf: np.ndarray, rng: np.random.Generator) -> float:
    """One outcome m drawn from ``cdf`` by ``Generator.choice``'s own
    arithmetic (one uniform variate, inverted by a right-sided search), so it
    equals ``rng.choice(M, p=probs)``; mapped to sin^2(pi m / M)."""
    m = cdf.searchsorted(rng.random(), side="right")
    return float(np.sin(np.pi * m / cdf.size) ** 2)


def amplitude_estimate(oracle: PurifiedAccessOracle,
                       config: AmplitudeEstimatorConfig) -> tuple[float, float]:
    """Estimate the squared overlap of the prepared state with the |0> block
    pattern; returns (estimate, stated error bound at the true amplitude)."""
    p = max(0.0, min(1.0, oracle.encoded.trace))
    reps = config.repetitions
    bound = ae_error_bound(p, reps)
    if config.mode == "analytic" or p in (0.0, 1.0):
        return p, bound  # degenerate amplitudes give a point-mass distribution
    if config.mode == "adversarial":
        sign = 1.0 if config.rng("ae-adv").random() < 0.5 else -1.0
        return min(1.0, max(0.0, p + sign * bound)), bound
    return ae_sample(p, reps, config.rng("ae-sample")), bound


def _median_success_probability(k: int) -> float:
    """P(median of 2k+1 draws lands in-bound) at per-draw success 8/pi^2."""
    q = 8.0 / math.pi ** 2
    n = 2 * k + 1
    return float(sum(math.comb(n, j) * q ** j * (1 - q) ** (n - j)
                     for j in range(k + 1, n + 1)))


def trace_estimate(oracle: PurifiedAccessOracle, upper_bound: float, epsilon: float,
                   config: AmplitudeEstimatorConfig) -> tuple[float, int]:
    """Estimate tr(A) within epsilon given tr(A) <= upper_bound.

    Uses M = ceil(2 pi (2 sqrt(B)/eps + 1/sqrt(eps))) repetitions; analytic
    mode returns the exact trace, adversarial mode the worst in-bound value,
    sampled mode the median of 2k+1 independent draws from the one outcome
    distribution of (tr(A), M), each with its own generator.  Returns
    (estimate, M).
    """
    if upper_bound < 0 or epsilon <= 0:
        raise ValidationError("need upper_bound >= 0 and epsilon > 0")
    p = max(0.0, min(1.0, oracle.encoded.trace))
    if p > upper_bound + 1e-9:
        raise ValidationError(f"trace {p:.6f} exceeds the declared bound {upper_bound}")
    reps = ae_repetitions(upper_bound, epsilon)
    if config.mode == "analytic":
        return p, reps
    # the generator keys keep the stream index 0, so seeded reports match
    # those of earlier versions
    if config.mode == "adversarial":
        sign = 1.0 if config.rng("adv", 0).random() < 0.5 else -1.0
        dev = min(ae_error_bound(p, reps), epsilon)
        return min(1.0, max(0.0, p + sign * dev)), reps
    k = config.median_trials
    cdf = _ae_cdf(ae_outcome_distribution(p, reps))
    draws = [_ae_draw(cdf, config.rng("trace", 0, t)) for t in range(2 * k + 1)]
    return float(np.median(draws)), reps


# ---------------------------------------------------------------------------
# Schedule helpers
# ---------------------------------------------------------------------------

def _operational(analysis: dict, bound: float, rounds: int, floors: dict,
                 derive=None) -> tuple[dict, dict]:
    """The operational schedule and the record of both schedules.

    Each key in ``floors`` is raised to its floor; ``derive(op)`` returns the
    keys re-derived from the floored values.
    """
    op = {k: max(v, floors[k]) if k in floors else v for k, v in analysis.items()}
    if derive is not None:
        op.update(derive(op))
    clamped = any(abs(op[k] - analysis[k]) > 1e-15 for k in op if k in analysis)
    return op, {"analysis": dict(analysis), "operational": dict(op),
                "bound_value": bound, "tightening_rounds": rounds, "clamped": clamped}


#: The smallest delta the rank estimator takes: its threshold projector at
#: delta / 2 needs 32 eps1^2 <= delta / 2, and eps1 runs at or above its
#: floor, so delta >= 64 floor^2 (1.6e-5).
RANK_DELTA_MIN = 64.0 * OP_FLOORS["rank_eps"] ** 2

#: The largest kappa the max entropy and the exact rank take: they run the
#: rank estimator at delta = 1 / (2 kappa), which must be RANK_DELTA_MIN or
#: more.
KAPPA_MAX = 1.0 / (2.0 * RANK_DELTA_MIN)

#: Halvings of the analysis schedule ``_schedule`` tries before it gives up.
MAX_ROUNDS = 6


def _schedule(quantity: str, epsilon: float, solve, bound_fn, floors: dict,
              derive=None) -> tuple[dict, dict, dict]:
    """(analysis, operational, record) for an estimator.

    The analysis schedule ``solve(epsilon)`` is halved as a whole until
    ``bound_fn`` evaluates at or below epsilon; ``_operational`` clamps it.
    """
    analysis = solve(epsilon)
    bound, rounds = bound_fn(analysis), 0
    while bound > epsilon and rounds < MAX_ROUNDS:
        analysis = {k: v / 2.0 for k, v in analysis.items()}
        bound = bound_fn(analysis)
        rounds += 1
    if bound > epsilon:
        raise ScheduleBudgetError(quantity, bound, epsilon)
    return (analysis,) + _operational(analysis, bound, rounds, floors, derive)


def _ledger(reps: int, gates: int, uses) -> QueryCost:
    """M amplitude-estimation rounds, each making ``gates`` gates and, for each
    (oracle, count) in ``uses``, ``count`` uses of the oracle and two
    controlled uses."""
    return sum((QueryCost.of(o.label, count, controlled=2) for o, count in uses),
               QueryCost()).plus_gates(gates).scaled(reps)


def _report(quantity: str, oracles, alpha: float | None, estimate: float,
            epsilon: float, parameters: dict, ledger: QueryCost, expected: str,
            config: AmplitudeEstimatorConfig, notes: tuple = ()) -> EstimateReport:
    """The report of an estimate of ``quantity`` on the oracles' operators."""
    # the operators, not the oracles, so no construction record keeps the
    # estimator's intermediate operators alive
    encoded = [o.encoded for o in oracles]
    note = (_median_success_probability(config.median_trials)
            if config.mode == "sampled" else 1.0)
    return EstimateReport(
        quantity=quantity, alpha=alpha, estimate=estimate, target_epsilon=epsilon,
        truth=lambda: nm.exact_quantity(quantity, *(a.matrix for a in encoded),
                                        alpha=alpha),
        parameters=parameters, ledger=ledger, expected_complexity=expected,
        mode=config.mode,
        success_probability_note=note, notes=notes)


def _validated_rank_bound(rank_bound: int, *oracles: PurifiedAccessOracle) -> int:
    """The rank bound r, which must be at least one, and at least the rank
    and at most the dimension N of each given oracle's operator (no rank
    exceeds N, and r <= N keeps every schedule's epsilon / (c r) a double).

    A factor with at most r columns passes as it is; a wider one is counted
    as ``numerics.operator_rank`` counts, by its eigenvalues above
    ``numerics.RANK_CUT``, read from its ``eigenpairs``.
    """
    r = int(rank_bound)
    if r < 1:
        raise ValidationError("rank bound must be at least one")
    for oracle in oracles:
        a = oracle.encoded
        if r > a.dim:
            raise ValidationError(f"rank bound {r} is above the dimension {a.dim} "
                                  f"of input {oracle.label!r}")
        if (a.factor.shape[1] > r
                and (rank := np.count_nonzero(a.eigenpairs[0] > nm.RANK_CUT)) > r):
            raise ValidationError(f"rank bound {r} is below the rank {rank} "
                                  f"of input {oracle.label!r}")
    return r


#: The target errors every estimator accepts.  Below QSVT_PRECISION no
#: certificate means anything, and outside this range the schedules' powers
#: of epsilon leave double precision.
EPSILON_RANGE = (QSVT_PRECISION, 1e6)

#: The schedules' powers of epsilon / r stay within 1e-302 and 1e302: the
#: degree formulas take 8 ln(1 / delta) / delta at a power halved up to
#: MAX_ROUNDS times, which leaves double range near 1e-303.
POWER_LIMIT = 302.0 * math.log(10.0)

#: An integer power of an encoding is a chain of products, each kept alive by
#: the next one's record (about 6 KB apiece at d = 16: 10^4 of them take
#: 0.8 s and 60 MB).
MAX_PRODUCTS = 10 ** 5


def _validated_epsilon(epsilon: float, name: str = "epsilon") -> None:
    lo, hi = EPSILON_RANGE
    if not lo <= epsilon <= hi:
        raise ValidationError(f"{name} must be finite and positive, in [{lo:g}, {hi:g}], "
                              f"got {epsilon}")


def _validated_alpha(quantity: str, alpha: float, allowed: str, inside: bool) -> None:
    """A finite alpha in the quantity's domain: ``inside``, written ``allowed``."""
    if not (math.isfinite(alpha) and inside):
        raise ValidationError(f"{quantity} needs alpha in {allowed}, got {alpha}")


def _validated_schedule(quantity: str, alpha: float, products: float, *powers) -> None:
    """An alpha whose schedule the doubles hold: at most MAX_PRODUCTS
    products of encodings, and each (base, exponent) in ``powers``, a base
    epsilon / (c r) raised to its largest exponent, within POWER_LIMIT (the
    base itself too)."""
    if products > MAX_PRODUCTS:
        raise ValidationError(f"{quantity} at alpha = {alpha} takes {products:.3g} products "
                              f"of encodings, above {MAX_PRODUCTS}")
    for base, exponent in powers:
        if not (base > 0 and max(exponent, 1.0) * abs(math.log(base)) <= POWER_LIMIT):
            raise ValidationError(
                f"{quantity} at alpha = {alpha} raises epsilon / r to the power "
                f"{exponent:.3g}, beyond double range at this epsilon and rank bound")


def _validated_power_schedule(quantity: str, alpha: float, epsilon: float, r: int) -> None:
    """``_validated_schedule`` for the trace power at alpha, epsilon and r:
    (epsilon / 4r)^(1/alpha) below one, (epsilon / 4r)^(1/frac) above, and
    (alpha - 1) / 2 products."""
    x = (alpha - 1.0) / 2.0
    frac = x - math.floor(x)
    exponent = (1.0 / alpha if alpha < 1 else 0.0 if _is_odd_integer(alpha)
                else 1.0 / frac if frac else math.inf)
    _validated_schedule(quantity, alpha, x, (epsilon / (4.0 * r), exponent))


# ---------------------------------------------------------------------------
# Von Neumann entropy
# ---------------------------------------------------------------------------

def estimate_von_neumann(oracle: PurifiedAccessOracle, rank_bound: int,
                         epsilon: float,
                         config: AmplitudeEstimatorConfig) -> EstimateReport:
    """S(rho) via the sqrt(-ln) polynomial pipeline, rescaled by 4 ln(1/delta)."""
    r = _validated_rank_bound(rank_bound, oracle)
    _validated_epsilon(epsilon)

    def solve(eps):
        delta = min(eps / (3.0 * r), 0.2)
        big_l = math.log(1.0 / delta)
        return {"delta": delta, "eps1": eps / (3.0 * r * big_l),
                "eps2": eps / (3.0 * r * big_l)}

    def bound_fn(p):
        big_l = math.log(1.0 / p["delta"])
        return (r * ((p["eps1"] + QSVT_PRECISION) * big_l + p["delta"])
                + p["eps2"] * big_l * r)

    def b(p):   # the trace bound for amplitude estimation, on either schedule
        return (math.log(r) / (4.0 * math.log(1.0 / p["delta"])) if r > 1 else 0.0) + 1.0

    analysis, op, record = _schedule(
        "von-neumann", epsilon, solve, bound_fn,
        {"delta": OP_FLOORS["vn_delta"], "eps1": OP_FLOORS["vn_eps"]})
    d_total = neglog_density.formula(analysis["delta"], analysis["eps1"])
    ledger = _ledger(ae_repetitions(b(analysis), analysis["eps2"]),
                     d_total * (oracle.total_qubits + 1), [(oracle, 2 * d_total)])

    out = neglog_density(oracle, op["delta"], op["eps1"])
    p_tilde, _ = trace_estimate(out, b(op), op["eps2"], config)
    return _report("von-neumann", (oracle,), None,
                   4.0 * math.log(1.0 / op["delta"]) * p_tilde, epsilon, record, ledger,
                   "O~(r^2 / eps^2)", config)


# ---------------------------------------------------------------------------
# Trace of positive powers, Renyi, Tsallis
# ---------------------------------------------------------------------------

def _is_odd_integer(alpha: float) -> bool:
    return abs(alpha - round(alpha)) < 1e-12 and int(round(alpha)) % 2 == 1


def estimate_trace_power(oracle: PurifiedAccessOracle, alpha: float,
                         rank_bound: int, epsilon: float,
                         config: AmplitudeEstimatorConfig) -> EstimateReport:
    """tr(rho^alpha) within epsilon: fractional powers of the state for
    alpha < 1, pure products for odd alpha, the block-encoded fractional
    power for other alpha > 1."""
    r = _validated_rank_bound(rank_bound, oracle)
    _validated_epsilon(epsilon)
    _validated_alpha("trace power", alpha, "(0, 1) or (1, inf)", alpha > 0 and alpha != 1)
    _validated_power_schedule("trace power", alpha, epsilon, r)
    return _trace_power(oracle, alpha, r, epsilon, config)


def _trace_power(oracle: PurifiedAccessOracle, alpha: float, r: int, epsilon: float,
                 config: AmplitudeEstimatorConfig) -> EstimateReport:
    """``estimate_trace_power`` on arguments its callers have validated."""
    if alpha < 1:
        def solve(eps):
            d1 = (eps / (4.0 * r)) ** (1.0 / alpha)
            return {"delta1": min(d1, 0.25),
                    "eps1": eps * min(d1, 0.25) ** (1.0 - alpha) / (4.0 * r),
                    "eps2": eps * min(d1, 0.25) ** (1.0 - alpha) / 16.0}

        def bound_fn(p):
            return (4.0 * p["delta1"] ** (alpha - 1.0) * p["eps2"]
                    + r * (p["delta1"] ** alpha
                           + p["eps1"] * p["delta1"] ** (alpha - 1.0)))

        def b(p):
            return (r ** (1 - alpha) * p["delta1"] ** (1 - alpha)
                    + r * (p["delta1"] + p["eps1"])) / 4.0

        analysis, op, record = _schedule(
            "trace-power", epsilon, solve, bound_fn,
            {"delta1": OP_FLOORS["pow_delta"], "eps1": OP_FLOORS["pow_eps"]},
            lambda op: {"eps2": epsilon * op["delta1"] ** (1 - alpha) / 16.0})
        d = positive_power_density.formula(alpha, analysis["delta1"], analysis["eps1"])
        ledger = _ledger(ae_repetitions(b(analysis), analysis["eps2"]),
                         d * (oracle.total_qubits + 1), [(oracle, 2 * d)])
        expected = "O~(r^((3 - a^2) / 2a) / eps^((3 + a) / 2a))"

        ppd = positive_power_density(oracle, alpha, op["delta1"], op["eps1"])
        p_tilde, _ = trace_estimate(ppd, b(op), op["eps2"], config)
        estimate = ppd.scale * p_tilde

    elif _is_odd_integer(alpha):
        beta = int(round(alpha - 1)) // 2
        _, record = _operational({"eps2": epsilon}, epsilon, 0, {})
        ledger = _ledger(ae_repetitions(1.0, epsilon), beta * (oracle.total_qubits + 1),
                         [(oracle, beta + 1)])
        expected = "O(1 / eps), rank-independent"
        out = evolve(oracle, encoding_power(block_encode_density(oracle), beta))
        estimate, _ = trace_estimate(out, 1.0, epsilon, config)

    else:
        x = (alpha - 1.0) / 2.0
        beta = int(math.floor(x))
        cfrac = x - beta

        def solve(eps):
            return {"delta1": min((eps / (4.0 * r)) ** (1.0 / cfrac), 0.25),
                    "eps1": min(eps / (4.0 * r), 0.25), "eps2": eps / 8.0}

        def bound_fn(p):
            return (4.0 * p["eps2"]
                    + r * (p["eps1"] + p["delta1"] ** cfrac))

        def b(p):
            return (1.0 + r * (p["eps1"] + p["delta1"] ** cfrac)) / 4.0

        analysis, op, record = _schedule(
            "trace-power", epsilon, solve, bound_fn,
            {"delta1": OP_FLOORS["powu_delta"], "eps1": OP_FLOORS["powu_eps"]},
            lambda op: {"eps2": epsilon / 8.0})
        q1 = positive_power_unitary.formula(cfrac, analysis["delta1"], analysis["eps1"])
        ledger = _ledger(ae_repetitions(b(analysis), analysis["eps2"]),
                         q1 * (oracle.total_qubits + 1), [(oracle, beta + q1)])
        expected = "O~(r^(1/frac) / eps^(1 + 1/frac))"

        w = power_unitary(block_encode_density(oracle), x, op["delta1"], op["eps1"])
        out = evolve(oracle, w.as_scale_one())
        p_tilde, _ = trace_estimate(out, b(op), op["eps2"], config)
        # evolving by a scale-s encoding W read at scale one prepares
        # (W rho W^dag) / s^2, so its trace reads the target divided by s^2;
        # the trace distance rescales by its |nu|^(alpha/2) encoding's s^2 in
        # the same way, and the fidelity's alpha-th power of the evolved state
        # by s^(2 alpha)
        estimate = w.scale ** 2 * p_tilde

    return _report("trace-power", (oracle,), alpha, estimate, epsilon, record, ledger,
                   expected, config)


def estimate_renyi(oracle: PurifiedAccessOracle, alpha: float, rank_bound: int,
                   epsilon: float, config: AmplitudeEstimatorConfig,
                   kappa: float | None = None) -> EstimateReport:
    """Renyi entropy ln(tr rho^alpha) / (1 - alpha); alpha = 0 routes to the
    max-entropy estimator and needs kappa."""
    r = _validated_rank_bound(rank_bound)
    _validated_epsilon(epsilon)
    if alpha == 0:
        if kappa is None:
            raise ValidationError("Renyi alpha = 0 (max entropy) requires kappa")
        rep = estimate_max_entropy(oracle, 0.1, epsilon, config, kappa=kappa)
        return replace(rep, quantity="renyi", alpha=0.0,
                       notes=rep.notes + ("alpha = 0 routed to max entropy "
                                          "under the kappa assumption",))
    _validated_alpha("Renyi entropy", alpha, "(0, 1) or (1, inf), or 0 with kappa",
                     alpha > 0 and alpha != 1)
    _validated_rank_bound(r, oracle)
    if alpha < 1:
        eps_inner = (1.0 - alpha) * epsilon / 2.0
        floor = 0.5
    else:
        eps_inner = (alpha - 1.0) * r ** (1.0 - alpha) * epsilon / 2.0
        floor = r ** (1.0 - alpha) / 2.0
    _validated_power_schedule("Renyi entropy", alpha, eps_inner, r)
    tp = _trace_power(oracle, alpha, r, eps_inner, config)
    x = max(tp.estimate, floor)
    return _report("renyi", (oracle,), alpha, float(np.log(x) / (1.0 - alpha)), epsilon,
                   tp.parameters, tp.ledger, tp.expected_complexity, config)


def estimate_tsallis(oracle: PurifiedAccessOracle, alpha: float, rank_bound: int,
                     epsilon: float, config: AmplitudeEstimatorConfig,
                     kappa: float | None = None) -> EstimateReport:
    """Tsallis entropy (tr rho^alpha - 1) / (1 - alpha); alpha = 0 returns
    rank - 1 and needs kappa."""
    r = _validated_rank_bound(rank_bound)
    _validated_epsilon(epsilon)
    if alpha == 0:
        rep = _exact_rank(oracle, kappa, config)
        return replace(rep, quantity="tsallis", alpha=0.0, estimate=rep.estimate - 1.0,
                       target_epsilon=epsilon, truth=lambda: rep.true_value - 1.0,
                       notes=rep.notes + ("alpha = 0 routed to exact rank "
                                          "under the kappa assumption",))
    _validated_alpha("Tsallis entropy", alpha, "(0, 1) or (1, inf), or 0 with kappa",
                     alpha > 0 and alpha != 1)
    _validated_rank_bound(r, oracle)
    eps_inner = abs(1.0 - alpha) * epsilon
    _validated_power_schedule("Tsallis entropy", alpha, eps_inner, r)
    tp = _trace_power(oracle, alpha, r, eps_inner, config)
    return _report("tsallis", (oracle,), alpha, float((tp.estimate - 1.0) / (1.0 - alpha)),
                   epsilon, tp.parameters, tp.ledger, tp.expected_complexity, config)


# ---------------------------------------------------------------------------
# Rank and max entropy
# ---------------------------------------------------------------------------

def estimate_rank(oracle: PurifiedAccessOracle, delta: float, epsilon: float,
                  epsilon_prime: float, config: AmplitudeEstimatorConfig) -> EstimateReport:
    """r~ with (1 - eps) rank_delta(rho) - eps' <= r~ <= (1 + eps) rank + eps'.

    Threshold projector at delta/2, trace estimation, rescale by 8/delta.
    """
    _validated_epsilon(epsilon)
    _validated_epsilon(epsilon_prime, "epsilon'")
    return _rank(oracle, delta, epsilon, epsilon_prime, config)


def _rank(oracle: PurifiedAccessOracle, delta: float, epsilon: float,
          epsilon_prime: float, config: AmplitudeEstimatorConfig) -> EstimateReport:
    """``estimate_rank`` on epsilons its callers have validated or derived
    from validated ones."""
    if not RANK_DELTA_MIN <= delta <= 0.1:
        raise ValidationError(f"rank estimation needs delta in [{RANK_DELTA_MIN:g}, 1/10], "
                              f"got {delta}")
    eps1 = min(delta * epsilon / 2.0, math.sqrt(delta / 64.0), 0.1)
    eps2 = delta * epsilon_prime / 8.0
    # the bound is the multiplicative part; the additive part is eps'
    op, record = _operational({"delta": delta, "eps1": eps1, "eps2": eps2},
                              2.0 * eps1 / delta, 0, {"eps1": OP_FLOORS["rank_eps"]})
    d = eigenvalue_threshold_projector.formula(delta / 2.0, eps1)
    ledger = _ledger(ae_repetitions(1.0, eps2), d * (oracle.total_qubits + 1),
                     [(oracle, 2 * d)])

    thr = eigenvalue_threshold_projector(oracle, delta / 2.0, op["eps1"])
    p_tilde, _ = trace_estimate(thr, 1.0, eps2, config)
    # the threshold projector has read these eigenvalues already
    w, _ = oracle.encoded.eigenpairs
    notes = (f"rank_delta(rho, {delta}) = {np.count_nonzero(w > delta)}",)
    return _report("rank", (oracle,), None, 8.0 * p_tilde / delta, epsilon, record,
                   ledger, "O~(1 / (delta^2 eps))", config, notes)


def _exact_rank(oracle: PurifiedAccessOracle, kappa: float | None,
                config: AmplitudeEstimatorConfig) -> EstimateReport:
    """The rank estimator's report at delta = eps = Theta(1/kappa), its
    estimate rounded: the exact rank given Pi/kappa <= rho."""
    delta = min(1.0 / (2.0 * kappa), 0.1) if kappa is not None and 1 <= kappa < math.inf else 0
    if delta < RANK_DELTA_MIN:
        raise ValidationError(f"the exact rank needs a finite kappa >= 1 and at most "
                              f"{KAPPA_MAX:g}, got {kappa}")
    w, _ = oracle.encoded.eigenpairs
    nonzero = w[w > nm.RANK_CUT]
    if nonzero.size and nonzero.min() < 1.0 / kappa - 1e-9:
        raise ValidationError(
            f"kappa assumption violated: min nonzero eigenvalue "
            f"{nonzero.min():.4g} < 1/kappa = {1.0 / kappa:.4g}")
    eps = min(1.0 / (5.0 * kappa), 0.1)
    rep = _rank(oracle, delta, eps, 0.2, config)
    return replace(rep, quantity="exact-rank", estimate=float(round(rep.estimate)),
                   target_epsilon=0.0)


def estimate_exact_rank(oracle: PurifiedAccessOracle, kappa: float,
                        config: AmplitudeEstimatorConfig) -> int:
    """Exact rank given Pi/kappa <= rho (see ``_exact_rank``)."""
    return int(_exact_rank(oracle, kappa, config).estimate)


def estimate_max_entropy(oracle: PurifiedAccessOracle, delta: float, epsilon: float,
                         config: AmplitudeEstimatorConfig,
                         kappa: float | None = None) -> EstimateReport:
    """s~ with S^max_delta(rho) - eps <= s~ <= S^max(rho) + eps; with kappa
    the truncated and plain max entropies coincide and s~ is additive-eps."""
    notes = ()
    _validated_epsilon(epsilon)
    if kappa is not None:
        delta = min(1.0 / (2.0 * kappa), 0.1) if 0 < kappa < math.inf else 0
        if delta < RANK_DELTA_MIN:
            raise ValidationError(f"max entropy needs a finite kappa > 0 and at most "
                                  f"{KAPPA_MAX:g}, got {kappa}")
        notes = (f"delta = 1/(2 kappa) = {delta} from the kappa assumption",)
    rank_rep = _rank(oracle, delta, epsilon / 4.0, epsilon / 4.0, config)
    expected = "O~(kappa^2 / eps)" if kappa is not None else "O~(1 / (delta^2 eps))"
    return _report("max-entropy", (oracle,), None,
                   float(np.log(max(rank_rep.estimate, 0.5))), epsilon,
                   rank_rep.parameters, rank_rep.ledger, expected, config, notes)


# ---------------------------------------------------------------------------
# Classical distributions
# ---------------------------------------------------------------------------

def distribution_to_purified_oracle(p, label: str = "dist") -> PurifiedAccessOracle:
    """Copy-register oracle for a classical distribution: prepare
    sum_i sqrt(p_i) |i>, CNOT-fan onto a twin register; tracing the twin
    leaves the diagonal density operator.

    The encoded operator's factor keeps one column sqrt(p_i) |i> per
    p_i > ``SUPPORT_CUT``, so its width is the support size, not N; the
    record keeps p, and the circuit prepares every p_i."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValidationError("need a probability vector of length >= 2")
    # written so that a nan or an inf fails it
    if not (p.min() >= 0 and abs(p.sum() - 1.0) <= 1e-10):
        raise ValidationError("probabilities must be finite, nonnegative and sum to one")
    n = _qubits(p.size, "distribution")
    support = np.flatnonzero(p > SUPPORT_CUT)
    factor = np.zeros((p.size, support.size))
    factor[support, np.arange(support.size)] = np.sqrt(p[support])
    encoded = SubnormalizedDensityOperator(factor, n)
    return PurifiedAccessOracle(
        step=Step("distribution", (), {"p": p}), system_qubits=n, block_ancillas=0,
        purifying_ancillas=n,
        encoded=encoded, label=label)


# ---------------------------------------------------------------------------
# Trace distance
# ---------------------------------------------------------------------------

def estimate_trace_distance(oracle_rho: PurifiedAccessOracle,
                            oracle_sigma: PurifiedAccessOracle, alpha: float,
                            rank_bound: int, epsilon: float,
                            config: AmplitudeEstimatorConfig) -> EstimateReport:
    """T_alpha(rho, sigma) = tr|(rho - sigma)/2|^alpha via the truncated
    support projector of mu = (rho + sigma)/2 sandwiched by |nu|^(alpha/2)."""
    r = _validated_rank_bound(rank_bound, oracle_rho, oracle_sigma)
    _validated_epsilon(epsilon)
    _validated_alpha("alpha-trace-distance", alpha, "(0, inf)", alpha > 0)
    if oracle_rho.system_qubits != oracle_sigma.system_qubits:
        raise ValidationError("states must share the system dimension")
    even = abs(alpha - round(alpha)) < 1e-12 and int(round(alpha)) % 2 == 0
    sfrac = alpha / 2.0 - math.floor(alpha / 2.0)  # = 1/2 for odd integer alpha
    _validated_schedule("alpha-trace-distance", alpha, alpha / 2.0,
                        (epsilon / (10.0 * r), 2.0 / min(alpha, 1.0)),
                        *([] if even else [(epsilon / (25.0 * r), 1.0 / sfrac)]))
    t_cap = 1.0 if alpha >= 1 else (2.0 * r) ** (1.0 - alpha)
    s_exp = min(alpha, 1.0) / 2.0

    def solve(eps):
        # each bound term is allocated eps / 5 up front
        if alpha >= 1:
            d1 = (eps / (10.0 * r)) ** 2 / 2.0
        else:
            d1 = (eps / (10.0 * r)) ** (2.0 / alpha) / 2.0
        d1 = min(d1, 0.1)
        p = {"delta1": d1,
             "eps1": min(eps * math.sqrt(d1) / (25.0 * t_cap),
                         math.sqrt(d1 / 64.0), 0.1),
             "eps3": eps * d1 / (20.0 if even else 80.0)}
        if not even:
            p["delta2"] = min((eps / (25.0 * r)) ** (1.0 / sfrac), 0.25)
            p["eps2"] = min(eps / (25.0 * r), 0.25)
        return p

    def bound_fn(p):
        d1 = p["delta1"]
        proj = 4.0 * p["eps1"] / math.sqrt(d1) * (1.0 + p["eps1"] / math.sqrt(d1)) \
            * t_cap + 2.0 * p["eps1"] * t_cap
        trunc = 2.0 * r * (2.0 * d1) ** s_exp
        ae = (4.0 if even else 16.0) / d1 * (p["eps3"] + 2.0 * r * QSVT_PRECISION)
        power = 0.0
        if not even:
            power = 2.0 * r * (p["eps2"] + p["delta2"] ** sfrac) \
                * (1.0 + 4.0 * p["eps1"] / math.sqrt(d1))
        return proj + trunc + ae + power

    analysis, op, record = _schedule(
        "trace-distance", epsilon, solve, bound_fn,
        {"delta1": OP_FLOORS["thr_delta"], "eps1": OP_FLOORS["thr_eps"],
         "delta2": OP_FLOORS["powu_delta"], "eps2": OP_FLOORS["powu_eps"]},
        lambda op: {"eps3": epsilon * op["delta1"] / (8.0 if even else 32.0)})
    q1 = eigenvalue_threshold_projector.formula(analysis["delta1"], analysis["eps1"])
    if even:
        per_state = q1 * int(round(alpha))
        expected = "O~(r^3 / eps^4)"
    else:
        q2 = positive_power_unitary.formula(sfrac, analysis["delta2"], analysis["eps2"])
        per_state = q1 * (q2 + max(1, math.ceil(alpha)))
        if 0 < alpha < 1:
            expected = ("O~(r^(5/a) / eps^(5/a + 1)) or "
                        "O~(r^(5/a + (1-a)/2) / eps^(5/a + 1)); both stated forms recorded")
        else:
            expected = "O~(r^(3 + 1/frac) / eps^(4 + 1/frac))"
    ledger = _ledger(ae_repetitions(analysis["delta1"], analysis["eps3"]),
                     q1 * (oracle_rho.total_qubits + oracle_sigma.total_qubits),
                     [(oracle_rho, per_state), (oracle_sigma, per_state)])

    mu_oracle = linear_combination_density([0.5, 0.5], [oracle_rho, oracle_sigma])
    thr = eigenvalue_threshold_projector(mu_oracle, op["delta1"], op["eps1"])
    # scale-1 encoding of nu = (rho - sigma)/2 through the (HX, H) pair
    w_nu = lcu(StatePreparationPair.plus_minus(),
               [block_encode_density(oracle_rho), block_encode_density(oracle_sigma)]
               ).as_scale_one()
    if even:
        half = encoding_power(w_nu, int(round(alpha)) // 2)
    else:
        half = power_unitary(w_nu, alpha / 2.0, op["delta2"], op["eps2"])
    eta = evolve(thr, half.as_scale_one())
    p_tilde, _ = trace_estimate(eta, op["delta1"], op["eps3"], config)
    return _report("trace-distance", (oracle_rho, oracle_sigma), alpha,
                   half.scale ** 2 * 4.0 / op["delta1"] * p_tilde, epsilon, record,
                   ledger, expected, config)


def trace_distance_truncation_bound(nu: np.ndarray, mu: np.ndarray, alpha: float,
                                    delta: float) -> tuple[float, float]:
    """Measured truncation gap tr(|nu|^(a/2) (P_supp - P_supp_delta) |nu|^(a/2))
    against the inherent-error bound 2 r delta^(min(a,1)/2), r = rank(mu)."""
    w, v = nm.spectral_decompose(mu)
    drop = (w > 1e-12) & (w <= delta)
    abs_nu_a = nm.matrix_function(nu, lambda x: np.abs(x) ** alpha)
    measured = float(sum((v[:, i].conj() @ abs_nu_a @ v[:, i]).real
                         for i in np.nonzero(drop)[0]))
    rank = int(np.count_nonzero(np.abs(w) > nm.RANK_CUT))   # operator_rank(mu), from this w
    bound = 2.0 * rank * delta ** (min(alpha, 1.0) / 2.0)
    return measured, bound


def holder_power_norm_check(a: np.ndarray, psi: np.ndarray,
                            alpha: float) -> tuple[float, float]:
    """||A^a psi|| versus ||A psi||^a ||psi||^(1-a) for PSD A, a in (0, 1)."""
    if not 0 < alpha < 1:
        raise ValidationError("the power-norm inequality needs alpha in (0, 1)")
    psi = np.asarray(psi, dtype=complex)
    if np.linalg.norm(psi) == 0:
        raise ValidationError("psi must be nonzero")
    a_pow = nm.matrix_function(a, lambda w: np.where(w > 0, w, 0.0) ** alpha, clamp=True)
    lhs = float(np.linalg.norm(a_pow @ psi))
    rhs = float(np.linalg.norm(np.asarray(a) @ psi) ** alpha
                * np.linalg.norm(psi) ** (1.0 - alpha))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def estimate_fidelity(oracle_rho: PurifiedAccessOracle,
                      oracle_sigma: PurifiedAccessOracle, alpha: float,
                      rank_bound: int, epsilon: float,
                      config: AmplitudeEstimatorConfig) -> EstimateReport:
    """F_alpha(rho, sigma) = tr((sigma^beta rho sigma^beta)^alpha) with
    beta = (1 - alpha)/(2 alpha); integer beta uses pure products of sigma,
    fractional beta composes the block-encoded power of sigma first."""
    r = _validated_rank_bound(rank_bound, oracle_rho)
    _validated_epsilon(epsilon)
    _validated_alpha("alpha-fidelity", alpha, "(0, 1)", 0 < alpha < 1)
    if oracle_rho.system_qubits != oracle_sigma.system_qubits:
        raise ValidationError("states must share the system dimension")
    beta = (1.0 - alpha) / (2.0 * alpha)
    bfrac = beta % 1.0  # nan at beta = inf, whose product count is refused
    integer = min(bfrac, 1.0 - bfrac) < 1e-9
    _validated_schedule("alpha-fidelity", alpha, beta,
                        (epsilon / (6.0 * r), 1.0 / (alpha if integer else alpha * bfrac)))

    if integer:
        b_int = int(round(beta))

        def solve(eps):
            d1 = min((eps / (6.0 * r)) ** (1.0 / alpha), 0.25)
            return {"delta1": d1, "eps1": d1,
                    "eps2": eps * d1 ** (1.0 - alpha) / 8.0}

        def bound_fn(p):
            return (r * (p["delta1"] ** alpha
                         + p["eps1"] * p["delta1"] ** (alpha - 1.0))
                    + 4.0 * p["delta1"] ** (alpha - 1.0) * p["eps2"])

        analysis, op, record = _schedule(
            "fidelity", epsilon, solve, bound_fn,
            {"delta1": OP_FLOORS["fid_delta"], "eps1": OP_FLOORS["fid_eps"]},
            lambda op: {"eps2": epsilon * op["delta1"] ** (1.0 - alpha) / 8.0})
        d1 = positive_power_density.formula(alpha, analysis["delta1"], analysis["eps1"])
        b_ae = analysis["delta1"] ** (1.0 - alpha) + r * (analysis["delta1"] + analysis["eps1"])
        ledger = _ledger(ae_repetitions(b_ae, analysis["eps2"]),
                         d1 * (oracle_rho.total_qubits + oracle_sigma.total_qubits),
                         [(oracle_sigma, d1 * b_int), (oracle_rho, d1)])
        expected = "O~(r^((3-a)/2a) / eps^((3+a)/2a))"

        u_beta = encoding_power(block_encode_density(oracle_sigma), b_int)
        eta = evolve(oracle_rho, u_beta)
        ppd = positive_power_density(eta, alpha, op["delta1"], op["eps1"])
        b_op = op["delta1"] ** (1.0 - alpha) * (r ** (1.0 - alpha) + 1.0) / 4.0
        p_tilde, _ = trace_estimate(ppd, b_op, op["eps2"], config)
        estimate = ppd.scale * p_tilde

    else:
        b_floor = int(math.floor(beta))

        def solve(eps):
            return {"delta1": min((eps / (6.0 * r)) ** (1.0 / (alpha * bfrac)), 0.25),
                    "eps1": min((eps / (6.0 * r)) ** (1.0 / (alpha * bfrac)), 0.25),
                    "delta2": min((eps / (6.0 * r)) ** (1.0 / alpha), 0.25),
                    "eps2": min((eps / (6.0 * r)) ** (1.0 / alpha), 0.25),
                    "eps3": eps * (6.0 * r / eps) ** ((alpha - 1.0) / alpha)
                            / (4.0 ** (alpha + 1.0) * 4.0)}

        def bound_fn(p):
            return (r * (p["eps1"] + p["delta1"] ** bfrac) ** alpha
                    + r * p["delta2"] ** (alpha - 1.0) * (p["eps2"] + p["delta2"])
                    + 4.0 ** (alpha + 1.0) * p["delta2"] ** (alpha - 1.0) * p["eps3"])

        analysis, op, record = _schedule(
            "fidelity", epsilon, solve, bound_fn,
            {"delta1": OP_FLOORS["powu_delta"], "eps1": OP_FLOORS["powu_eps"],
             "delta2": OP_FLOORS["fid_delta"], "eps2": OP_FLOORS["fid_eps"]},
            lambda op: {"eps3": epsilon * op["delta2"] ** (1.0 - alpha)
                        / (4.0 ** (alpha + 1.0) * 4.0)})
        q1 = positive_power_unitary.formula(bfrac, analysis["delta1"], analysis["eps1"])
        q2 = positive_power_density.formula(alpha, analysis["delta2"], analysis["eps2"])
        b_ae = analysis["delta2"] ** (1.0 - alpha)
        ledger = _ledger(ae_repetitions(b_ae, analysis["eps3"]), q1 * q2,
                         [(oracle_sigma, q2 * (q1 + b_floor)), (oracle_rho, q2)])
        expected = ("O~(r^((3-a)/2a + 1/(a frac)) / eps^((3+a)/2a + 1/(a frac))) "
                    "to U_sigma; O~(r^((3-a)/2a) / eps^((3+a)/2a)) to U_rho")

        u_beta = power_unitary(block_encode_density(oracle_sigma), beta,
                               op["delta1"], op["eps1"])
        eta = evolve(oracle_rho, u_beta.as_scale_one())
        ppd = positive_power_density(eta, alpha, op["delta2"], op["eps2"])
        b_op = op["delta2"] ** (1.0 - alpha) * r ** (1.0 - alpha) / 4.0
        p_tilde, _ = trace_estimate(ppd, b_op, op["eps3"], config)
        estimate = u_beta.scale ** (2 * alpha) * ppd.scale * p_tilde

    return _report("fidelity", (oracle_rho, oracle_sigma), alpha, estimate, epsilon,
                   record, ledger, expected, config)


def weyl_perturbation_bound(a: np.ndarray, b: np.ndarray,
                            alpha: float) -> tuple[float, float]:
    """|tr(A^a) - tr(B^a)| versus 5 r ||A - B||^a for PSD A, B of rank <= r."""
    if not 0 < alpha < 1:
        raise ValidationError("the perturbation bound needs alpha in (0, 1)")
    lhs = abs(nm.trace_power(np.asarray(a), alpha) - nm.trace_power(np.asarray(b), alpha))
    r = max(nm.operator_rank(np.asarray(a)), nm.operator_rank(np.asarray(b)))
    rhs = 5.0 * r * nm.spectral_norm(np.asarray(a) - np.asarray(b)) ** alpha
    return lhs, rhs


# ---------------------------------------------------------------------------
# One runner per quantity
# ---------------------------------------------------------------------------

def _exact_rank_report(oracle: PurifiedAccessOracle, epsilon: float,
                       kappa: float | None,
                       config: AmplitudeEstimatorConfig) -> EstimateReport:
    # the rank is exact, so epsilon is only checked like every runner's
    _validated_epsilon(epsilon)
    return _exact_rank(oracle, kappa, config)


#: ``RUNNERS[name](oracles, ranks, epsilon, config, alpha=, kappa=, delta=,
#: epsilon_prime=)`` runs the estimator for a name in ``numerics.QUANTITIES``.
#: ``oracles`` and ``ranks`` hold one entry per state; a two-state estimator
#: takes the larger rank bound for the trace distance and the smaller for
#: the fidelity.  A report's exact value is computed when it is first read,
#: so a caller that reads only the estimate pays for no exact oracle.  The
#: runners call through module globals when they run, so a function rebound
#: on this module (for instance by a tracing harness) is the one used.
RUNNERS = {
    "von-neumann": lambda o, r, eps, config, **kw: estimate_von_neumann(
        o[0], r[0], eps, config),
    "renyi": lambda o, r, eps, config, alpha, kappa=None, **kw: estimate_renyi(
        o[0], alpha, r[0], eps, config, kappa=kappa),
    "tsallis": lambda o, r, eps, config, alpha, kappa=None, **kw: estimate_tsallis(
        o[0], alpha, r[0], eps, config, kappa=kappa),
    "trace-power": lambda o, r, eps, config, alpha, **kw: estimate_trace_power(
        o[0], alpha, r[0], eps, config),
    "rank": lambda o, r, eps, config, delta, epsilon_prime, **kw: estimate_rank(
        o[0], delta, eps, epsilon_prime, config),
    "exact-rank": lambda o, r, eps, config, kappa, **kw: _exact_rank_report(
        o[0], eps, kappa, config),
    "max-entropy": lambda o, r, eps, config, delta, kappa, **kw: estimate_max_entropy(
        o[0], delta, eps, config, kappa=kappa),
    "trace-distance": lambda o, r, eps, config, alpha, **kw: estimate_trace_distance(
        o[0], o[1], alpha, max(r), eps, config),
    "fidelity": lambda o, r, eps, config, alpha, **kw: estimate_fidelity(
        o[0], o[1], alpha, min(r), eps, config),
}
