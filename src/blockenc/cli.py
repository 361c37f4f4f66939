"""Command-line surface: fixture generation, estimation runs, inequality
verification sweeps, polynomial dumps, and query-scaling benchmarks.

Exit codes: 0 success, 2 input validation, 3 schedule budget or polynomial
certification failure, 4 verification-suite failure.  All commands are
deterministic per seed; reports embed a timestamp that honors the
SOURCE_DATE_EPOCH convention so byte-identical reruns are possible.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from . import estimation as est
from . import numerics as nm
from . import polyapprox as pa
from . import transform as tf
from .encodings import SubnormalizedDensityOperator, _qubits, purification_of
from .fixtures import (floored_spectrum_state, ginibre_state, haar_unitary,
                       named_fixture, shared_support_pair)
from .numerics import ValidationError

STATE_FORMAT = "blockenc-state-v1"
REPORT_FORMAT = "blockenc-report-v1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


# ---------------------------------------------------------------------------
# Serialization: complex entries as [re, im] pairs, matrices row-major
# ---------------------------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return datetime.datetime.fromtimestamp(t, datetime.timezone.utc).isoformat()


def _dump(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def state_payload(matrix: np.ndarray, kind: str = "explicit-matrix",
                  payload: dict | None = None, rank: int | None = None) -> dict:
    matrix = np.asarray(matrix, dtype=complex)
    return {"format": STATE_FORMAT, "kind": kind,
            "dimension": int(matrix.shape[0]),
            "rank": int(rank if rank is not None else nm.operator_rank(matrix)),
            "payload": payload or {},
            "matrix": matrix_to_json(matrix)}


def load_state(path: str) -> dict:
    """Read and validate a state file; an unreadable or malformed one raises
    ``ValidationError`` naming the path.

    A ``probability-vector`` state is decoded once, to its distribution
    ``oracle``, whose factor keeps only the support, so no N x N array is
    built; every other kind to its ``matrix_array`` and validated ``operator``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
            raise ValidationError(f"not a {STATE_FORMAT} file")
        if doc.get("kind") == "probability-vector":
            doc["oracle"] = est.distribution_to_purified_oracle(
                np.asarray(doc["payload"]["probabilities"], dtype=float))
        else:
            doc["matrix_array"] = _state_matrix(doc)
        rank = doc["rank"]
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise ValidationError(f"rank must be an integer >= 1, got {rank!r}")
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if doc.get("kind") != "probability-vector":
        # deserialized operator must pass the state invariants; oracles reuse it
        doc["operator"] = SubnormalizedDensityOperator.from_matrix(doc["matrix_array"])
    return doc


def _state_matrix(doc) -> np.ndarray:
    kind = doc.get("kind", "explicit-matrix")
    if kind == "explicit-matrix":
        return matrix_from_json(doc["matrix"])
    if kind == "named-fixture":
        return np.asarray(named_fixture(doc["payload"]["name"]), dtype=complex)
    if kind == "spectrum-with-seed":
        dim = int(doc["dimension"])
        if dim > nm.dimension_cap():
            raise ValidationError(f"dimension {dim} exceeds the cap {nm.dimension_cap()}")
        spectrum = np.asarray(doc["payload"]["spectrum"], dtype=float)
        if spectrum.size > dim:
            raise ValidationError(f"spectrum has {spectrum.size} entries, more than "
                                  f"the dimension {dim}")
        rng = np.random.default_rng(int(doc["payload"]["seed"]))
        basis = haar_unitary(dim, rng)[:, : spectrum.size]
        return (basis * spectrum) @ basis.conj().T
    raise ValidationError(f"unknown state kind {kind!r}")


def _oracle_from_state(doc: dict, label: str):
    if doc.get("kind") == "probability-vector":
        # the oracle load_state built, under this label
        return replace(doc["oracle"], label=label)
    return purification_of(doc["operator"], label=label)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_state(args) -> int:
    _qubits(args.dim, "state")
    if args.dim > nm.dimension_cap():
        raise ValidationError("dimension exceeds the cap")
    rng = np.random.default_rng(args.seed)
    rho = ginibre_state(args.dim, args.rank, rng)
    _dump(state_payload(rho, payload={"seed": args.seed, "ensemble": "ginibre"},
                        rank=args.rank), args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    q = args.quantity
    spec = nm.QUANTITIES[q]
    alpha = spec.resolve_alpha(q, args.alpha)
    if spec.states == 2 and not args.state2:
        raise ValidationError(f"{q} needs --state2")
    docs = [load_state(path) for path in (args.state, args.state2)[:spec.states]]
    oracles = [_oracle_from_state(doc, label) for doc, label in zip(docs, ("rho", "sigma"))]
    ranks = [doc["rank"] for doc in docs]
    if args.rank_bound is not None:
        ranks[0] = args.rank_bound
    config = est.AmplitudeEstimatorConfig(mode=args.ae_mode, seed=args.seed)
    report = est.RUNNERS[q](oracles, ranks, args.epsilon, config, alpha=alpha,
                            kappa=args.kappa, delta=args.delta,
                            epsilon_prime=args.epsilon_prime)
    _dump({"format": REPORT_FORMAT, "tool_version": __version__,
           "generated_at": _timestamp(), "seed": args.seed,
           "report": report.as_dict()}, args.out)
    return EXIT_OK


def _sweep(suite: str, trials: int, draw, slack: float) -> dict:
    """Run ``draw()`` -> (lhs, rhs) ``trials`` times; a trial violates the
    suite when lhs > rhs + slack, and the worst ratio is lhs / rhs."""
    worst, violations = 0.0, 0
    for _ in range(trials):
        lhs, rhs = draw()
        worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
        violations += lhs > rhs + slack
    return {"suite": suite, "trials": trials, "violations": violations,
            "worst_ratio": worst}


def _verify_weyl(trials: int, rng: np.random.Generator) -> dict:
    def draw():
        dim = int(rng.choice([4, 8]))
        a = ginibre_state(dim, int(rng.integers(1, 5)), rng)
        b = ginibre_state(dim, int(rng.integers(1, 5)), rng)
        return est.weyl_perturbation_bound(a, b, float(rng.uniform(0.05, 0.95)))

    return _sweep("weyl", trials, draw, 0.0)


def _verify_truncation(trials: int, rng: np.random.Generator) -> dict:
    def draw():
        dim = int(rng.choice([4, 8]))
        r = int(rng.integers(1, 5))
        rho, sigma = shared_support_pair(dim, min(r, dim), rng, floor=0.02)
        alpha = float(rng.uniform(0.3, 2.5))
        delta = float(rng.uniform(0.005, 0.2))
        return est.trace_distance_truncation_bound((rho - sigma) / 2.0, (rho + sigma) / 2.0,
                                                   alpha, delta)

    return _sweep("truncation", trials, draw, 1e-12)


def _verify_holder(trials: int, rng: np.random.Generator) -> dict:
    def draw():
        dim = int(rng.choice([2, 4, 8]))
        a = ginibre_state(dim, int(rng.integers(1, dim + 1)), rng)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return est.holder_power_norm_check(a, psi, float(rng.uniform(0.05, 0.95)))

    return _sweep("holder", trials, draw, 1e-10)


def _verify_sandwich(trials: int, rng: np.random.Generator) -> dict:
    """The threshold projector's output B against lo P_2delta <= B <= hi P on
    random states, where P and P_2delta project onto the eigenvectors of
    eigenvalue above 0 and above 2 delta.  ``worst_ratio`` is the largest
    violation of either side over the trials,
    max(-lambda_min(B - lo P_2delta), -lambda_min(hi P - B)), in operator-norm
    units: negative when both sides hold with that margin."""
    delta, eps = 0.05, 0.01
    lo, hi = tf.sandwich_coefficients(delta, eps)
    violations, worst = 0, -math.inf
    for _ in range(trials):
        dim = int(rng.choice([4, 8]))
        rho = ginibre_state(dim, int(rng.integers(1, 5)), rng)
        out = tf.eigenvalue_threshold_projector(
            purification_of(rho, label="rho"), delta, eps)
        got = out.encoded.matrix
        w, v = np.linalg.eigh(rho)
        supp = v[:, w > nm.RANK_CUT] @ v[:, w > nm.RANK_CUT].conj().T
        supp2d = v[:, w > 2 * delta] @ v[:, w > 2 * delta].conj().T
        ok = (tf.psd_order_holds(lo * supp2d, got)
              and tf.psd_order_holds(got, hi * supp))
        violations += not ok
        lower = np.linalg.eigvalsh(got - lo * supp2d).min()
        upper = np.linalg.eigvalsh(hi * supp - got).min()
        worst = max(worst, -float(lower), -float(upper))
    return {"suite": "sandwich", "trials": trials, "violations": violations,
            "worst_ratio": worst, "delta": delta, "epsilon": eps}


VERIFY_SUITES = {"weyl": _verify_weyl, "truncation": _verify_truncation,
                 "holder": _verify_holder, "sandwich": _verify_sandwich}


def cmd_verify(args) -> int:
    names = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    if args.trials < 1:
        raise ValidationError(f"--trials must be at least 1, got {args.trials}")
    rng = np.random.default_rng(args.seed)
    results = [VERIFY_SUITES[n](args.trials, rng) for n in names]
    payload = {"format": "blockenc-verify-v1", "tool_version": __version__,
               "generated_at": _timestamp(), "seed": args.seed, "suites": results}
    _dump(payload, args.out)
    for res in results:
        status = "pass" if res["violations"] == 0 else "FAIL"
        print(f"{res['suite']}: {status} ({res['trials']} trials, "
              f"worst ratio {res['worst_ratio']:.4f})", file=sys.stderr)
    return EXIT_OK if all(r["violations"] == 0 for r in results) else EXIT_VERIFY


def cmd_approx_poly(args) -> int:
    """Build and dump one family of ``polyapprox.FAMILIES``; each constructor
    parameter reads the flag of its name, and sqrt-neglog's delta' reads
    --delta.  The constructor is looked up on ``pa`` when the command runs,
    so one rebound on that module (for instance by a tracing harness) is the
    one used."""
    family = pa.FAMILIES[args.family]
    poly = getattr(pa, family.constructor)(
        **{p: getattr(args, "delta" if p == "delta_prime" else p) for p in family.ranges})
    _dump({"format": "blockenc-poly-v1", "tool_version": __version__,
           "family": poly.family, "params": poly.params,
           "degree": poly.degree, "parity": poly.parity,
           "certified_interval": list(poly.certified_interval),
           "certified_error": poly.certified_error,
           "global_bound": poly.global_bound,
           "chebyshev_coefficients": [float(c) for c in poly.coefficients]},
          args.out)
    return EXIT_OK


BENCH_QUANTITIES = ("von-neumann", "renyi", "tsallis", "trace-power",
                    "trace-distance", "fidelity")
#: The largest dimension of a bench-scaling fixture, so its largest rank.
BENCH_DIM_MAX = 16


def _bench_fixture(quantity: str, r: int, rng: np.random.Generator):
    dim = min(max(4, 1 << (2 * r - 1).bit_length()), BENCH_DIM_MAX)
    if nm.QUANTITIES[quantity].states == 2:
        floor = min(0.2, 0.8 / r)
        a, b = shared_support_pair(dim, r, rng, floor=floor)
        return purification_of(a, label="rho"), purification_of(b, label="sigma")
    rho = floored_spectrum_state(dim, r, rng, floor=min(0.1, 0.8 / r))
    return (purification_of(rho, label="rho"),)


def _slope(xs, qs) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(qs, dtype=float)), 1)[0])


def _positive_list(text: str | None, kind, flag: str) -> list:
    """A comma-separated list of positive ``kind`` values; empty if absent."""
    if not text:
        return []
    try:
        values = [kind(x) for x in text.split(",")]
    except ValueError:
        values = []
    if not values or not all(math.isfinite(v) and v > 0 for v in values):
        raise ValidationError(f"{flag} must be a comma-separated list of positive "
                              f"numbers, got {text!r}")
    return values


def cmd_bench_scaling(args) -> int:
    q = args.quantity
    alpha = nm.QUANTITIES[q].resolve_alpha(q, args.alpha)
    sweep_r = _positive_list(args.sweep_r, int, "--sweep-r")
    sweep_eps = _positive_list(args.sweep_eps, float, "--sweep-eps")
    if args.r < 1:
        raise ValidationError(f"--r must be at least 1, got {args.r}")
    for flag, ranks in (("--sweep-r", sweep_r), ("--r", [args.r] if sweep_eps else [])):
        if any(r > BENCH_DIM_MAX for r in ranks):
            raise ValidationError(f"{flag} must be at most the fixture's dimension "
                                  f"{BENCH_DIM_MAX}, got {max(ranks)}")
    config = est.AmplitudeEstimatorConfig(mode="analytic", seed=args.seed)
    runs = ([(r, args.epsilon, (args.seed, r)) for r in sweep_r]
            + [(args.r, eps, (args.seed, 1000)) for eps in sweep_eps])
    points = []
    for r, eps, key in runs:
        oracles = _bench_fixture(q, r, np.random.default_rng(key))
        rep = est.RUNNERS[q](oracles, [r] * len(oracles), eps, config, alpha=alpha)
        points.append({"r": r, "eps": eps, "queries": dict(rep.ledger.queries),
                       "total": rep.ledger.query_count()})
    r_qs = [p["total"] for p in points[:len(sweep_r)]]
    e_qs = [p["total"] for p in points[len(sweep_r):]]
    payload = {"format": "blockenc-bench-v1", "tool_version": __version__,
               "generated_at": _timestamp(), "quantity": q,
               "alpha": alpha, "seed": args.seed, "points": points,
               "slope_tolerance_note": "fits absorb polylog factors; defaults "
                                       "+-0.5 in r and +-0.7 in 1/eps"}
    if len(r_qs) >= 2:
        payload["slope_r"] = _slope(sweep_r, r_qs)
    if len(e_qs) >= 2:
        payload["slope_eps"] = _slope([1.0 / e for e in sweep_eps], e_qs)
    _dump(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="blockenc",
        description="Desk-scale simulator for block-encoded density operators")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-state", help="write a random low-rank density operator")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--rank", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen_state)

    e = sub.add_parser("estimate", help="run an estimator and write its report")
    e.add_argument("--quantity", choices=tuple(nm.QUANTITIES), required=True)
    e.add_argument("--alpha", type=float, default=None)
    e.add_argument("--epsilon", type=float, default=0.1)
    e.add_argument("--state", required=True)
    e.add_argument("--state2", default=None)
    e.add_argument("--rank-bound", type=int, default=None)
    e.add_argument("--ae-mode", choices=est.MODES, default="analytic")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--kappa", type=float, default=None)
    e.add_argument("--delta", type=float, default=0.05)
    e.add_argument("--epsilon-prime", type=float, default=0.1)
    e.add_argument("--out", default=None)
    e.set_defaults(fn=cmd_estimate)

    v = sub.add_parser("verify", help="run the inequality verification sweeps")
    v.add_argument("--suite", default="all",
                   choices=tuple(VERIFY_SUITES) + ("all",))
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    p = sub.add_parser("approx-poly", help="construct and dump a certified polynomial")
    p.add_argument("--family", choices=tuple(pa.FAMILIES), required=True)
    p.add_argument("--c", type=float, default=0.5)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_approx_poly)

    b = sub.add_parser("bench-scaling", help="ledger query counts across sweeps")
    b.add_argument("--quantity", choices=BENCH_QUANTITIES, required=True)
    b.add_argument("--alpha", type=float, default=None)
    b.add_argument("--sweep-r", default=None)
    b.add_argument("--sweep-eps", default=None)
    b.add_argument("--epsilon", type=float, default=0.1)
    b.add_argument("--r", type=int, default=2)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default=None)
    b.set_defaults(fn=cmd_bench_scaling)
    return parser


def _check_numbers(args) -> None:
    """The --seed >= 0 several commands share; --alpha's range is each
    estimator's."""
    if getattr(args, "seed", 0) < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (est.ScheduleBudgetError, pa.CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
