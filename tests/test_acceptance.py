"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from blockenc import circuits
from blockenc import encodings as enc
from blockenc import estimation as est
from blockenc import numerics as nm
from blockenc import polyapprox as pa
from blockenc import transform as tf
from blockenc.encodings import purification_of
from blockenc.fixtures import (curated_pairs, curated_single_states, ginibre_state,
                               haar_unitary, maximally_mixed, shared_support_pair)

CFG = est.AmplitudeEstimatorConfig(mode="analytic", seed=13)


def announce(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def oracle_for(m, label="rho"):
    return purification_of(m, label=label)


def test_criterion_1_polynomial_certification():
    start = time.monotonic()
    checked = 0
    for delta in (0.1, 0.05):
        for eps in (1e-2, 1e-3):
            cases = [
                (pa.approx_positive_power(0.5, delta, eps),
                 lambda x: 0.5 * np.abs(x) ** 0.5, (delta, 1.0)),
                (pa.approx_negative_power(0.5, delta, eps),
                 lambda x: (delta ** 0.5 / 2.0) * np.abs(x) ** -0.5, (delta, 1.0)),
                (pa.approx_threshold(0.5, delta, eps),
                 lambda x: np.ones_like(x), (0.0, 0.5 - delta)),
                (pa.approx_support_indicator(delta, eps),
                 lambda x: np.ones_like(x), (2 * delta, 1.0)),
                (pa.approx_interior_indicator(delta, eps),
                 lambda x: np.ones_like(x), (0.0, 1.0 - 2 * delta)),
                (pa.approx_sqrt_neglog(delta, eps),
                 lambda x: np.sqrt(-np.log(x)) / (2 * np.sqrt(np.log(1 / delta))),
                 (delta, 1.0 - delta)),
            ]
            for poly, target, (lo, hi) in cases:
                grid = np.linspace(lo, hi, 10001)
                assert np.abs(poly(grid) - target(grid)).max() <= eps * (1 + 1e-6)
                assert poly.global_bound <= poly.bound_limit + 1e-9
                full = np.linspace(-1, 1, 10001)
                assert np.abs(poly(full)).max() <= poly.bound_limit + 1e-9
                checked += 1
    elapsed = time.monotonic() - start
    announce(1, "polynomial certification", checked == 24 and elapsed < 10.0,
             f"[{checked} certificates in {elapsed:.2f} s]")


def test_criterion_2_block_encoding_calculus():
    rng = np.random.default_rng(202)
    worst = 0.0
    dilation_defect = 0.0
    for i in range(200):
        dim = int(rng.choice([2, 4, 8, 16]))
        n = dim.bit_length() - 1
        rho = ginibre_state(dim, int(rng.integers(1, min(4, dim) + 1)), rng)
        sigma = ginibre_state(dim, int(rng.integers(1, min(4, dim) + 1)), rng)
        o_r, o_s = oracle_for(rho, "rho"), oracle_for(sigma, "sigma")
        b = rng.uniform(0.2, 1.0) * haar_unitary(dim, rng)
        d_rho, d_b = enc.dilate(rho), enc.dilate(b)
        dilation_defect = max(dilation_defect, enc.unitarity_defect(circuits.unitary(d_rho)),
                              enc.unitarity_defect(circuits.unitary(d_b)))
        ev = enc.evolve(o_r, d_b)
        worst = max(worst, nm.spectral_norm(ev.encoded.matrix - b @ rho @ b.conj().T))
        pr = enc.product(d_rho, enc.dilate(sigma))
        worst = max(worst, nm.spectral_norm(pr.scale * circuits.block(pr) - rho @ sigma))
        w = enc.lcu(enc.StatePreparationPair.plus_minus(), [d_rho, enc.dilate(sigma)])
        worst = max(worst, nm.spectral_norm(w.scale * circuits.block(w) - (rho - sigma)))
        mix = enc.linear_combination_density([0.5, 0.5], [o_r, o_s])
        worst = max(worst, nm.spectral_norm(mix.encoded.matrix - (rho + sigma) / 2))
        worst = max(worst, nm.spectral_norm(circuits.extract(mix) - (rho + sigma) / 2))
    announce(2, "block-encoding calculus",
             worst <= 1e-8 and dilation_defect <= 1e-9,
             f"[worst deviation {worst:.2e}, dilation defect {dilation_defect:.2e}]")


def test_criterion_3_threshold_projector_sandwich():
    delta, eps = 0.05, 0.01
    assert 32 * eps ** 2 <= delta
    lo, hi = tf.sandwich_coefficients(delta, eps)
    rng = np.random.default_rng(303)
    failures = 0
    for i in range(100):
        dim = int(rng.choice([4, 8]))
        rho = ginibre_state(dim, int(rng.integers(1, 5)), rng)
        out = tf.eigenvalue_threshold_projector(oracle_for(rho), delta, eps)
        got = out.encoded.matrix
        w, v = np.linalg.eigh(rho)
        supp = v[:, w > 1e-10] @ v[:, w > 1e-10].conj().T
        supp2d = v[:, w > 2 * delta] @ v[:, w > 2 * delta].conj().T
        ok = (tf.psd_order_holds(lo * supp2d, got)
              and tf.psd_order_holds(got, hi * supp))
        failures += not ok
    announce(3, "threshold-projector sandwich", failures == 0,
             f"[100 fixtures at delta={delta}, eps={eps}, {failures} failures]")


def _single_state_cases():
    states = curated_single_states(20)
    cases = []
    for rho, rank, kappa in states:
        cases.append((oracle_for(rho), rho, rank, kappa))
    return cases


def test_criterion_4_estimator_correctness_analytic():
    eps = 0.1
    t0 = time.monotonic()
    singles = _single_state_cases()
    td_pairs = curated_pairs(20, "trace-distance")
    fid_pairs = curated_pairs(20, "fidelity")
    results = {}

    def record(name, errors):
        results[name] = (sum(e <= eps for e in errors), max(errors))

    record("von-neumann", [est.estimate_von_neumann(o, r, eps, CFG).error
                           for o, _, r, _ in singles])
    for a in (0.5, 2.0, 3.0):
        record(f"renyi-{a}", [est.estimate_renyi(o, a, r, eps, CFG).error
                              for o, _, r, _ in singles])
    for a in (0.5, 3.0):
        record(f"tsallis-{a}", [est.estimate_tsallis(o, a, r, eps, CFG).error
                                for o, _, r, _ in singles])
    for a in (1.0, 2.0):
        errs = []
        for rho, sigma, r in td_pairs:
            rep = est.estimate_trace_distance(oracle_for(rho, "rho"),
                                              oracle_for(sigma, "sigma"),
                                              a, r, eps, CFG)
            errs.append(rep.error)
        record(f"trace-distance-{a}", errs)
    for a in (0.5, 1.0 / 3.0):
        errs = []
        for rho, sigma, r in fid_pairs:
            rep = est.estimate_fidelity(oracle_for(rho, "rho"),
                                        oracle_for(sigma, "sigma"), a, r, eps, CFG)
            errs.append(rep.error)
        record(f"fidelity-{a:.3g}", errs)
    record("max-entropy", [est.estimate_max_entropy(o, 0.05, eps, CFG, kappa=k).error
                           for o, _, _, k in singles])
    elapsed = time.monotonic() - t0
    ok = all(hits == 20 for hits, _ in results.values()) and elapsed < 120.0
    detail = "; ".join(f"{k}: {hits}/20 (max {mx:.3g})"
                       for k, (hits, mx) in results.items())
    announce(4, "estimator correctness, analytic mode", ok,
             f"[{elapsed:.1f} s] {detail}")


def test_criterion_5_statistical_mode():
    rng = np.random.default_rng(505)
    freqs = []
    for p, reps in ((0.3, 64), (0.5, 128)):
        probs = est.ae_outcome_distribution(p, reps)
        draws = rng.choice(reps, size=500, p=probs)
        estimates = np.sin(np.pi * draws / reps) ** 2
        bound = est.ae_error_bound(p, reps)
        freqs.append(float(np.mean(np.abs(estimates - p) <= bound)))
    ae_ok = all(f >= 0.75 for f in freqs)

    eps = 0.2
    successes = 0
    for i, (o, rho, r, _) in enumerate(_single_state_cases()):
        cfg = est.AmplitudeEstimatorConfig(mode="sampled", seed=600 + i,
                                           median_trials=3)
        rep = est.estimate_von_neumann(o, r, eps, cfg)
        successes += rep.error <= eps
    announce(5, "statistical mode", ae_ok and successes >= 18,
             f"[AE in-bound freqs {freqs}, median-amplified {successes}/20]")


def test_criterion_6_inequality_sweeps():
    rng = np.random.default_rng(606)
    weyl_bad = trunc_bad = holder_bad = 0
    for _ in range(1000):
        dim = int(rng.choice([4, 8]))
        a = ginibre_state(dim, int(rng.integers(1, 5)), rng)
        b = ginibre_state(dim, int(rng.integers(1, 5)), rng)
        alpha = float(rng.uniform(0.05, 0.95))
        lhs, rhs = est.weyl_perturbation_bound(a, b, alpha)
        weyl_bad += lhs > rhs

        rho, sigma = shared_support_pair(dim, int(rng.integers(1, 5)), rng, floor=0.01)
        talpha = float(rng.uniform(0.3, 2.5))
        delta = float(rng.uniform(0.002, 0.2))
        measured, bound = est.trace_distance_truncation_bound(
            (rho - sigma) / 2.0, (rho + sigma) / 2.0, talpha, delta)
        trunc_bad += measured > bound + 1e-12

        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lhs, rhs = est.holder_power_norm_check(a, psi, alpha)
        holder_bad += lhs > rhs + 1e-10
    announce(6, "inequality sweeps",
             weyl_bad == trunc_bad == holder_bad == 0,
             f"[violations: weyl {weyl_bad}, truncation {trunc_bad}, "
             f"holder {holder_bad} out of 1000 each]")


def _slope(xs, qs):
    return float(np.polyfit(np.log(np.asarray(xs, float)),
                            np.log(np.asarray(qs, float)), 1)[0])


def test_criterion_7_ledger_exponents():
    rng = np.random.default_rng(707)
    results = {}

    def sweep_r(name, runner, expected, tol):
        qs = [float(runner(r, 0.1).ledger.query_count()) for r in (2, 4, 8)]
        s = _slope([2, 4, 8], qs)
        results[f"{name} vs r"] = (s, expected, abs(s - expected) <= tol)

    def sweep_eps(name, runner, expected, tol):
        qs = [float(runner(2, e).ledger.query_count()) for e in (0.4, 0.2, 0.1)]
        s = _slope([2.5, 5.0, 10.0], qs)
        results[f"{name} vs 1/eps"] = (s, expected, abs(s - expected) <= tol)

    def vn(r, e):
        rho = curated_single_states(1, seed=(710 + r))[0][0] if r == 1 else \
            ginibre_state(16, r, np.random.default_rng((711, r)))
        return est.estimate_von_neumann(oracle_for(rho), r, e, CFG)

    def td(r, e):
        rho, sigma = shared_support_pair(16, r, np.random.default_rng((712, r)),
                                         floor=min(0.1, 0.8 / r))
        return est.estimate_trace_distance(oracle_for(rho, "rho"),
                                           oracle_for(sigma, "sigma"), 1.0, r, e, CFG)

    def fid(r, e):
        rho, sigma = shared_support_pair(16, r, np.random.default_rng((713, r)),
                                         floor=min(0.2, 0.8 / r))
        return est.estimate_fidelity(oracle_for(rho, "rho"),
                                     oracle_for(sigma, "sigma"), 0.5, r, e, CFG)

    sweep_r("von-neumann", vn, 2.0, 0.5)
    sweep_eps("von-neumann", vn, 2.0, 0.7)
    sweep_r("trace-distance", td, 5.0, 0.5)
    sweep_eps("trace-distance", td, 6.0, 0.7)
    sweep_r("fidelity", fid, 6.5, 0.5)
    sweep_eps("fidelity", fid, 7.5, 0.7)

    tsallis_counts = []
    for r in (2, 4, 8):
        rho = ginibre_state(16, r, np.random.default_rng((714, r)))
        rep = est.estimate_tsallis(oracle_for(rho), 3.0, r, 0.1, CFG)
        tsallis_counts.append(rep.ledger.query_count())
    tsallis_flat = len(set(tsallis_counts)) == 1
    results["tsallis-3 vs r"] = (0.0 if tsallis_flat else _slope([2, 4, 8],
                                                                 tsallis_counts),
                                 0.0, tsallis_flat)

    ok = all(hit for _, _, hit in results.values())
    detail = "; ".join(f"{k}: {s:.2f} (want {w}±)" for k, (s, w, _) in results.items())
    announce(7, "ledger exponents", ok, f"[{detail}]")


def test_criterion_8_classical_distribution_path():
    eps = 0.05
    exact4 = -0.5 * ((0.25 ** 3) * 4 - 1.0)   # 15/32 for the uniform 4-outcome law
    assert abs(exact4 - 15.0 / 32.0) < 1e-15
    counts = {}
    estimates = {}
    for n_out in (4, 8):
        oracle = est.distribution_to_purified_oracle(np.ones(n_out) / n_out)
        rep = est.estimate_tsallis(oracle, 3.0, n_out, eps, CFG)
        counts[n_out] = rep.ledger.query_count()
        estimates[n_out] = rep.estimate
    within = abs(estimates[4] - exact4) <= eps
    announce(8, "classical distribution path",
             within and counts[4] == counts[8],
             f"[estimate {estimates[4]:.5f} vs exact {exact4:.5f}; "
             f"queries N=4: {counts[4]}, N=8: {counts[8]}]")
