import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blockenc import circuits
from blockenc import encodings as enc
from blockenc import estimation as est
from blockenc import numerics as nm
from blockenc.encodings import SUPPORT_CUT, SubnormalizedDensityOperator, purification_of
from blockenc.fixtures import (floored_spectrum_state, ginibre_state,
                               maximally_mixed, pure_state, shared_support_pair)
from blockenc.numerics import ValidationError

CFG = est.AmplitudeEstimatorConfig(mode="analytic", seed=7)


def oracle_for(m, label="rho"):
    return purification_of(m, label=label)


# -- amplitude estimation ------------------------------------------------------

def test_ae_zero_amplitude_in_all_modes():
    zero = est.SubnormalizedDensityOperator.from_matrix(np.zeros((2, 2), dtype=complex))
    o = purification_of(zero)
    for mode in est.MODES:
        cfg = est.AmplitudeEstimatorConfig(mode=mode, repetitions=32, seed=1)
        p, _ = est.amplitude_estimate(o, cfg)
        assert p == 0.0


def test_ae_bound_formula():
    o = oracle_for(maximally_mixed(2))
    cfg = est.AmplitudeEstimatorConfig(mode="analytic", repetitions=100)
    _, bound = est.amplitude_estimate(o, cfg)
    # p = 1 here, so check the formula directly at p = 0.5
    assert abs(est.ae_error_bound(0.5, 100)
               - (2 * math.pi * 0.5 / 100 + math.pi ** 2 / 100 ** 2)) < 1e-15


def test_ae_outcome_distribution_normalized_and_peaked():
    probs = est.ae_outcome_distribution(0.3, 64)
    assert abs(probs.sum() - 1.0) < 1e-12
    grid = np.sin(np.pi * np.arange(64) / 64) ** 2
    bound = est.ae_error_bound(0.3, 64)
    assert probs[np.abs(grid - 0.3) <= bound].sum() >= 8 / math.pi ** 2


def test_ae_sampled_monte_carlo_hits_bound_frequency():
    rng = np.random.default_rng(0)
    probs = est.ae_outcome_distribution(0.3, 64)
    draws = rng.choice(64, size=1000, p=probs)
    estimates = np.sin(np.pi * draws / 64) ** 2
    bound = est.ae_error_bound(0.3, 64)
    assert np.mean(np.abs(estimates - 0.3) <= bound) >= 0.8


def _isclose_outcome_distribution(p, reps):
    """The outcome distribution with its near-integer test written as
    np.isclose(x - round(x), 0, atol=1e-12), the reference formula."""
    omega = math.asin(math.sqrt(p)) / math.pi
    m = np.arange(reps)

    def kernel(x):
        num = np.sin(np.pi * reps * x) ** 2
        den = reps ** 2 * np.sin(np.pi * x) ** 2
        out = np.where(np.abs(den) < 1e-300, 1.0, num / np.where(den == 0, 1.0, den))
        return np.where(np.isclose(x - np.round(x), 0.0, atol=1e-12), 1.0, out)

    probs = 0.5 * (kernel(m / reps - omega) + kernel(m / reps + omega))
    return probs / probs.sum()


@pytest.mark.parametrize("p, reps", [(0.0, 64), (1.0, 64), (0.0, 1), (1.0, 7),
                                     (0.5, 64), (0.25, 150), (0.3, 146),
                                     (1.0 / 3.0, 1000), (0.0123, 39268)])
def test_ae_outcome_distribution_is_bit_identical_to_the_isclose_formula(p, reps):
    # (0.5, 64) and (0.25, 150) put an outcome exactly on an eigenphase
    got = est.ae_outcome_distribution(p, reps)
    assert got.tobytes() == _isclose_outcome_distribution(p, reps).tobytes()


# -- trace estimation ----------------------------------------------------------

def test_trace_estimate_normalized_state():
    val, _ = est.trace_estimate(oracle_for(maximally_mixed(4)), 1.0, 0.01, CFG)
    assert abs(val - 1.0) < 0.01


def test_trace_estimate_subnormalized():
    a = est.SubnormalizedDensityOperator.from_matrix(np.diag([0.3, 0.0]).astype(complex))
    val, _ = est.trace_estimate(purification_of(a), 1.0, 0.01, CFG)
    assert 0.29 <= val <= 0.31


def test_trace_estimate_repetition_formula():
    # M = ceil(2 pi (2 sqrt(1)/0.1 + 1/sqrt(0.1))) = 146
    assert est.ae_repetitions(1.0, 0.1) == 146
    _, reps = est.trace_estimate(oracle_for(maximally_mixed(2)), 1.0, 0.1, CFG)
    assert reps == 146


def _oracle_with_trace(p):
    """A stand-in oracle: trace_estimate reads only the encoded trace."""
    return SimpleNamespace(encoded=SimpleNamespace(trace=p))


@pytest.mark.parametrize("p, bound, epsilon, seed, k", [
    (0.0, 1.0, 0.1, 0, 3),
    (0.3, 1.0, 0.1, 11, 3),
    (0.3, 0.5, 0.05, 11, 1),
    (0.97, 1.0, 0.2, 5, 4),
    (0.0123, 0.1, 0.01, 3, 3),
    (0.45, 1.0, 4e-4, 42, 3),     # M = 31 731 outcomes
])
def test_sampled_trace_estimate_is_the_median_of_its_ae_samples(p, bound, epsilon,
                                                                 seed, k):
    # 2k+1 draws from one distribution, each with its own generator, are
    # exactly the median of 2k+1 independent ae_sample calls
    cfg = est.AmplitudeEstimatorConfig(mode="sampled", seed=seed, median_trials=k)
    reps = est.ae_repetitions(bound, epsilon)
    want = float(np.median([est.ae_sample(p, reps, cfg.rng("trace", 0, t))
                            for t in range(2 * k + 1)]))
    assert est.trace_estimate(_oracle_with_trace(p), bound, epsilon, cfg) == (want, reps)


@pytest.mark.parametrize("p", [0.0, 1e-6, 0.0123, 0.3, 0.5, 0.97, 1.0])
@pytest.mark.parametrize("reps", [1, 2, 7, 146, 31731])
def test_ae_draws_from_one_cdf_equal_generator_choice(p, reps):
    # the CDF is formed once per distribution; each draw inverts it at one
    # uniform variate, as Generator.choice does, so it consumes the same
    # stream and lands on the same outcome
    probs = est.ae_outcome_distribution(p, reps)
    cdf = est._ae_cdf(probs)
    for seed in range(5):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            m = theirs.choice(reps, p=probs)
            assert est._ae_draw(cdf, mine) == float(np.sin(np.pi * m / reps) ** 2)
        assert mine.random() == theirs.random()


@pytest.mark.parametrize("p, reps, seed", [
    (0.3, 64, 0), (0.3, 64, 2),     # seed 0 draws the + sign, seed 2 the -
    (0.9, 4, 0), (0.9, 4, 2),       # p +- bound leaves [0, 1] on both sides
])
def test_amplitude_estimate_adversarial_and_sampled_modes(p, reps, seed):
    # adversarial: p moved by the full stated bound, its sign drawn from the
    # "ae-adv" stream, clipped to [0, 1]; sampled: one draw from "ae-sample"
    bound = est.ae_error_bound(p, reps)
    adv = est.AmplitudeEstimatorConfig(mode="adversarial", repetitions=reps, seed=seed)
    sign = 1.0 if adv.rng("ae-adv").random() < 0.5 else -1.0
    assert est.amplitude_estimate(_oracle_with_trace(p), adv) == (
        min(1.0, max(0.0, p + sign * bound)), bound)
    sampled = est.AmplitudeEstimatorConfig(mode="sampled", repetitions=reps, seed=seed)
    assert est.amplitude_estimate(_oracle_with_trace(p), sampled) == (
        est.ae_sample(p, reps, sampled.rng("ae-sample")), bound)


def test_trace_estimate_rejects_bad_bound():
    with pytest.raises(ValidationError):
        est.trace_estimate(oracle_for(maximally_mixed(2)), 0.5, 0.01, CFG)


# -- von Neumann ---------------------------------------------------------------

def test_von_neumann_maximally_mixed():
    rep = est.estimate_von_neumann(oracle_for(maximally_mixed(4)), 4, 0.1, CFG)
    assert abs(rep.estimate - math.log(4)) <= 0.1
    assert rep.error <= 0.1


def test_von_neumann_pure_state():
    rep = est.estimate_von_neumann(oracle_for(pure_state(2)), 1, 0.1, CFG)
    assert abs(rep.estimate) <= 0.1


def test_von_neumann_random_rank3():
    rng = np.random.default_rng(21)
    rho = floored_spectrum_state(8, 3, rng, floor=0.05)
    rep = est.estimate_von_neumann(oracle_for(rho), 3, 0.1, CFG)
    assert rep.error <= 0.1
    assert rep.parameters["bound_value"] <= 0.1


# -- rank, exact rank, max entropy ---------------------------------------------

def test_rank_estimation_two_sided_bound():
    rep = est.estimate_rank(oracle_for(maximally_mixed(2)), 0.05, 0.1, 0.1, CFG)
    assert (1 - 0.1) * 2 - 0.1 <= rep.estimate <= (1 + 0.1) * 2 + 0.1


def test_rank_estimation_pure_state():
    rep = est.estimate_rank(oracle_for(pure_state(2)), 0.05, 0.1, 0.1, CFG)
    assert abs(rep.estimate - 1.0) <= 0.35


def test_rank_estimation_partial_spectrum():
    rho = np.diag([0.6, 0.35, 0.05, 0.0]).astype(complex)
    rep = est.estimate_rank(oracle_for(rho), 0.1, 0.1, 0.1, CFG)
    rank_delta, rank = 2, 3
    assert (1 - 0.1) * rank_delta - 0.1 <= rep.estimate <= (1 + 0.1) * rank + 0.1


def test_exact_rank_examples():
    assert est.estimate_exact_rank(oracle_for(maximally_mixed(2)), 2.0, CFG) == 2
    assert est.estimate_exact_rank(oracle_for(pure_state(2)), 1.0, CFG) == 1
    rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
    assert est.estimate_exact_rank(oracle_for(rho), 5.0, CFG) == 3


def test_exact_rank_detects_kappa_violation():
    rho = np.diag([0.95, 0.05]).astype(complex)
    with pytest.raises(ValidationError):
        est.estimate_exact_rank(oracle_for(rho), 2.0, CFG)


def test_max_entropy_examples():
    rep = est.estimate_max_entropy(oracle_for(maximally_mixed(4)), 0.05, 0.1, CFG,
                                   kappa=4.0)
    assert abs(rep.estimate - math.log(4)) <= 0.1
    rep = est.estimate_max_entropy(oracle_for(pure_state(2)), 0.05, 0.1, CFG, kappa=1.0)
    assert abs(rep.estimate) <= 0.1


# -- trace powers, Renyi, Tsallis ------------------------------------------------

def test_trace_power_odd_alpha_maximally_mixed():
    rep = est.estimate_trace_power(oracle_for(maximally_mixed(2)), 3.0, 2, 0.05, CFG)
    assert abs(rep.estimate - 0.25) <= 0.05


def test_trace_power_alpha_two_diagonal():
    rho = np.diag([0.75, 0.25]).astype(complex)
    rep = est.estimate_trace_power(oracle_for(rho), 2.0, 2, 0.05, CFG)
    assert abs(rep.estimate - 0.625) <= 0.05


def test_trace_power_alpha_half_diagonal():
    rho = np.diag([0.75, 0.25]).astype(complex)
    rep = est.estimate_trace_power(oracle_for(rho), 0.5, 2, 0.05, CFG)
    want = math.sqrt(3) / 2 + 0.5
    assert abs(want - 1.3660254) < 1e-6
    assert abs(rep.estimate - want) <= 0.05


def test_renyi_examples():
    rep = est.estimate_renyi(oracle_for(maximally_mixed(2)), 2.0, 2, 0.1, CFG)
    assert abs(rep.estimate - math.log(2)) <= 0.1
    rho = np.diag([0.75, 0.25]).astype(complex)
    rep = est.estimate_renyi(oracle_for(rho), 0.5, 2, 0.1, CFG)
    want = 2.0 * math.log(math.sqrt(3) / 2 + 0.5)
    assert abs(want - 0.623811) < 1e-5
    assert abs(rep.estimate - want) <= 0.1
    rng = np.random.default_rng(23)
    rho = floored_spectrum_state(4, 2, rng, floor=0.1)
    rep = est.estimate_renyi(oracle_for(rho), 3.0, 2, 0.1, CFG)
    assert rep.error <= 0.1


def test_tsallis_examples():
    rep = est.estimate_tsallis(oracle_for(maximally_mixed(2)), 3.0, 2, 0.05, CFG)
    assert abs(rep.estimate - 0.375) <= 0.05
    rep = est.estimate_tsallis(oracle_for(pure_state(2)), 0.5, 1, 0.05, CFG)
    assert abs(rep.estimate) <= 0.05


def test_tsallis_alpha_zero_routes_to_rank():
    rep = est.estimate_tsallis(oracle_for(maximally_mixed(2)), 0.0, 2, 0.1, CFG,
                               kappa=2.0)
    assert rep.estimate == 1.0
    with pytest.raises(ValidationError):
        est.estimate_tsallis(oracle_for(maximally_mixed(2)), 0.0, 2, 0.1, CFG)


def test_tsallis_odd_alpha_ledger_is_rank_independent():
    rng = np.random.default_rng(29)
    counts = []
    for r in (2, 8):
        rho = floored_spectrum_state(16, r, rng, floor=0.04)
        rep = est.estimate_tsallis(oracle_for(rho), 3.0, r, 0.1, CFG)
        counts.append(rep.ledger.query_count())
    assert counts[0] == counts[1]


# -- classical distributions -----------------------------------------------------

def test_distribution_oracle_point_mass():
    o = est.distribution_to_purified_oracle([1.0, 0.0])
    assert np.allclose(o.encoded.matrix, pure_state(2), atol=1e-12)
    assert enc.unitarity_defect(circuits.unitary(o)) <= enc.UNITARITY_TOL
    circuits.check(o, 1e-9)


def test_distribution_oracle_uniform():
    o = est.distribution_to_purified_oracle(np.ones(4) / 4)
    assert np.allclose(circuits.extract(o), maximally_mixed(4), atol=1e-10)


def test_distribution_oracle_general():
    p = [0.5, 0.3, 0.2, 0.0]
    o = est.distribution_to_purified_oracle(p)
    assert np.allclose(circuits.extract(o), np.diag(p), atol=1e-10)


def test_distribution_oracle_factor_keeps_only_the_support():
    # one column per p_i above the support cut; the circuit still prepares
    # every p_i, so the extracted block is the full diagonal
    p = np.array([0.5, 0.0, 0.3, 1e-15, 0.2, 0.0, 0.0, 0.0])
    p = p / p.sum()
    o = est.distribution_to_purified_oracle(p)
    assert o.encoded.factor.shape == (8, 3)
    assert np.allclose(o.encoded.factor @ o.encoded.factor.T,
                       np.diag(np.where(p > SUPPORT_CUT, p, 0.0)), rtol=0.0, atol=1e-16)
    assert np.allclose(circuits.extract(o), np.diag(p), atol=1e-10)
    assert est.distribution_to_purified_oracle(np.ones(4) / 4).encoded.factor.shape == (4, 4)


def test_distribution_oracle_validation():
    with pytest.raises(ValidationError):
        est.distribution_to_purified_oracle([0.5, 0.2])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_distribution_oracle_rejects_non_finite_probabilities(bad):
    # the finite entries sum to one, so only the finiteness test rejects it
    with pytest.raises(ValidationError, match="probabilities must be finite"):
        est.distribution_to_purified_oracle([bad, 0.5, 0.25, 0.25])


# -- trace distance ---------------------------------------------------------------

def test_trace_distance_identical_states():
    rng = np.random.default_rng(31)
    rho = floored_spectrum_state(4, 2, rng, floor=0.1)
    rep = est.estimate_trace_distance(oracle_for(rho, "rho"),
                                      oracle_for(rho.copy(), "sigma"), 1.0, 2, 0.1, CFG)
    assert abs(rep.estimate) <= 0.1


def test_trace_distance_orthogonal_pure_states():
    rep = est.estimate_trace_distance(oracle_for(pure_state(2, 0), "rho"),
                                      oracle_for(pure_state(2, 1), "sigma"),
                                      1.0, 1, 0.1, CFG)
    assert abs(rep.estimate - 1.0) <= 0.1


def test_trace_distance_commuting_example():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = maximally_mixed(2)
    rep = est.estimate_trace_distance(oracle_for(rho, "rho"),
                                      oracle_for(sigma, "sigma"), 1.0, 2, 0.1, CFG)
    assert abs(rep.estimate - 0.5) <= 0.1
    rep2 = est.estimate_trace_distance(oracle_for(rho, "rho"),
                                       oracle_for(sigma, "sigma"), 2.0, 2, 0.1, CFG)
    assert abs(rep2.estimate - 0.125) <= 0.1


def test_truncation_bound_examples():
    rng = np.random.default_rng(37)
    rho, sigma = shared_support_pair(8, 3, rng, floor=0.05)
    nu = (rho - sigma) / 2.0
    mu = (rho + sigma) / 2.0
    measured, bound = est.trace_distance_truncation_bound(np.zeros_like(mu), mu, 1.0, 0.1)
    assert measured == 0.0
    # delta below the smallest nonzero eigenvalue: empty truncation
    measured, bound = est.trace_distance_truncation_bound(nu, mu, 1.0, 1e-6)
    assert measured <= 1e-12
    measured, bound = est.trace_distance_truncation_bound(nu, mu, 1.0, 0.1)
    assert measured <= bound


def test_truncation_bound_decomposes_mu_once(linalg_calls):
    # mu's decomposition gives the dropped eigenvectors and the rank; nu's
    # absolute power is the other eigh
    rho, sigma = shared_support_pair(8, 3, np.random.default_rng(5), floor=0.02)
    nu, mu = (rho - sigma) / 2.0, (rho + sigma) / 2.0
    linalg_calls.clear()
    got = est.trace_distance_truncation_bound(nu, mu, 1.0, 0.25)
    assert dict(linalg_calls) == {"eigh": 2}
    assert got == (0.0691398675568902, 3.0)


def _svd_eigenpairs(a):
    v, s, _ = np.linalg.svd(a.factor, full_matrices=False)
    keep = s ** 2 > SUPPORT_CUT
    return s[keep] ** 2, v[:, keep]


def test_full_rank_mixture_reads_eigenpairs_from_its_gram_matrix(monkeypatch, linalg_calls):
    # mu = (rho + sigma) / 2 of a full-rank pair has a 32 x 64 factor; its
    # eigenpairs come from an eigh of the 32 x 32 F F^dag, not a 32 x 64 SVD
    rho, sigma = shared_support_pair(32, 32, np.random.default_rng(3), floor=0.01)
    fr, fs = (oracle_for(m).encoded.factor for m in (rho, sigma))
    mu = SubnormalizedDensityOperator(np.hstack([fr, fs]) / np.sqrt(2.0), 5)
    linalg_calls.clear()
    w, v = mu.eigenpairs
    assert linalg_calls.shapes == [("eigh", (32, 32))]
    assert w.size == 32 and np.all(np.diff(w) <= 0)
    assert np.allclose(w, _svd_eigenpairs(mu)[0], rtol=0.0, atol=1e-12)
    assert np.linalg.norm((v * w) @ v.conj().T - (rho + sigma) / 2.0) < 1e-12

    def trace_distance():
        oracles = [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")]
        return est.RUNNERS["trace-distance"](oracles, [32, 32], 0.1, CFG, alpha=1.0,
                                             delta=0.05, epsilon_prime=0.1).estimate

    gram = trace_distance()
    monkeypatch.setattr(SubnormalizedDensityOperator, "eigenpairs", property(_svd_eigenpairs))
    assert abs(gram - trace_distance()) <= 1e-12


def test_holder_power_norm_inequality():
    lhs, rhs = est.holder_power_norm_check(np.eye(2, dtype=complex),
                                           np.array([1.0, 1.0]) / np.sqrt(2), 0.5)
    assert abs(lhs - rhs) < 1e-12
    rng = np.random.default_rng(41)
    for _ in range(20):
        a = ginibre_state(4, 3, rng)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs, rhs = est.holder_power_norm_check(a, psi, float(rng.uniform(0.1, 0.9)))
        assert lhs <= rhs + 1e-10


# -- fidelity ---------------------------------------------------------------------

def test_fidelity_identical_pure_states():
    rep = est.estimate_fidelity(oracle_for(pure_state(2), "rho"),
                                oracle_for(pure_state(2), "sigma"), 0.5, 1, 0.1, CFG)
    assert abs(rep.estimate - 1.0) <= 0.1


def test_fidelity_orthogonal_pure_states():
    rep = est.estimate_fidelity(oracle_for(pure_state(2, 0), "rho"),
                                oracle_for(pure_state(2, 1), "sigma"), 0.5, 1, 0.1, CFG)
    assert abs(rep.estimate) <= 0.1


def test_fidelity_commuting_example():
    rho = np.diag([1.0, 0.0]).astype(complex)
    rep = est.estimate_fidelity(oracle_for(rho, "rho"),
                                oracle_for(maximally_mixed(2), "sigma"),
                                0.5, 1, 0.1, CFG)
    assert abs(rep.estimate - math.sqrt(0.5)) <= 0.1


def test_fidelity_integer_beta_commuting():
    # alpha = 1/3 -> beta = 1: F = sum p^(1/3) q^(2/3) on commuting states
    p = np.array([0.6, 0.4])
    q = np.array([0.3, 0.7])
    rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
    rep = est.estimate_fidelity(oracle_for(rho, "rho"), oracle_for(sigma, "sigma"),
                                1.0 / 3.0, 2, 0.1, CFG)
    want = float((p ** (1 / 3) * q ** (2 / 3)).sum())
    assert abs(rep.true_value - want) < 1e-9
    assert abs(rep.estimate - want) <= 0.1


def test_weyl_perturbation_bound():
    rng = np.random.default_rng(43)
    a = ginibre_state(4, 2, rng)
    lhs, rhs = est.weyl_perturbation_bound(a, a, 0.5)
    assert lhs < 1e-12
    for _ in range(50):
        a = ginibre_state(4, int(rng.integers(1, 4)), rng)
        b = ginibre_state(4, int(rng.integers(1, 4)), rng)
        lhs, rhs = est.weyl_perturbation_bound(a, b, float(rng.uniform(0.1, 0.9)))
        assert lhs <= rhs


# -- rank bounds ------------------------------------------------------------------

def test_trace_distance_rejects_a_rank_bound_below_its_inputs():
    # both inputs have rank 64; unchecked, ranks [4, 4] give 0.077 against a
    # truth of 0.418 with a bound_value of 0.072 and no flag
    oracles = (oracle_for(maximally_mixed(64), "rho"),
               oracle_for(ginibre_state(64, 64, np.random.default_rng(0)), "sigma"))
    with pytest.raises(ValidationError, match="rank bound 4 is below the rank 64"):
        est.RUNNERS["trace-distance"](oracles, [4, 4], 0.1, CFG, alpha=1.0)


@pytest.mark.parametrize("quantity, alpha", [
    ("von-neumann", None), ("trace-power", 0.5), ("trace-power", 2.0),
    ("trace-power", 3.0), ("renyi", 0.5), ("tsallis", 2.0), ("trace-distance", 1.0),
    ("fidelity", 0.5)])
def test_every_rank_bounded_estimator_checks_its_input(quantity, alpha):
    wide = oracle_for(ginibre_state(16, 5, np.random.default_rng(1)), "rho")
    narrow = oracle_for(ginibre_state(16, 4, np.random.default_rng(2)), "sigma")
    with pytest.raises(ValidationError, match="rank bound 4 is below the rank 5"):
        est.RUNNERS[quantity]((wide, narrow), [4, 4], 0.1, CFG, alpha=alpha)


def test_rank_bound_checks_sigma_for_the_trace_distance_only():
    wide = oracle_for(ginibre_state(16, 5, np.random.default_rng(1)), "sigma")
    narrow = oracle_for(ginibre_state(16, 4, np.random.default_rng(2)), "rho")
    with pytest.raises(ValidationError, match="below the rank 5 of input 'sigma'"):
        est.RUNNERS["trace-distance"]((narrow, wide), [4, 4], 0.1, CFG, alpha=1.0)
    rep = est.RUNNERS["fidelity"]((narrow, wide), [4, 4], 0.1, CFG, alpha=0.5)
    assert abs(rep.error) <= 0.1


def test_rank_bound_counts_the_support_of_a_wider_factor():
    # a factor diag(sqrt(p)), 8 columns here, of which two are nonzero (the
    # distribution oracle itself keeps only the support columns)
    p = np.zeros(8)
    p[[1, 6]] = [0.7, 0.3]
    oracle = dataclasses.replace(est.distribution_to_purified_oracle(p),
                                 encoded=SubnormalizedDensityOperator(np.diag(np.sqrt(p)), 3))
    assert oracle.encoded.factor.shape == (8, 8)
    rep = est.estimate_von_neumann(oracle, 2, 0.1, CFG)
    assert abs(rep.error) <= 0.1
    with pytest.raises(ValidationError, match="rank bound 1 is below the rank 2"):
        est.estimate_von_neumann(oracle, 1, 0.1, CFG)


# -- ledger and report invariants ------------------------------------------------

def test_fidelity_counts_oracles_separately():
    rng = np.random.default_rng(53)
    rho, sigma = shared_support_pair(4, 2, rng, floor=0.2)
    rep = est.estimate_fidelity(oracle_for(rho, "rho"), oracle_for(sigma, "sigma"),
                                0.5, 2, 0.1, CFG)
    assert rep.ledger.query_count("sigma") > rep.ledger.query_count("rho") > 0


def test_sampled_mode_median_amplification():
    cfg = est.AmplitudeEstimatorConfig(mode="sampled", seed=11, median_trials=3)
    rng = np.random.default_rng(59)
    ok = 0
    for trial in range(10):
        rho = floored_spectrum_state(4, 2, rng, floor=0.1)
        rep = est.estimate_von_neumann(oracle_for(rho), 2, 0.2,
                                       est.AmplitudeEstimatorConfig(
                                           mode="sampled", seed=trial, median_trials=3))
        if rep.error <= 0.2:
            ok += 1
        assert 0.9 <= rep.success_probability_note <= 1.0
    assert ok >= 9


def test_adversarial_mode_stays_within_epsilon():
    rng = np.random.default_rng(61)
    rho = floored_spectrum_state(4, 2, rng, floor=0.1)
    cfg = est.AmplitudeEstimatorConfig(mode="adversarial", seed=3)
    rep = est.estimate_von_neumann(oracle_for(rho), 2, 0.2, cfg)
    assert rep.error <= 0.2


def test_renyi_alpha_zero_routes_to_max_entropy():
    rep = est.estimate_renyi(oracle_for(maximally_mixed(4)), 0.0, 4, 0.1, CFG,
                             kappa=4.0)
    assert rep.quantity == "renyi" and rep.alpha == 0.0
    assert abs(rep.estimate - math.log(4)) <= 0.1
    with pytest.raises(ValidationError):
        est.estimate_renyi(oracle_for(maximally_mixed(4)), 0.0, 4, 0.1, CFG)


def test_higher_alpha_compositions_stay_under_dimension_cap():
    # nu-power chains on dim-8 states compose matrices and costs only; their
    # literal tensor circuits, far above the cap, are never built
    rng = np.random.default_rng(67)
    rho, sigma = shared_support_pair(8, 3, rng, floor=0.1)
    o_r, o_s = oracle_for(rho, "rho"), oracle_for(sigma, "sigma")
    for alpha in (3.0, 4.0, 1.5):
        rep = est.estimate_trace_distance(o_r, o_s, alpha, 3, 0.1, CFG)
        assert rep.error <= 0.1
    tau = floored_spectrum_state(8, 3, rng, floor=0.1)
    rep = est.estimate_trace_power(oracle_for(tau), 2.5, 3, 0.1, CFG)
    assert rep.error <= 0.1


#: (quantity, alpha) pairs that between them run every estimator branch that
#: calls product, lcu or dilate.
NO_CIRCUIT_CASES = [("von-neumann", None), ("renyi", 0.5), ("renyi", 2.0),
                    ("tsallis", 2.0), ("trace-power", 0.5), ("trace-power", 2.5),
                    ("trace-power", 3.0), ("rank", None), ("exact-rank", None),
                    ("max-entropy", None), ("trace-distance", 1.0),
                    ("trace-distance", 1.5), ("trace-distance", 3.0),
                    ("trace-distance", 4.0), ("fidelity", 0.5), ("fidelity", 0.25),
                    ("fidelity", 0.2)]


@pytest.mark.parametrize("quantity, alpha", NO_CIRCUIT_CASES)
def test_estimators_make_no_system_sized_decomposition(linalg_calls, quantity, alpha):
    # inputs are factored by pivoted Cholesky, and a unitary transform
    # decomposes only its block's compression to the block's support, so
    # until the exact value is read every eigh, svd and spectral norm sees an
    # array with a side below the dimension
    dim = 256
    rho, sigma = shared_support_pair(dim, 4, np.random.default_rng(3))
    w = np.linalg.eigvalsh(rho)
    linalg_calls.clear()
    oracles = [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")]
    rep = est.RUNNERS[quantity](oracles, [4, 4], 0.1, CFG, alpha=alpha,
                                kappa=1.0 / w[w > 1e-10].min(), delta=0.05,
                                epsilon_prime=0.1)
    assert math.isfinite(rep.estimate)
    assert linalg_calls.shapes
    assert [s for s in linalg_calls.shapes if min(s[1]) >= dim] == []


@pytest.fixture(scope="module")
def pair_at_1024():
    rho, sigma = shared_support_pair(1024, 4, np.random.default_rng(3))
    return [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")]


@pytest.mark.parametrize("quantity, alpha", [
    ("von-neumann", None), ("trace-power", 0.5), ("trace-power", 2.0),
    ("trace-power", 3.0), ("rank", None), ("trace-distance", 1.0),
    ("trace-distance", 2.0), ("trace-distance", 3.0), ("fidelity", 0.5),
    ("fidelity", 0.25), ("fidelity", 0.2)])
def test_estimators_allocate_no_system_sized_array(pair_at_1024, quantity, alpha):
    # one N x N complex array at d = 1024 is 16 MiB; blocks are held as a
    # support, a compression and a kernel value, so no estimate allocates one
    tracemalloc.start()
    try:
        rep = est.RUNNERS[quantity](pair_at_1024, [4, 4], 0.1, CFG, alpha=alpha,
                                    delta=0.05, epsilon_prime=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(rep.estimate)
    assert peak < 16 * 2 ** 20


#: with the kappa routes these cases run every branch of every runner
EVERY_BRANCH = NO_CIRCUIT_CASES + [("renyi", 0.0), ("tsallis", 0.0)]

#: Runs every branch through ``estimation.RUNNERS``, then one CLI estimate and
#: ``verify``, in a fresh interpreter; prints, as JSON, each run's estimate and
#: whether ``blockenc.circuits`` had been imported by the time it finished.
SEPARATION_SCRIPT = """
import json, os, sys
import numpy as np
from blockenc import cli, estimation as est
from blockenc.encodings import purification_of
from blockenc.fixtures import shared_support_pair

rho, sigma = shared_support_pair(16, 4, np.random.default_rng(3))
w = np.linalg.eigvalsh(rho)
config = est.AmplitudeEstimatorConfig(mode="analytic", seed=7)
out = {}
for quantity, alpha in json.loads(sys.argv[1]):
    oracles = [purification_of(rho, label="rho"), purification_of(sigma, label="sigma")]
    rep = est.RUNNERS[quantity](oracles, [4, 4], 0.1, config, alpha=alpha,
                                kappa=1.0 / w[w > 1e-10].min(), delta=0.05,
                                epsilon_prime=0.1)
    out[f"{quantity}-{alpha}"] = [rep.estimate, "blockenc.circuits" in sys.modules]
state = os.path.join(sys.argv[2], "rho.json")
codes = [cli.main(["gen-state", "--dim", "16", "--rank", "4", "--out", state]),
         cli.main(["estimate", "--quantity", "von-neumann", "--state", state,
                   "--out", os.devnull]),
         cli.main(["verify", "--trials", "2", "--out", os.devnull])]
out["cli"] = [codes, "blockenc.circuits" in sys.modules]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def separation_run(tmp_path_factory):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", SEPARATION_SCRIPT, json.dumps(EVERY_BRANCH),
         str(tmp_path_factory.mktemp("separation"))],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("quantity, alpha", EVERY_BRANCH)
def test_estimators_build_no_circuit(separation_run, quantity, alpha):
    # the estimators read matrices and costs only: none of them imports the
    # module that builds circuits
    estimate, circuits_loaded = separation_run[f"{quantity}-{alpha}"]
    assert math.isfinite(estimate)
    assert not circuits_loaded


def test_cli_builds_no_circuit(separation_run):
    codes, circuits_loaded = separation_run["cli"]
    assert codes == [0, 0, 0]
    assert not circuits_loaded


def test_estimation_names_no_polynomial_family():
    # each family choice has one home, the named transform that certifies it:
    # the estimators import nothing from polyapprox and certify nothing
    tree = ast.parse(Path(est.__file__).read_text(encoding="utf-8"))
    modules = ([n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
               + [a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                  for a in n.names])
    assert modules and not [m for m in modules if "polyapprox" in m]
    called = [getattr(n.func, "id", getattr(n.func, "attr", None))
              for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert "certified" not in called and not [c for c in called
                                              if c and c.startswith("approx_")]


def test_circuit_above_the_cap_is_refused(monkeypatch):
    # a cap of 16 admits no circuit with an ancilla on a d = 16 system
    monkeypatch.setenv("BLOCKENC_DIM_CAP", "16")
    rho = floored_spectrum_state(16, 4, np.random.default_rng(3))
    oracle = oracle_for(rho)
    est.estimate_von_neumann(oracle, 4, 0.1, CFG)
    with pytest.raises(ValidationError, match="total dimension 64 exceeds the cap 16"):
        circuits.unitary(oracle)

_TP_FRACTIONAL = "O~(r^((3 - a^2) / 2a) / eps^((3 + a) / 2a))"
_TP_UNITARY = "O~(r^(1/frac) / eps^(1 + 1/frac))"
_TD_ODD = "O~(r^(3 + 1/frac) / eps^(4 + 1/frac))"
_FID_FRACTIONAL = ("O~(r^((3-a)/2a + 1/(a frac)) / eps^((3+a)/2a + 1/(a frac))) "
                   "to U_sigma; O~(r^((3-a)/2a) / eps^((3+a)/2a)) to U_rho")
_TD_BELOW_ONE = ("O~(r^(5/a) / eps^(5/a + 1)) or "
                 "O~(r^(5/a + (1-a)/2) / eps^(5/a + 1)); both stated forms recorded")

#: every branch, plus trace distance at alpha < 1: it runs at the pinned
#: inputs (r = 2, eps = 0.2), but at r = 4, eps = 0.1 its schedule raises
#: ScheduleBudgetError, so it stays out of EVERY_BRANCH
PINNED_CASES = EVERY_BRANCH + [("trace-distance", 0.5)]

#: (queries, controlled, gates, expected_complexity) of each case's ledger on
#: shared_support_pair(8, 2, default_rng(3)) at eps = 0.2
PINNED_LEDGERS = {
    ("von-neumann", None): ({"rho": 19156392}, {"rho": 5416}, 47890980, "O~(r^2 / eps^2)"),
    ("renyi", 0.5): ({"rho": 82977581170}, {"rho": 63866}, 207443952925, _TP_FRACTIONAL),
    ("renyi", 2.0): ({"rho": 1141256808}, {"rho": 2196}, 5706284040, _TP_UNITARY),
    ("tsallis", 2.0): ({"rho": 14354272}, {"rho": 608}, 71771360, _TP_UNITARY),
    ("trace-power", 0.5): ({"rho": 503820328}, {"rho": 8536}, 1259550820, _TP_FRACTIONAL),
    ("trace-power", 2.5): ({"rho": 1227552}, {"rho": 608}, 6137760, _TP_UNITARY),
    ("trace-power", 3.0): ({"rho": 154}, {"rho": 154}, 385, "O(1 / eps), rank-independent"),
    ("rank", None): ({"rho": 86317920}, {"rho": 40716}, 215794800, "O~(1 / (delta^2 eps))"),
    ("exact-rank", None): ({"rho": 17831744}, {"rho": 11872}, 44579360,
                           "O~(1 / (delta^2 eps))"),
    ("max-entropy", None): ({"rho": 66525316}, {"rho": 46948}, 166313290, "O~(kappa^2 / eps)"),
    ("trace-distance", 1.0): ({"rho": 3934637783320499868, "sigma": 3934637783320499868},
                              {"rho": 1457266, "sigma": 1457266}, 11401719132768, _TD_ODD),
    ("trace-distance", 1.5): ({"rho": 99152200008333720, "sigma": 99152200008333720},
                              {"rho": 1457266, "sigma": 1457266}, 11401719132768, _TD_ODD),
    ("trace-distance", 3.0): ({"rho": 3934640633750283060, "sigma": 3934640633750283060},
                              {"rho": 1457266, "sigma": 1457266}, 11401719132768, _TD_ODD),
    ("trace-distance", 4.0): ({"rho": 1459983004896, "sigma": 1459983004896},
                              {"rho": 373204, "sigma": 373204}, 2919966009792,
                              "O~(r^3 / eps^4)"),
    ("fidelity", 0.5): ({"rho": 2386357430, "sigma": 4052050613599174540},
                        {"rho": 32380, "sigma": 32380}, 4052050613599174540, _FID_FRACTIONAL),
    ("fidelity", 0.25): ({"rho": 807614166150996,
                          "sigma": 35544981574357680934945873599348},
                         {"rho": 1383636, "sigma": 1383636},
                         35544981574357680127331707448352, _FID_FRACTIONAL),
    ("fidelity", 0.2): ({"rho": 179356958044953885, "sigma": 358713916089907770},
                        {"rho": 4023922, "sigma": 4023922}, 1434855664359631080,
                        "O~(r^((3-a)/2a) / eps^((3+a)/2a))"),
    ("renyi", 0.0): ({"rho": 66525316}, {"rho": 46948}, 166313290, "O~(kappa^2 / eps)"),
    ("tsallis", 0.0): ({"rho": 17831744}, {"rho": 11872}, 44579360,
                       "O~(1 / (delta^2 eps))"),
    ("trace-distance", 0.5): ({"rho": 379137969505174344748659714570,
                               "sigma": 379137969505174344748659714570},
                              {"rho": 145726562, "sigma": 145726562},
                              17578557855642312976, _TD_BELOW_ONE),
}


#: each case's estimate under the same inputs, so that a change to how a
#: transform is realized shows in the estimates and not only in the ledger
PINNED_ESTIMATES = {
    ("von-neumann", None): 0.46168839970893993,
    ("renyi", 0.5): 0.5633746588649566,
    ("renyi", 2.0): 0.3377786615230567,
    ("tsallis", 2.0): 0.28705358547839177,
    ("trace-power", 0.5): 1.3253642528012273,
    ("trace-power", 2.5): 0.6334516418614005,
    ("trace-power", 3.0): 0.5701963473465239,
    ("rank", None): 1.9998220581193356,
    ("exact-rank", None): 2.0,
    ("max-entropy", None): 0.6930520349882963,
    ("trace-distance", 1.0): 0.34996521251104773,
    ("trace-distance", 1.5): 0.1463977095319334,
    ("trace-distance", 3.0): 0.010716560112268974,
    ("trace-distance", 4.0): 0.0018753158306020793,
    ("fidelity", 0.5): 0.9302601079891082,
    ("fidelity", 0.25): 0.9469335672428726,
    ("fidelity", 0.2): 0.9549075623156648,
    ("renyi", 0.0): 0.6930520349882963,
    ("tsallis", 0.0): 1.0,
    ("trace-distance", 0.5): 0.8365933370016769,    # the truth is 0.8366380796602069
}


#: (adversarial, sampled) estimates of each case under the same inputs at
#: seed 3, so that a changed generator key shows
PINNED_AE_ESTIMATES = {
    ("von-neumann", None): (0.4679999748331197, 0.45907384134923757),
    ("renyi", 0.5): (0.5711386729058104, 0.5670446300739667),
    ("renyi", 2.0): (0.3264419243791555, 0.334701709468561),
    ("tsallis", 2.0): (0.25670597740468604, 0.2730372773686498),
    ("trace-power", 0.5): (1.3452297679197849, 1.328857817243822),
    ("trace-power", 2.5): (0.6639595843016649, 0.6414533222054136),
    ("trace-power", 3.0): (0.6122567978198998, 0.5711574191366425),
    ("rank", None): (2.0053120378617915, 1.999884631358046),
    ("exact-rank", None): (2.0, 2.0),
    ("max-entropy", None): (0.6948501253432962, 0.6935836471864517),
    ("trace-distance", 1.0): (0.3571141136823212, 0.3471413417659783),
    ("trace-distance", 1.5): (0.1510345168671052, 0.14805809221984076),
    ("trace-distance", 3.0): (0.011997506682009707, 0.010446781109974003),
    ("trace-distance", 4.0): (0.0030127956484120866, 0.002147037256549449),
    ("fidelity", 0.5): (0.9437023955615156, 0.9360503750269958),
    ("fidelity", 0.25): (0.9616785728597486, 0.949489531378496),
    ("fidelity", 0.2): (0.9819937637812065, 0.9565639466659018),
    ("renyi", 0.0): (0.6948501253432962, 0.6935836471864517),
    ("tsallis", 0.0): (1.0, 1.0),
    ("trace-distance", 0.5): (0.8476250216349888, 0.8350206351280545),
}

#: (analysis, operational, bound_value, tightening_rounds, clamped): each
#: case's schedule record under the same inputs
_VN_SCHEDULE = {"delta": 0.016666666666666666, "eps1": 0.004900235063253435,
                "eps2": 0.004900235063253435}
_RANK_SCHEDULE = {"delta": 0.05, "eps1": 0.005000000000000001,
                  "eps2": 0.0006250000000000001}
_EXACT_RANK_SCHEDULE = {"delta": 0.08665059245426145, "eps1": 0.001501665034534902,
                        "eps2": 0.0021662648113565364}
_MAX_ENTROPY_SCHEDULE = {"delta": 0.08665059245426145, "eps1": 0.0021662648113565364,
                         "eps2": 0.0005415662028391341}
_TD_ODD_ANALYSIS = {"delta1": 5e-05, "eps1": 5.656854249492381e-05,
                    "eps3": 1.2500000000000002e-07, "delta2": 1.6e-05, "eps2": 0.004}
_TD_ODD_OPERATIONAL = {"delta1": 0.01, "eps1": 0.0005, "eps3": 6.25e-05, "delta2": 0.01,
                       "eps2": 0.004}
PINNED_SCHEDULES = {
    ("von-neumann", None): (_VN_SCHEDULE, _VN_SCHEDULE, 0.11358633648088912, 1, False),
    ("renyi", 0.5): ({"delta1": 3.906250000000001e-05, "eps1": 3.906250000000001e-05,
                      "eps2": 1.9531250000000004e-05},
                     {"delta1": 0.02, "eps1": 0.001, "eps2": 0.0004419417382415922},
                     0.037500000000000006, 0, True),
    ("renyi", 2.0): ({"delta1": 3.906250000000001e-05, "eps1": 0.00625, "eps2": 0.00625},
                     {"delta1": 0.01, "eps1": 0.00625, "eps2": 0.00625}, 0.05, 0, True),
    ("tsallis", 2.0): ({"delta1": 0.0006250000000000001, "eps1": 0.025, "eps2": 0.025},
                       {"delta1": 0.01, "eps1": 0.025, "eps2": 0.025}, 0.2, 0, True),
    ("trace-power", 0.5): ({"delta1": 0.0006250000000000001, "eps1": 0.0006250000000000001,
                            "eps2": 0.00031250000000000006},
                           {"delta1": 0.02, "eps1": 0.001, "eps2": 0.0017677669529663688},
                           0.15000000000000002, 0, True),
    ("trace-power", 2.5): ({"delta1": 0.007310044345532168, "eps1": 0.025, "eps2": 0.025},
                           {"delta1": 0.01, "eps1": 0.025, "eps2": 0.025}, 0.2, 0, True),
    ("trace-power", 3.0): ({"eps2": 0.2}, {"eps2": 0.2}, 0.2, 0, False),
    ("rank", None): (_RANK_SCHEDULE, _RANK_SCHEDULE, 0.20000000000000004, 0, False),
    ("exact-rank", None): (_EXACT_RANK_SCHEDULE, _EXACT_RANK_SCHEDULE,
                           0.034660236981704576, 0, False),
    ("max-entropy", None): (_MAX_ENTROPY_SCHEDULE, _MAX_ENTROPY_SCHEDULE, 0.05, 0, False),
    ("trace-distance", 1.0): (_TD_ODD_ANALYSIS, _TD_ODD_OPERATIONAL,
                              0.14539441708498985, 0, True),
    ("trace-distance", 1.5): ({**_TD_ODD_ANALYSIS, "delta2": 0.0006349604207872801},
                              _TD_ODD_OPERATIONAL, 0.14539441708498985, 0, True),
    ("trace-distance", 3.0): (_TD_ODD_ANALYSIS, _TD_ODD_OPERATIONAL,
                              0.14539441708498985, 0, True),
    ("trace-distance", 4.0): ({"delta1": 5e-05, "eps1": 5.656854249492381e-05,
                               "eps3": 5.000000000000001e-07},
                              {"delta1": 0.01, "eps1": 0.0005, "eps3": 0.00025},
                              0.11236945708498985, 0, True),
    ("fidelity", 0.5): ({"delta1": 7.71604938271605e-08, "eps1": 7.71604938271605e-08,
                         "delta2": 0.0002777777777777778, "eps2": 0.0002777777777777778,
                         "eps3": 0.00010416666666666667},
                        {"delta1": 0.01, "eps1": 0.001, "delta2": 0.004, "eps2": 0.001,
                         "eps3": 0.0003952847075210474},
                        0.1500046293081722, 0, True),
    ("fidelity", 0.25): ({"delta1": 5.953741807651272e-15, "eps1": 5.953741807651272e-15,
                          "delta2": 7.71604938271605e-08, "eps2": 7.71604938271605e-08,
                          "eps3": 4.0920531318665943e-08},
                         {"delta1": 0.01, "eps1": 0.001, "delta2": 0.004, "eps2": 0.001,
                          "eps3": 0.00014058533129758727},
                         0.15000000064300412, 0, True),
    ("fidelity", 0.2): ({"delta1": 1.2860082304526748e-09, "eps1": 1.2860082304526748e-09,
                         "eps2": 1.9290123456790104e-09},
                        {"delta1": 0.004, "eps1": 0.001, "eps2": 0.0003017088168272581},
                        0.16666666666666669, 0, True),
    ("renyi", 0.0): (_MAX_ENTROPY_SCHEDULE, _MAX_ENTROPY_SCHEDULE, 0.05, 0, False),
    ("tsallis", 0.0): (_EXACT_RANK_SCHEDULE, _EXACT_RANK_SCHEDULE,
                       0.034660236981704576, 0, False),
    ("trace-distance", 0.5): ({"delta1": 5e-09, "eps1": 2.8284271247461903e-07,
                               "eps3": 1.25e-11, "delta2": 2.5600000000000005e-10,
                               "eps2": 0.004},
                              _TD_ODD_OPERATIONAL, 0.15744113137084992, 0, True),
}


def pinned_report(quantity, alpha, config):
    """The case's report on shared_support_pair(8, 2, default_rng(3)) at eps = 0.2."""
    rho, sigma = shared_support_pair(8, 2, np.random.default_rng(3))
    oracles = [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")]
    w = np.linalg.eigvalsh(rho)
    return est.RUNNERS[quantity](oracles, [2, 2], 0.2, config, alpha=alpha,
                                 kappa=1.0 / w[w > 1e-10].min(), delta=0.05,
                                 epsilon_prime=0.1)


@pytest.mark.parametrize("quantity, alpha", PINNED_CASES)
def test_ledger_counts_are_pinned(quantity, alpha):
    rep = pinned_report(quantity, alpha, CFG)
    led = rep.as_dict()["ledger"]
    got = (led["queries"], led["controlled"], led["gates"], led["expected_complexity"])
    assert got == PINNED_LEDGERS[quantity, alpha]
    assert rep.estimate == pytest.approx(PINNED_ESTIMATES[quantity, alpha], rel=1e-12)


@pytest.mark.parametrize("quantity, alpha", PINNED_CASES)
def test_schedules_and_amplitude_estimates_are_pinned(quantity, alpha):
    params = pinned_report(quantity, alpha, CFG).parameters
    analysis, operational, bound, rounds, clamped = PINNED_SCHEDULES[quantity, alpha]
    assert set(params) == {"analysis", "operational", "bound_value", "tightening_rounds",
                           "clamped"}
    assert params["analysis"] == pytest.approx(analysis, rel=1e-12)
    assert params["operational"] == pytest.approx(operational, rel=1e-12)
    assert params["bound_value"] == pytest.approx(bound, rel=1e-12)
    assert (params["tightening_rounds"], params["clamped"]) == (rounds, clamped)
    for mode, want in zip(("adversarial", "sampled"), PINNED_AE_ESTIMATES[quantity, alpha]):
        rep = pinned_report(quantity, alpha, est.AmplitudeEstimatorConfig(mode=mode, seed=3))
        assert rep.estimate == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("quantity, alpha", EVERY_BRANCH)
def test_true_value_is_computed_once_when_read(monkeypatch, quantity, alpha):
    rho, sigma = shared_support_pair(16, 4, np.random.default_rng(3))
    oracles = [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")]
    w = np.linalg.eigvalsh(rho)
    if alpha == 0.0:    # max entropy and rank - 1
        want = nm.max_entropy(rho) if quantity == "renyi" else nm.operator_rank(rho) - 1.0
    else:
        want = nm.exact_quantity(quantity, rho, sigma, alpha)
    # the nesting depth of each counted call: exact_quantity("rank") calls
    # operator_rank, and one read is one call at depth 0
    active, depths = [], []

    def counted(f):
        def wrapper(*args, **kwargs):
            depths.append(len(active))
            active.append(f)
            try:
                return f(*args, **kwargs)
            finally:
                active.pop()
        return wrapper

    monkeypatch.setattr(nm, "exact_quantity", counted(nm.exact_quantity))
    monkeypatch.setattr(nm, "operator_rank", counted(nm.operator_rank))
    rep = est.RUNNERS[quantity](oracles, [4, 4], 0.1, CFG, alpha=alpha,
                                kappa=1.0 / w[w > 1e-10].min(), delta=0.05,
                                epsilon_prime=0.1)
    assert depths == []
    assert rep.true_value == pytest.approx(want, abs=1e-12)
    assert depths.count(0) == 1
    assert rep.true_value == pytest.approx(want, abs=1e-12)
    assert depths.count(0) == 1


def test_von_neumann_estimate_decomposes_once(linalg_calls):
    # the transform reads the input's eigenpairs from one thin SVD of its
    # factor, and the exact value waits until the report is read
    oracle = oracle_for(floored_spectrum_state(16, 4, np.random.default_rng(3)))
    linalg_calls.clear()
    est.estimate_von_neumann(oracle, 4, 0.1, CFG)
    assert linalg_calls.shapes == [("svd", (16, 4))]


DECOMPOSITION_CASES = {
    "rank": lambda o: est.estimate_rank(o[0], 0.05, 0.1, 0.2, CFG),
    "trace-power-0.5": lambda o: est.estimate_trace_power(o[0], 0.5, 4, 0.1, CFG),
    "trace-distance-1": lambda o: est.estimate_trace_distance(o[0], o[1], 1.0, 4, 0.1, CFG),
    "fidelity-0.5": lambda o: est.estimate_fidelity(o[0], o[1], 0.5, 4, 0.1, CFG),
    "distribution-oracle": lambda o: est.distribution_to_purified_oracle(
        np.full(16, 1.0 / 16.0)),
    "trace-power-2": lambda o: est.estimate_trace_power(o[0], 2.0, 4, 0.1, CFG),
    "trace-power-3": lambda o: est.estimate_trace_power(o[0], 3.0, 4, 0.1, CFG),
    "trace-distance-2": lambda o: est.estimate_trace_distance(o[0], o[1], 2.0, 4, 0.1, CFG),
    "fidelity-0.2": lambda o: est.estimate_fidelity(o[0], o[1], 0.2, 4, 0.1, CFG),
}


@pytest.mark.parametrize("case, want", [
    # the thin SVD of the input's factor
    ("rank", {"svd": 1}), ("trace-power-0.5", {"svd": 1}),
    # the thin SVDs of mu's, rho's and sigma's factors and of the stacked
    # supports that join nu's blocks, and nu's 4 x 4 compression to the
    # joint support in the positive power
    ("trace-distance-1", {"eigh": 1, "svd": 4}),
    # sigma's 4 x 4 compression in the positive power, and the thin SVDs of
    # sigma's and the evolved factor
    ("fidelity-0.5", {"eigh": 1, "svd": 2}),
    ("distribution-oracle", {}),
    # rho's 4 x 4 compression in the positive power
    ("trace-power-2", {"eigh": 1, "svd": 1}),
    ("trace-power-3", {"svd": 1}),
    ("trace-distance-2", {"svd": 4}),
    ("fidelity-0.2", {"svd": 2})])
def test_decomposition_counts(linalg_calls, case, want):
    # rules map purification factors; an encoded density operator carries the
    # eigenvectors of a thin SVD of its factor as its support, and a unitary
    # transform decomposes only the block's compression to that support
    rho, sigma = shared_support_pair(16, 4, np.random.default_rng(3))
    oracles = (oracle_for(rho, "rho"), oracle_for(sigma, "sigma"))
    linalg_calls.clear()
    DECOMPOSITION_CASES[case](oracles)
    assert dict(linalg_calls) == want


RUNNER_ALPHAS = {"renyi": 0.5, "tsallis": 2.0, "trace-power": 0.5, "trace-distance": 1.0,
               "fidelity": 0.5}


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf, 1e-308, 1e308])
@pytest.mark.parametrize("quantity", list(est.RUNNERS))
def test_every_runner_rejects_a_bad_epsilon(quantity, epsilon):
    oracles = [oracle_for(maximally_mixed(2), "rho"), oracle_for(maximally_mixed(2), "sigma")]
    with pytest.raises(ValidationError, match="epsilon must be finite and positive"):
        est.RUNNERS[quantity](oracles, [2, 2], epsilon, CFG,
                              alpha=RUNNER_ALPHAS.get(quantity), kappa=2.0, delta=0.05,
                              epsilon_prime=0.1)


#: runs that lie inside every estimator's range: small and large alpha, and
#: epsilon at its floor where Renyi, Tsallis and the max entropy pass a
#: smaller derived epsilon on to the trace power or the rank
RANGE_EDGES = [("trace-power", 0.05, 0.1), ("renyi", 0.05, 0.1), ("tsallis", 0.05, 0.1),
               ("fidelity", 0.05, 0.1), ("trace-distance", 0.05, 1000.0),
               ("trace-distance", 200.0, 0.1), ("trace-power", 201.0, 0.1),
               ("tsallis", 0.5, 1e-12), ("renyi", 0.1, 1e-12), ("renyi", 0.0, 1e-12),
               ("max-entropy", None, 1e-12)]


@pytest.mark.parametrize("quantity, alpha, epsilon", RANGE_EDGES)
def test_estimators_run_at_the_edges_of_their_ranges(quantity, alpha, epsilon):
    rho, sigma = shared_support_pair(16, 4, np.random.default_rng(3))
    oracles = [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")]
    rep = est.RUNNERS[quantity](oracles, [4, 4], epsilon, CFG, alpha=alpha, kappa=30.0,
                                delta=0.05)
    assert math.isfinite(rep.estimate)


#: (quantity, alpha, epsilon, the refusal): each once exited with a
#: ZeroDivisionError or an OverflowError
ALPHA_ESCAPES = [
    ("trace-power", 1e-308, 0.1, "raises epsilon / r to the power 1e\\+308"),
    ("renyi", 0.01, 1e-4, "beyond double range"),
    ("trace-power", 3.0001, 0.1, "beyond double range"),
    ("trace-power", 1e308, 0.1, "products of encodings, above 100000"),
    ("trace-distance", 2e5 + 4, 0.1, "products of encodings, above 100000"),
    ("fidelity", 0.331, 0.1, "beyond double range"),
    ("fidelity", 0.999, 0.1, "beyond double range"),
    ("fidelity", 1e-6, 0.1, "products of encodings"),
    ("fidelity", 5e-324, 0.1, "takes inf products of encodings"),
]


@pytest.mark.parametrize("quantity, alpha, epsilon, message", ALPHA_ESCAPES)
def test_alpha_whose_schedule_leaves_double_range_is_refused(quantity, alpha, epsilon,
                                                             message):
    rho, sigma = shared_support_pair(16, 4, np.random.default_rng(3))
    oracles = [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")]
    with pytest.raises(ValidationError, match=message):
        est.RUNNERS[quantity](oracles, [4, 4], epsilon, CFG, alpha=alpha)


@pytest.mark.parametrize("epsilon_prime", [0.0, -1.0, math.nan, math.inf])
def test_rank_rejects_a_bad_epsilon_prime(epsilon_prime):
    with pytest.raises(ValidationError, match="epsilon' must be finite and positive"):
        est.estimate_rank(oracle_for(maximally_mixed(2)), 0.05, 0.1, epsilon_prime, CFG)
