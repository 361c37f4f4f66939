import math
import re

import numpy as np
import pytest

from blockenc import estimation as est
from blockenc import numerics as nm
from blockenc.encodings import purification_of
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
    o.validate()


def test_distribution_oracle_uniform():
    o = est.distribution_to_purified_oracle(np.ones(4) / 4)
    assert np.allclose(o.extract(), maximally_mixed(4), atol=1e-10)


def test_distribution_oracle_general():
    p = [0.5, 0.3, 0.2, 0.0]
    o = est.distribution_to_purified_oracle(p)
    assert np.allclose(o.extract(), np.diag(p), atol=1e-10)


def test_distribution_oracle_validation():
    with pytest.raises(ValidationError):
        est.distribution_to_purified_oracle([0.5, 0.2])


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


# -- ledger and report invariants ------------------------------------------------

def test_ledger_replay_matches_counters():
    rng = np.random.default_rng(47)
    rho, sigma = shared_support_pair(8, 2, rng, floor=0.1)
    reports = [
        est.estimate_von_neumann(oracle_for(rho), 2, 0.2, CFG),
        est.estimate_trace_power(oracle_for(rho), 0.5, 2, 0.2, CFG),
        est.estimate_trace_distance(oracle_for(rho, "rho"),
                                    oracle_for(sigma, "sigma"), 1.0, 2, 0.2, CFG),
        est.estimate_fidelity(oracle_for(rho, "rho"),
                              oracle_for(sigma, "sigma"), 0.5, 2, 0.2, CFG),
    ]
    for rep in reports:
        assert rep.ledger.replay_matches()


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
def test_estimators_build_no_circuit(monkeypatch, quantity, alpha):
    # a cap of 16 admits no circuit with an ancilla on a d = 16 system, so a
    # run that finishes has read only matrices and costs
    monkeypatch.setenv("BLOCKENC_DIM_CAP", "16")
    rho, sigma = shared_support_pair(16, 4, np.random.default_rng(3))
    oracles = [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")]
    w = np.linalg.eigvalsh(rho)
    rep = est.RUNNERS[quantity](oracles, [4, 4], 0.1, CFG, alpha=alpha,
                                kappa=1.0 / w[w > 1e-10].min(), delta=0.05,
                                epsilon_prime=0.1)
    assert math.isfinite(rep.estimate)
    with pytest.raises(ValidationError, match="exceeds the cap"):
        oracles[0].unitary


@pytest.mark.parametrize("quantity, alpha",
                         NO_CIRCUIT_CASES + [("renyi", 0.0), ("tsallis", 0.0)])
def test_gate_expression_evaluates_to_gates(quantity, alpha):
    # with the kappa routes these cases run every branch of every runner
    rho, sigma = shared_support_pair(8, 2, np.random.default_rng(3))
    oracles = [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")]
    w = np.linalg.eigvalsh(rho)
    rep = est.RUNNERS[quantity](oracles, [2, 2], 0.2, CFG, alpha=alpha,
                                kappa=1.0 / w[w > 1e-10].min(), delta=0.05,
                                epsilon_prime=0.1)
    rhs = rep.ledger.gate_expression.rpartition("=")[2]
    if re.fullmatch(r"[\d\s*+()]+", rhs):
        assert eval(rhs) == rep.ledger.gates
    else:
        assert "..." in rhs


@pytest.mark.parametrize("quantity, alpha",
                         NO_CIRCUIT_CASES + [("renyi", 0.0), ("tsallis", 0.0)])
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
    # the transform maps the input's eigenvalues and keeps its eigenvectors,
    # and the exact value waits until the report is read
    oracle = oracle_for(floored_spectrum_state(16, 4, np.random.default_rng(3)))
    linalg_calls.clear()
    est.estimate_von_neumann(oracle, 4, 0.1, CFG)
    assert dict(linalg_calls) == {}


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
    ("rank", {}), ("trace-power-0.5", {}),
    # nu's block in the positive power, and the thin SVD of mu's factor
    ("trace-distance-1", {"eigh": 1, "svd": 1, "spectral_norm": 1}),
    # sigma's block in the positive power, and the thin SVD of the evolved factor
    ("fidelity-0.5", {"eigh": 1, "svd": 1, "spectral_norm": 1}),
    ("distribution-oracle", {}),
    # rho's block in the positive power
    ("trace-power-2", {"eigh": 1, "spectral_norm": 1}),
    ("trace-power-3", {}),
    ("trace-distance-2", {"svd": 1}),
    ("fidelity-0.2", {"svd": 1})])
def test_decomposition_counts(linalg_calls, case, want):
    # rules map purification factors; only a block in a unitary transform is
    # decomposed, and a density transform takes a thin SVD of a derived factor
    rho, sigma = shared_support_pair(16, 4, np.random.default_rng(3))
    oracles = (oracle_for(rho, "rho"), oracle_for(sigma, "sigma"))
    linalg_calls.clear()
    DECOMPOSITION_CASES[case](oracles)
    assert dict(linalg_calls) == want


RUNNER_ALPHAS = {"renyi": 0.5, "tsallis": 2.0, "trace-power": 0.5, "trace-distance": 1.0,
               "fidelity": 0.5}


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("quantity", list(est.RUNNERS))
def test_every_runner_rejects_a_bad_epsilon(quantity, epsilon):
    oracles = [oracle_for(maximally_mixed(2), "rho"), oracle_for(maximally_mixed(2), "sigma")]
    with pytest.raises(ValidationError, match="epsilon must be finite and positive"):
        est.RUNNERS[quantity](oracles, [2, 2], epsilon, CFG,
                              alpha=RUNNER_ALPHAS.get(quantity), kappa=2.0, delta=0.05,
                              epsilon_prime=0.1)


@pytest.mark.parametrize("epsilon_prime", [0.0, -1.0, math.nan, math.inf])
def test_rank_rejects_a_bad_epsilon_prime(epsilon_prime):
    with pytest.raises(ValidationError, match="epsilon' must be finite and positive"):
        est.estimate_rank(oracle_for(maximally_mixed(2)), 0.05, 0.1, epsilon_prime, CFG)
