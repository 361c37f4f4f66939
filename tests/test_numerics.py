import numpy as np
import pytest

from blockenc import numerics as nm
from blockenc.encodings import SubnormalizedDensityOperator
from blockenc.fixtures import ginibre_state, maximally_mixed, random_hermitian


def characteristic_roots(h):
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients fed to the companion-matrix root finder."""
    n = h.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(h @ m).real / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)[::-1]


# -- spectral_decompose ------------------------------------------------------

def test_identity_eigenvalues():
    w, _ = nm.spectral_decompose(np.eye(2, dtype=complex))
    assert np.allclose(w, [1.0, 1.0])


def test_diagonal_eigenvalues_sorted_descending():
    w, _ = nm.spectral_decompose(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(w, [0.75, 0.25])


def test_random_hermitian_matches_companion_matrix_roots():
    rng = np.random.default_rng(7)
    h = random_hermitian(8, rng)
    w, _ = nm.spectral_decompose(h)
    assert np.max(np.abs(w - characteristic_roots(h))) < 1e-8


def test_reconstruction_invariant():
    rng = np.random.default_rng(3)
    h = random_hermitian(6, rng)
    w, v = nm.spectral_decompose(h)
    assert nm.spectral_norm(v.conj().T @ v - np.eye(6)) < 1e-9
    assert nm.spectral_norm((v * w) @ v.conj().T - h) < 1e-8 * (1 + nm.spectral_norm(h))


def test_non_square_rejected():
    with pytest.raises(nm.ValidationError):
        nm.spectral_decompose(np.ones((2, 3)))


def test_non_hermitian_rejected():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(nm.ValidationError):
        nm.spectral_decompose(m)


@pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)])
def test_hermiticity_tolerance_is_pinned(factor, accepted):
    # a - a^dag = diag(2 i t, 0) has rank one, so the defect is exactly 2t and
    # 2t <= HERMITICITY_TOL (1 + ||a||) with ||a|| ~ 0.5 puts the threshold at t*
    t = factor * nm.HERMITICITY_TOL * 1.5 / 2.0
    a = np.diag([0.5 + 1j * t, 0.5])
    checks = (nm.require_hermitian, nm.spectral_decompose,
              SubnormalizedDensityOperator.from_matrix)
    for check in checks:
        if accepted:
            check(a)
        else:
            with pytest.raises(nm.ValidationError, match="not Hermitian"):
                check(a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hermiticity_accept_set_is_the_spectral_test(linalg_calls, seed):
    # A = H + t K over t from 0.1x to 10x the threshold t* at which
    # t ||K - K^dag||_2 = tol (1 + ||H||_2); the Frobenius pre-test must not
    # change which A pass
    rng = np.random.default_rng(seed)
    h = random_hermitian(8, rng)
    k = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    t_star = nm.HERMITICITY_TOL * (1.0 + nm.spectral_norm(h)) / nm.spectral_norm(k - k.conj().T)
    paths = set()
    for factor in np.geomspace(0.1, 10.0, 15):
        a = h + factor * t_star * k
        want = nm.spectral_norm(a - a.conj().T) <= nm.HERMITICITY_TOL * (1.0 + nm.spectral_norm(a))
        linalg_calls.clear()
        try:
            nm.require_hermitian(a)
            accepted = True
        except nm.ValidationError:
            accepted = False
        assert accepted == want, factor
        paths.add(bool(linalg_calls))
    assert paths == {False, True}  # both the pre-test and the SVD test decided some


# -- matrix_function ---------------------------------------------------------

def test_matrix_function_identity():
    rng = np.random.default_rng(11)
    h = random_hermitian(5, rng)
    assert nm.spectral_norm(nm.matrix_function(h, lambda w: w) - h) < 1e-12


def test_matrix_function_square_diagonal():
    d = np.diag([0.5, 0.5]).astype(complex)
    assert np.allclose(nm.matrix_function(d, lambda w: w ** 2), np.diag([0.25, 0.25]))


def test_matrix_function_sqrt_roundtrip():
    rng = np.random.default_rng(13)
    rho = ginibre_state(6, 6, rng)
    root = nm.matrix_function(rho, np.sqrt, clamp=True)
    assert nm.spectral_norm(root @ root - rho) < 1e-8


def test_matrix_function_composition_on_commuting_input():
    rng = np.random.default_rng(17)
    rho = ginibre_state(5, 5, rng)
    via_composed = nm.matrix_function(rho, lambda w: np.sqrt(w ** 2 + 1), clamp=True)
    via_steps = nm.matrix_function(
        nm.matrix_function(rho, lambda w: w ** 2 + 1, clamp=True), np.sqrt, clamp=True)
    assert nm.spectral_norm(via_composed - via_steps) < 1e-8


def test_matrix_function_domain_error():
    with pytest.raises(nm.ValidationError):
        nm.matrix_function(np.diag([-0.5, 0.5]).astype(complex), np.log)


# -- partial trace / purification -------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(19)
    rho = ginibre_state(4, 2, rng)
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    assert nm.spectral_norm(nm.partial_trace(np.kron(rho, zero), 4, 2) - rho) < 1e-12


def test_partial_trace_bell_state():
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(nm.partial_trace(rho, 2, 2), np.eye(2) / 2)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(nm.ValidationError):
        nm.partial_trace(np.eye(6, dtype=complex) / 6, 4, 2)


# -- exact quantities --------------------------------------------------------

def test_von_neumann_maximally_mixed():
    assert abs(nm.exact_quantity("von-neumann", maximally_mixed(4)) - np.log(4)) < 1e-12


def test_trace_distance_commuting_diagonal():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = maximally_mixed(2)
    assert abs(nm.exact_quantity("trace-distance", rho, sigma, alpha=1) - 0.5) < 1e-12


def test_fidelity_commuting_case():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = maximally_mixed(2)
    got = nm.exact_quantity("fidelity", rho, sigma, alpha=0.5)
    assert abs(got - np.sqrt(0.5)) < 1e-12


def test_renyi_2_diagonal_closed_form():
    rho = np.diag([0.75, 0.25]).astype(complex)
    # tr(rho^2) = 5/8, so S_2 = -ln(5/8) = ln(8/5)
    assert abs(nm.exact_quantity("renyi", rho, alpha=2) - np.log(8.0 / 5.0)) < 1e-12
    assert abs(nm.exact_quantity("renyi", rho, alpha=2) - 0.47000362924573563) < 1e-9


def test_renyi_two_path_equivalence():
    rng = np.random.default_rng(29)
    rho = ginibre_state(6, 4, rng)
    for alpha in (2, 3):
        raw = np.trace(np.linalg.matrix_power(rho, alpha)).real
        raw_entropy = -np.log(raw) / (alpha - 1)
        assert abs(nm.renyi_entropy(rho, alpha) - raw_entropy) < 1e-9


def test_self_distance_zero_and_self_fidelity_one():
    rng = np.random.default_rng(31)
    for _ in range(5):
        rho = ginibre_state(4, 3, rng)
        assert abs(nm.exact_quantity("trace-distance", rho, rho, alpha=1)) < 1e-10
        assert abs(nm.exact_quantity("fidelity", rho, rho, alpha=0.5) - 1.0) < 1e-10


def test_rank_and_max_entropy():
    rng = np.random.default_rng(37)
    rho = ginibre_state(8, 3, rng)
    assert nm.operator_rank(rho) == 3
    assert abs(nm.max_entropy(rho) - np.log(3)) < 1e-12
    assert nm.rank_delta(np.diag([0.6, 0.35, 0.05]).astype(complex), 0.1) == 2


def test_exact_quantity_validation():
    rho = maximally_mixed(2)
    with pytest.raises(nm.ValidationError):
        nm.exact_quantity("renyi", rho, alpha=1)
    with pytest.raises(nm.ValidationError):
        nm.exact_quantity("trace-distance", rho)
    with pytest.raises(nm.ValidationError):
        nm.exact_quantity("fidelity", rho, rho, alpha=1.5)
