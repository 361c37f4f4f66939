import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from blockenc import circuits
from blockenc import encodings as enc
from blockenc import polyapprox as pa
from blockenc import transform as tf
from blockenc.fixtures import (floored_spectrum_state, ginibre_state, haar_unitary,
                               maximally_mixed, shared_support_pair)
from blockenc.numerics import ValidationError, matrix_function, spectral_norm


def oracle_for(m, label="rho"):
    return enc.purification_of(enc.SubnormalizedDensityOperator.from_matrix(m), label=label)


def actual(u):
    """scale times the block of u's circuit: the side of u's contract that
    approximates its target."""
    return u.scale * circuits.block(u)


def test_calculus_computes_no_cost():
    # the estimators' ledgers are the one cost model: no rule of the calculus
    # or of a transform imports the cost algebra, and no value carries a cost
    for module in (enc, tf):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        imported += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                     for a in n.names]
        assert imported and not [m for m in imported if "resources" in m]
    for cls in (enc.PurifiedAccessOracle, enc.UnitaryBlockEncoding):
        assert "cost" not in [f.name for f in dataclasses.fields(cls)]


# -- purification -------------------------------------------------------------

def test_purification_of_pure_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    o = oracle_for(rho)
    assert o.block_ancillas == 0 and o.purifying_ancillas == 1
    assert spectral_norm(circuits.extract(o) - rho) < 1e-9


def test_purification_of_maximally_mixed():
    o = oracle_for(maximally_mixed(2))
    assert spectral_norm(circuits.extract(o) - maximally_mixed(2)) < 1e-10


def test_purification_roundtrip_rank3():
    rng = np.random.default_rng(5)
    rho = ginibre_state(8, 3, rng)
    o = oracle_for(rho)
    assert o.purifying_ancillas == 2
    assert spectral_norm(circuits.extract(o) - rho) < 1e-9
    circuits.check(o)


def test_purification_of_subnormalized_uses_block_ancilla():
    rng = np.random.default_rng(7)
    a = 0.6 * ginibre_state(4, 2, rng)
    o = oracle_for(a)
    assert o.block_ancillas == 1
    assert spectral_norm(circuits.extract(o) - a) < 1e-9


@pytest.mark.parametrize("rank, purifying", [(3, 2), (4, 3)])
def test_purification_of_trace_deficit(rank, purifying):
    # the deficit takes one more purifying index: rank 3 -> 4 entries, 4 -> 5
    a = 0.6 * ginibre_state(8, rank, np.random.default_rng(11))
    o = oracle_for(a)
    assert (o.block_ancillas, o.purifying_ancillas) == (1, purifying)
    assert spectral_norm(circuits.extract(o) - a) < 1e-9


def test_density_operator_is_decomposed_once(linalg_calls):
    rho = floored_spectrum_state(16, 4, np.random.default_rng(3))
    a = enc.SubnormalizedDensityOperator.from_matrix(rho)
    # rho is Hermitian only up to rounding; its Frobenius defect is far below
    # the tolerance, so the Hermiticity test takes no norm, and the factor is
    # a pivoted Cholesky factor, so nothing is decomposed
    assert dict(linalg_calls) == {}
    assert a.factor.shape == (16, 4)
    enc.SubnormalizedDensityOperator.from_matrix(a.matrix)
    assert dict(linalg_calls) == {}
    # the eigenpairs are one thin SVD of the factor, read once
    w, v = a.eigenpairs
    assert linalg_calls.shapes == [("svd", (16, 4))]
    linalg_calls.clear()
    assert a.eigenpairs[0] is w
    assert w.size == 4 and np.all(np.diff(w) <= 0)
    assert np.linalg.norm((v * w) @ v.conj().T - a.matrix) < 1e-12
    assert np.linalg.norm(a.factor @ a.factor.conj().T - a.matrix) < 1e-12
    assert enc.purification_of(a).encoded is a
    assert not linalg_calls


def test_from_matrix_rejects_non_psd():
    m = np.diag([0.5, 0.3, 0.2 + 2 * enc.PSD_TOL, -2 * enc.PSD_TOL]).astype(complex)
    with pytest.raises(ValidationError, match="not PSD"):
        enc.SubnormalizedDensityOperator.from_matrix(m)


def test_from_matrix_rejects_off_diagonal_negativity():
    # a nonnegative diagonal with eigenvalues 1.1 and -0.1: the first pivot
    # leaves a negative Schur complement, which only the residual sees
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = [[0.5, 0.6], [0.6, 0.5]]
    with pytest.raises(ValidationError, match="not PSD"):
        enc.SubnormalizedDensityOperator.from_matrix(m)


def test_from_matrix_factors_a_full_rank_input():
    a = enc.SubnormalizedDensityOperator.from_matrix(maximally_mixed(16))
    assert a.factor.shape == (16, 16)
    assert np.linalg.norm(a.factor @ a.factor.conj().T - maximally_mixed(16)) < 1e-15
    assert np.allclose(a.eigenpairs[0], 1.0 / 16.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("rotated", [False, True])
def test_from_matrix_with_eigenvalues_straddling_the_support_cut(rotated):
    # eigenvalues above and below SUPPORT_CUT (1e-14)
    w = np.array([0.5, 0.3, 0.2 - 2.5e-14, 2e-14, 5e-15, 0.0, 0.0, 0.0])
    u = haar_unitary(8, np.random.default_rng(4)) if rotated else np.eye(8)
    m = (u * w) @ u.conj().T
    a = enc.SubnormalizedDensityOperator.from_matrix(m)
    assert np.linalg.norm(a.factor @ a.factor.conj().T - m) < 1e-13
    assert abs(a.trace - 1.0) < 1e-13
    if not rotated:
        # the pivots are the diagonal: 2e-14 is kept, 5e-15 is cut
        assert a.factor.shape == (8, 4)
        assert np.allclose(a.eigenpairs[0], w[:4], rtol=1e-12, atol=0.0)


def test_from_matrix_of_the_zero_matrix():
    a = enc.SubnormalizedDensityOperator.from_matrix(np.zeros((4, 4), dtype=complex))
    assert a.factor.shape == (4, 0) and a.trace == 0.0
    assert a.eigenpairs[0].size == 0


def _factor(case="valid"):
    f = haar_unitary(4, np.random.default_rng(5))[:, :3] * np.sqrt([0.4, 0.3, 0.2])
    if case == "nan":
        f[1, 2] = np.nan
    elif case == "inf":
        f[0, 0] = np.inf
    elif case == "vector":
        f = f[:, 0]
    elif case == "rows":
        f = f[:3]
    elif case == "trace":
        f = f * np.sqrt((1.0 + 2 * enc.TRACE_TOL) / 0.9)
    return f


@pytest.mark.parametrize("case, message", [
    ("nan", "non-finite"), ("inf", "non-finite"), ("vector", "does not have 4 rows"),
    ("rows", "does not have 4 rows"), ("trace", "exceeds one")])
def test_factor_constructor_rejects(case, message):
    with pytest.raises(ValidationError, match=message):
        enc.SubnormalizedDensityOperator(_factor(case), 2)


def test_factor_constructor_builds_matrix_when_read(linalg_calls):
    f = _factor()
    a = enc.SubnormalizedDensityOperator(f, 2)
    assert "matrix" not in a.__dict__ and "eigenpairs" not in a.__dict__
    want = f @ f.conj().T
    assert np.array_equal(a.matrix, (want + want.conj().T) / 2.0)
    assert (a.dim, a.factor.shape[1]) == (4, 3) and abs(a.trace - 0.9) < 1e-15
    assert not linalg_calls
    w, v = a.eigenpairs
    assert dict(linalg_calls) == {"svd": 1}
    assert np.allclose(w, [0.4, 0.3, 0.2], atol=1e-15)
    assert spectral_norm((v * w) @ v.conj().T - a.matrix) < 1e-15
    o = enc.purification_of(a)
    assert (o.block_ancillas, o.purifying_ancillas) == (1, 2)
    assert spectral_norm(circuits.extract(o) - a.matrix) < 1e-12


def test_zero_factor_purifies_to_zero_operator():
    a = enc.SubnormalizedDensityOperator(np.zeros((4, 0)), 2)
    assert a.trace == 0.0 and a.eigenpairs[0].size == 0
    o = enc.purification_of(a)
    assert (o.block_ancillas, o.purifying_ancillas) == (1, 1)
    assert np.array_equal(a.matrix, np.zeros((4, 4)))
    assert spectral_norm(circuits.extract(o)) < 1e-15


def _rule_cases(rho, sigma):
    o_rho, o_sig = enc.purification_of(rho), enc.purification_of(sigma)
    b = enc.block_encode_density(o_sig)
    zero = np.diag([1.0, 0.0])
    return {
        "evolve": (lambda: enc.evolve(o_rho, b), b.matrix @ rho @ b.matrix.conj().T),
        "embed": (lambda: enc.embed(o_rho, 1), np.kron(rho, zero)),
        "linear-combination": (
            lambda: enc.linear_combination_density([0.3, 0.5], [o_rho, o_sig]),
            0.3 * rho + 0.5 * sigma),
    }


@pytest.mark.parametrize("rule", ["evolve", "embed", "linear-combination"])
def test_rules_map_factors_without_decomposing(linalg_calls, rule):
    rng = np.random.default_rng(9)
    rho, sigma = ginibre_state(8, 3, rng), ginibre_state(8, 2, rng)
    run, want = _rule_cases(rho, sigma)[rule]
    linalg_calls.clear()
    out = run().encoded
    assert not linalg_calls
    assert spectral_norm(out.matrix - want) < 1e-12


def test_purification_rejects_trace_above_one():
    with pytest.raises(ValidationError):
        enc.SubnormalizedDensityOperator.from_matrix(1.5 * maximally_mixed(2))


@pytest.mark.parametrize("dim", [2, 8, 2048])
@pytest.mark.parametrize("kind", ["random", "first-basis-vector", "zero-first-entry"])
def test_unitary_from_first_column(dim, kind):
    rng = np.random.default_rng(dim)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if kind == "first-basis-vector":
        psi = np.eye(dim, dtype=complex)[0]
    elif kind == "zero-first-entry":
        psi[0] = 0.0
    psi /= np.linalg.norm(psi)
    u = enc.unitary_from_first_column(psi)
    assert np.abs(u[:, 0] - psi).max() <= 1e-15
    assert enc.unitarity_defect(u) <= 1e-12


# -- block_encode_density -----------------------------------------------------

def test_block_encode_density_examples():
    for rho in (maximally_mixed(2), np.diag([0.75, 0.25]).astype(complex)):
        ube = enc.block_encode_density(oracle_for(rho))
        assert spectral_norm(actual(ube) - rho) < 1e-9
        assert ube.scale == 1.0 and ube.declared_error == 0.0
        assert ube.ancillas >= ube.system_qubits


def test_block_encode_density_subnormalized():
    rng = np.random.default_rng(11)
    a = 0.5 * ginibre_state(4, 3, rng)
    ube = enc.block_encode_density(oracle_for(a))
    assert spectral_norm(actual(ube) - a) < 1e-9


def test_block_encode_density_pure_state_rank_one():
    ube = enc.block_encode_density(oracle_for(np.diag([1.0, 0.0]).astype(complex)))
    w = np.linalg.eigvalsh(circuits.block(ube))
    assert np.sum(w > 1e-9) == 1


@pytest.mark.parametrize("rank, support", [(4, (16, 4)), (16, None)])
def test_block_encode_density_support(linalg_calls, rank, support):
    # a factor with fewer columns than rows is supported on its eigenvectors
    # (one thin SVD); a full-rank factor spans the whole space and is not
    # decomposed
    rho = ginibre_state(16, rank, np.random.default_rng(13))
    o = oracle_for(rho)
    linalg_calls.clear()
    q = enc.block_encode_density(o).support
    assert (q if q is None else q.shape) == support
    assert linalg_calls.shapes == ([] if q is None else [("svd", (16, rank))])


# -- dilation -----------------------------------------------------------------

def test_dilate_identity_and_zero():
    d_id = enc.dilate(np.eye(2, dtype=complex))
    assert spectral_norm(circuits.block(d_id) - np.eye(2)) < 1e-10
    d_zero = enc.dilate(np.zeros((2, 2), dtype=complex))
    assert spectral_norm(circuits.block(d_zero)) < 1e-12
    assert enc.unitarity_defect(circuits.unitary(d_zero)) < 1e-12


def test_dilate_random_contractions_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g / (np.linalg.norm(g, 2) * (1.0 + rng.uniform(0, 1)))
        d = enc.dilate(m)
        assert enc.unitarity_defect(circuits.unitary(d)) < 1e-9
        assert spectral_norm(circuits.block(d) - m) < 1e-10


def test_dilate_rejects_expansions():
    with pytest.raises(ValidationError):
        enc.dilate(2.0 * np.eye(2, dtype=complex))


# -- evolution ----------------------------------------------------------------

def test_evolve_with_identity():
    rng = np.random.default_rng(17)
    rho = ginibre_state(4, 2, rng)
    out = enc.evolve(oracle_for(rho), enc.identity_encoding(2))
    assert spectral_norm(out.encoded.matrix - rho) < 1e-10


def test_evolve_with_projector():
    proj = np.diag([1.0, 0.0]).astype(complex)
    out = enc.evolve(oracle_for(maximally_mixed(2)), enc.dilate(proj))
    assert np.allclose(out.encoded.matrix, np.diag([0.5, 0.0]), atol=1e-10)


def test_evolve_matches_direct_matrix_product():
    rng = np.random.default_rng(19)
    rho = ginibre_state(4, 3, rng)
    b = haar_unitary(4, rng) * 0.9
    out = enc.evolve(oracle_for(rho), enc.dilate(b))
    assert spectral_norm(out.encoded.matrix - b @ rho @ b.conj().T) < 1e-8


def test_evolve_trace_inequality():
    rng = np.random.default_rng(23)
    rho = ginibre_state(4, 2, rng)
    b = 0.7 * haar_unitary(4, rng)
    out = enc.evolve(oracle_for(rho), enc.dilate(b))
    assert out.encoded.trace <= 1.0 * np.linalg.norm(b, 2) ** 2 + 1e-9


def test_evolve_requires_scale_one():
    # |A|^(1/2) at scale 2: the block B approximates (0.81 I)^(1/2) / 2 = 0.45 I
    o = oracle_for(maximally_mixed(2))
    v = tf.positive_power_unitary(enc.dilate(0.81 * np.eye(2, dtype=complex)), 0.5, 0.05,
                                  0.01)
    assert v.scale == 2.0
    with pytest.raises(ValidationError):
        enc.evolve(o, v)
    one = v.as_scale_one()
    assert (one.scale, one.declared_error) == (1.0, v.declared_error / 2.0)
    assert np.allclose(circuits.target(one), 0.45 * np.eye(2), rtol=0.0, atol=1e-15)
    circuits.check(one)
    out = enc.evolve(o, one)
    # the output is B (I/2) B^dag
    b = v.matrix
    assert spectral_norm(out.encoded.matrix - b @ b.conj().T / 2.0) < 1e-12
    assert spectral_norm(out.encoded.matrix - 0.45 ** 2 * np.eye(2) / 2.0) <= one.declared_error


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_evolve_circuit_is_the_literal_composition(dim):
    # the circuit of evolve(o, v) is (V (x) I)(U (x) I) on the system, U's
    # purifying qubit and V's ancilla, which is the circuit's block register;
    # the output declares the registers of its own minimal purification (a
    # block ancilla for the trace deficit, two purifying qubits), and its
    # block projection prepares B A B^dag
    rng = np.random.default_rng(29)
    rho = ginibre_state(dim, 2, rng)
    o = oracle_for(rho)
    assert (o.block_ancillas, o.purifying_ancillas) == (0, 1)
    b = 0.8 * haar_unitary(dim, rng)
    out = enc.evolve(o, enc.dilate(b))
    assert (out.block_ancillas, out.purifying_ancillas) == (1, 2)
    assert circuits.unitary(out).shape == (4 * dim, 4 * dim)
    assert spectral_norm(circuits.extract(out) - b @ rho @ b.conj().T) < 1e-10
    circuits.check(out, 1e-10)


def test_rules_read_an_evolved_oracle_on_its_realized_registers():
    # an evolved oracle's circuit has registers of its own, wider in the
    # block than it declares; embed, a mixture and block_encode_density read
    # them from its record, and their circuits still encode their operators
    rng = np.random.default_rng(31)
    rho, sigma = ginibre_state(2, 2, rng), ginibre_state(2, 1, rng)
    ev = enc.evolve(oracle_for(rho), enc.dilate(0.8 * haar_unitary(2, rng)))
    for out in (enc.embed(ev, 1),
                enc.linear_combination_density([0.5, 0.25], [ev, oracle_for(sigma)]),
                enc.block_encode_density(ev)):
        circuits.check(out, 1e-10)


# -- embed --------------------------------------------------------------------

def test_embed_zero_is_identity():
    o = oracle_for(maximally_mixed(2))
    assert enc.embed(o, 0) is o


def test_embed_one_qubit_layout():
    out = enc.embed(oracle_for(maximally_mixed(2)), 1)
    assert np.allclose(out.encoded.matrix, np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-12)
    assert spectral_norm(circuits.extract(out) - out.encoded.matrix) < 1e-10


def test_embed_projection_returns_state():
    rng = np.random.default_rng(31)
    rho = ginibre_state(4, 2, rng)
    out = enc.embed(oracle_for(rho), 2)
    got = out.encoded.matrix.reshape(4, 4, 4, 4)[:, 0, :, 0]
    assert spectral_norm(got - rho) < 1e-10


# -- product ------------------------------------------------------------------

def test_product_of_identities():
    p = enc.product(enc.identity_encoding(1), enc.identity_encoding(1))
    assert spectral_norm(actual(p) - np.eye(2)) < 1e-12


def test_product_exact_diagonals():
    u = enc.dilate(np.diag([1.0, 0.0]).astype(complex))
    v = enc.dilate(np.diag([0.5, 0.5]).astype(complex))
    p = enc.product(u, v)
    assert spectral_norm(actual(p) - np.diag([0.5, 0.0])) < 1e-10
    assert p.ancillas == 2


def test_circuits_read_a_deep_record_without_recursion():
    # each call walks a record on an explicit stack: 2000 levels stay far
    # under the cap here, and above it the cap, not the recursion, refuses
    chain = enc.encoding_power(enc.identity_encoding(1), 2000)
    assert np.array_equal(circuits.unitary(chain), np.eye(2))
    assert np.array_equal(circuits.target(chain), np.eye(2))
    assert circuits.check(chain) == 0.0
    o = oracle_for(maximally_mixed(2))
    evolved = o
    for _ in range(2000):
        evolved = enc.evolve(evolved, enc.identity_encoding(1))
    assert np.array_equal(circuits.extract(evolved), circuits.extract(o))
    power = enc.encoding_power(enc.block_encode_density(o), 2000)
    for read in (circuits.unitary, circuits.block, circuits.check):
        with pytest.raises(ValidationError, match="exceeds the cap"):
            read(power)


def test_product_power_matches_matrix_power():
    rng = np.random.default_rng(37)
    rho = ginibre_state(4, 3, rng)
    u = enc.dilate(rho)
    p3 = enc.encoding_power(u, 3)
    assert spectral_norm(circuits.block(p3) - np.linalg.matrix_power(rho, 3)) < 1e-8


# -- linear combinations ------------------------------------------------------

def test_encoding_targets_are_built_when_checked():
    # the operators hold no target; a check builds one from the construction
    # record: |A|^c for positive_power_unitary, a product's is the product of
    # its inputs' targets, as_scale_one's its input's over the scale, an
    # LCU's the combination of its inputs'
    a = np.diag([0.5, 0.25]).astype(complex)
    u = tf.positive_power_unitary(enc.dilate(a), 0.5, 0.05, 0.01)
    v = enc.dilate(np.eye(2, dtype=complex))
    prod = enc.product(u, v)
    w = enc.lcu(enc.StatePreparationPair.plus_minus(), [prod.as_scale_one(), v])
    assert not any(hasattr(x, "target") for x in (u, prod, w))
    assert prod.step.rule == "product" and prod.step.inputs == (u, v)
    circuits.check(prod)
    circuits.check(w)
    root = np.diag(np.sqrt([0.5, 0.25]))
    assert np.allclose(circuits.target(prod), root, rtol=0.0, atol=1e-15)
    assert np.allclose(circuits.target(w), root / 2.0 - np.eye(2), rtol=0.0, atol=1e-15)


def test_linear_combination_single_term_unchanged():
    o = oracle_for(maximally_mixed(2))
    assert enc.linear_combination_density([1.0], [o]) is o


def test_linear_combination_hadamard_mix():
    o1 = oracle_for(np.diag([1.0, 0.0]).astype(complex))
    o2 = oracle_for(np.diag([0.0, 1.0]).astype(complex))
    out = enc.linear_combination_density([0.5, 0.5], [o1, o2])
    assert spectral_norm(out.encoded.matrix - maximally_mixed(2)) < 1e-9
    assert spectral_norm(circuits.extract(out) - maximally_mixed(2)) < 1e-9


def test_linear_combination_three_terms():
    rng = np.random.default_rng(41)
    states = [ginibre_state(4, 2, rng) for _ in range(3)]
    oracles = [oracle_for(s, f"s{i}") for i, s in enumerate(states)]
    weights = [0.5, 0.3, 0.2]
    out = enc.linear_combination_density(weights, oracles)
    want = sum(w * s for w, s in zip(weights, states))
    assert spectral_norm(out.encoded.matrix - want) < 1e-9
    assert spectral_norm(circuits.extract(out) - want) < 1e-9


def test_linear_combination_subnormalized_sum():
    rng = np.random.default_rng(43)
    states = [ginibre_state(2, 1, rng), ginibre_state(2, 2, rng)]
    oracles = [oracle_for(s, f"s{i}") for i, s in enumerate(states)]
    out = enc.linear_combination_density([0.4, 0.3], oracles)
    want = 0.4 * states[0] + 0.3 * states[1]
    assert spectral_norm(circuits.extract(out) - want) < 1e-9


def test_linear_combination_validation():
    o = oracle_for(maximally_mixed(2))
    with pytest.raises(ValidationError):
        enc.linear_combination_density([-0.1, 0.5], [o, o])
    with pytest.raises(ValidationError):
        enc.linear_combination_density([0.7, 0.7], [o, o])


# -- state preparation pairs and LCU -----------------------------------------

def test_plus_minus_pair_is_valid():
    pair = enc.StatePreparationPair.plus_minus()
    assert pair.norm_bound == 2.0
    c = pair.left_unitary[:, 0]
    d = pair.right_unitary[:, 0]
    assert np.allclose(2.0 * c.conj() * d, [1.0, -1.0], atol=1e-12)


def test_lcu_single_term_rescale():
    pair = enc.StatePreparationPair.for_coefficients([1.0])
    u = enc.dilate(np.diag([0.75, 0.25]).astype(complex))
    out = enc.lcu(pair, [u])
    assert abs(out.scale - 1.0) < 1e-12
    assert spectral_norm(actual(out) - np.diag([0.75, 0.25])) < 1e-10


def test_lcu_difference_of_states():
    rng = np.random.default_rng(47)
    rho, sigma = ginibre_state(4, 2, rng), ginibre_state(4, 3, rng)
    pair = enc.StatePreparationPair.plus_minus()
    w = enc.lcu(pair, [enc.dilate(rho), enc.dilate(sigma)])
    assert abs(w.scale - 2.0) < 1e-12
    # unscaled block is nu = (rho - sigma)/2
    assert spectral_norm(circuits.block(w) - (rho - sigma) / 2.0) < 1e-9
    assert spectral_norm(actual(w) - (rho - sigma)) < 1e-9
    circuits.check(w)


@pytest.mark.parametrize("dim, ranks, columns", [
    (8, (2, 3), 5), (4, (2, 2), None), (4, (4, 1), None)])
def test_lcu_support_is_the_span_of_its_inputs_supports(dim, ranks, columns):
    # the inputs' supports together have N or more columns: the whole space
    rng = np.random.default_rng(59)
    states = [ginibre_state(dim, r, rng) for r in ranks]
    pair = enc.StatePreparationPair.plus_minus()
    w = enc.lcu(pair, [enc.block_encode_density(oracle_for(m)) for m in states])
    if columns is None:
        assert w.support is None
        return
    q = w.support
    assert q.shape == (dim, columns)
    assert np.linalg.norm(q.conj().T @ q - np.eye(columns)) < 1e-12
    b = w.matrix
    assert np.linalg.norm(q @ (q.conj().T @ b @ q) @ q.conj().T - b) < 1e-12


def test_lcu_random_combination():
    rng = np.random.default_rng(53)
    a, b = ginibre_state(2, 1, rng), ginibre_state(2, 2, rng)
    y = np.array([0.6, -0.25])
    pair = enc.StatePreparationPair.for_coefficients(y)
    w = enc.lcu(pair, [enc.dilate(a), enc.dilate(b)])
    assert spectral_norm(actual(w) - (0.6 * a - 0.25 * b)) < 1e-9


def test_lcu_count_mismatch():
    pair = enc.StatePreparationPair.plus_minus()
    with pytest.raises(ValidationError):
        enc.lcu(pair, [enc.identity_encoding(1)])


# -- the joint-support form against dense arithmetic ---------------------------

#: 1.5 x^2 - 0.5 as an even Chebyshev series: bounded by one on [-1, 1], and
#: -0.5 at zero, so its transform has a nonzero kernel value
KERNEL_POLY = pa.CertifiedPolynomial(
    coefficients=np.array([0.25, 0.0, 0.75]), parity="even",
    target=lambda x: 1.5 * x ** 2 - 0.5, certified_interval=(-1.0, 1.0),
    certified_error=0.0, global_bound=1.0, bound_limit=1.0, family="kernel")


def _density_encoding(dim, rank, seed):
    return enc.block_encode_density(
        oracle_for(ginibre_state(dim, rank, np.random.default_rng(seed))))


def _joint_support_cases():
    # each result's matrix against the same operation on its inputs' matrices
    pair = enc.StatePreparationPair.plus_minus()
    u, v = _density_encoding(64, 3, 1), _density_encoding(64, 2, 2)
    t = tf.qsvt_unitary(u, KERNEL_POLY)
    f_u = matrix_function(u.matrix, lambda x: 1.5 * x ** 2 - 0.5)
    big, other = _density_encoding(16, 10, 3), _density_encoding(16, 8, 4)
    dense = enc.dilate(0.5 * big.matrix)
    low = _density_encoding(16, 2, 5)
    eye = enc.identity_encoding(6)
    rho = ginibre_state(64, 2, np.random.default_rng(6))
    return {
        # (run, want, the result's support shape or None for the whole space)
        "lcu-shared": (lambda: enc.lcu(pair, [u, t]), (u.matrix - f_u) / 2, (64, 3)),
        "lcu-disjoint": (lambda: enc.lcu(pair, [u, v]), (u.matrix - v.matrix) / 2, (64, 5)),
        "lcu-stacked-to-n": (lambda: enc.lcu(pair, [big, other]),
                             (big.matrix - other.matrix) / 2, None),
        "lcu-whole-space-and-low-rank": (lambda: enc.lcu(pair, [dense, low]),
                                         (dense.matrix - low.matrix) / 2, None),
        "product-shared": (lambda: enc.product(t, u), f_u @ u.matrix, (64, 3)),
        "product-disjoint": (lambda: enc.product(u, v), u.matrix @ v.matrix, (64, 5)),
        "transform-kernel-value": (lambda: t, f_u, (64, 3)),
        "transform-then-product": (lambda: enc.product(t, t), f_u @ f_u, (64, 3)),
        "transform-then-lcu": (lambda: enc.lcu(pair, [t, v]), (f_u - v.matrix) / 2, (64, 5)),
        "identity": (lambda: eye, np.eye(64), (64, 0)),
        "identity-product": (lambda: enc.product(eye, v), v.matrix, (64, 2)),
        "identity-lcu": (lambda: enc.lcu(pair, [eye, u]), (np.eye(64) - u.matrix) / 2, (64, 3)),
        "transform-then-evolve": (
            lambda: enc.evolve(oracle_for(rho), t).encoded, f_u @ rho @ f_u, None),
    }


@pytest.mark.parametrize("case", list(_joint_support_cases()))
def test_rules_match_dense_arithmetic(case):
    run, want, support = _joint_support_cases()[case]
    out = run()
    assert np.linalg.norm(out.matrix - want) <= 1e-12
    if isinstance(out, enc.UnitaryBlockEncoding):
        assert (out.support if out.support is None else out.support.shape) == support


def test_supports_spanning_one_subspace_join_on_its_dimension():
    # nu's two rank-4 blocks lie on one subspace: their stacked supports have
    # 8 columns that span 4 dimensions, so the joint support keeps 4
    rho, sigma = shared_support_pair(64, 4, np.random.default_rng(3))
    nu = enc.lcu(enc.StatePreparationPair.plus_minus(),
                 [enc.block_encode_density(oracle_for(rho, "rho")),
                  enc.block_encode_density(oracle_for(sigma, "sigma"))])
    assert nu.support.shape == (64, 4)
    assert nu.compression.shape == (4, 4)
    assert np.linalg.norm(nu.matrix - (rho - sigma) / 2) <= 1e-12


def test_transform_keeps_its_input_support_and_maps_the_kernel_value():
    u = _density_encoding(16, 3, 7)
    t = tf.qsvt_unitary(u, KERNEL_POLY)
    assert t.support is u.support
    assert t.compression.shape == (3, 3)
    assert t.kernel_value == pytest.approx(-0.5)
    circuits.check(t)


# -- seeded sweep over the calculus (criterion-2 style smoke) -----------------

def test_calculus_random_sweep():
    rng = np.random.default_rng(59)
    for _ in range(20):
        dim = int(rng.choice([2, 4]))
        n = dim.bit_length() - 1
        rho = ginibre_state(dim, int(rng.integers(1, dim + 1)), rng)
        sigma = ginibre_state(dim, int(rng.integers(1, dim + 1)), rng)
        b = rng.uniform(0.3, 1.0) * haar_unitary(dim, rng)
        out = enc.evolve(oracle_for(rho), enc.dilate(b))
        assert spectral_norm(out.encoded.matrix - b @ rho @ b.conj().T) < 1e-8
        mix = enc.linear_combination_density(
            [0.5, 0.5], [oracle_for(rho, "rho"), oracle_for(sigma, "sigma")])
        assert spectral_norm(mix.encoded.matrix - (rho + sigma) / 2.0) < 1e-8
        prod = enc.product(enc.dilate(rho), enc.dilate(sigma))
        assert spectral_norm(actual(prod) - rho @ sigma) < 1e-8


# -- refusals of the calculus -------------------------------------------------

def _encoding(n=1, scale=1.0, kernel_value=0.0):
    """A scale-``scale`` encoding of diag(1/2, 0, ...) on n qubits, with the
    given kernel value off its one-dimensional support."""
    return enc.UnitaryBlockEncoding(
        compression=np.array([[0.5]]), system_qubits=n, ancillas=0, scale=scale,
        declared_error=0.0, step=enc.Step("dilate"), support=np.eye(2 ** n, 1),
        kernel_value=kernel_value)


def _pair(left, right, coefficients, norm_bound=1.0):
    return enc.StatePreparationPair(np.asarray(left, dtype=complex),
                                    np.asarray(right, dtype=complex),
                                    np.asarray(coefficients), norm_bound)


_HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)

#: one call per refusal of the calculus, with a fragment of its message
CALCULUS_REFUSALS = {
    "first-column-not-normalized": (
        lambda: enc.unitary_from_first_column(np.array([1.0, 1.0])),
        "state vector is not normalized"),
    "encoding-block-shape": (
        lambda: enc.UnitaryBlockEncoding(np.eye(3), 1, 0, 1.0, 0.0, enc.Step("dilate")),
        "encoded block does not match the system register"),
    "encoding-scale-negative": (
        lambda: enc.UnitaryBlockEncoding(np.eye(2), 1, 0, -1.0, 0.0, enc.Step("dilate")),
        "scale and declared error must be nonnegative"),
    "encoding-declared-error-negative": (
        lambda: enc.UnitaryBlockEncoding(np.eye(2), 1, 0, 1.0, -1e-3, enc.Step("dilate")),
        "scale and declared error must be nonnegative"),
    "evolve-dimension": (
        lambda: enc.evolve(oracle_for(maximally_mixed(2)), enc.identity_encoding(2)),
        "system dimension mismatch between oracle and encoding"),
    "product-dimension": (
        lambda: enc.product(enc.identity_encoding(1), enc.identity_encoding(2)),
        "system dimension mismatch in product"),
    "embed-negative": (
        lambda: enc.embed(oracle_for(maximally_mixed(2)), -1),
        "extra_qubits must be nonnegative"),
    "power-zero": (
        lambda: enc.encoding_power(enc.identity_encoding(1), 0),
        "power must be at least one"),
    "mixture-count": (
        lambda: enc.linear_combination_density([0.5], [oracle_for(maximally_mixed(2))] * 2),
        "coefficient count must match the oracle count"),
    "mixture-negative": (
        lambda: enc.linear_combination_density([-0.5, 0.5],
                                               [oracle_for(maximally_mixed(2))] * 2),
        "coefficients must be nonnegative"),
    "mixture-sum": (
        lambda: enc.linear_combination_density([0.7, 0.7],
                                               [oracle_for(maximally_mixed(2))] * 2),
        "coefficient sum 1.4 exceeds one"),
    "mixture-dimension": (
        lambda: enc.linear_combination_density(
            [0.5, 0.5], [oracle_for(maximally_mixed(2)), oracle_for(maximally_mixed(4))]),
        "all oracles must share the system dimension"),
    "lcu-empty": (
        lambda: enc.lcu(enc.StatePreparationPair.plus_minus(), []),
        "need at least one encoding"),
    "lcu-count": (
        lambda: enc.lcu(enc.StatePreparationPair.plus_minus(), [_encoding()]),
        "coefficient count must match the encoding count"),
    "lcu-dimension": (
        lambda: enc.lcu(enc.StatePreparationPair.plus_minus(), [_encoding(1), _encoding(2)]),
        "encodings must share the system dimension"),
    "lcu-scale": (
        lambda: enc.lcu(enc.StatePreparationPair.plus_minus(),
                        [_encoding(scale=1.0), _encoding(scale=2.0)]),
        "encodings must share the scale"),
    "pair-dimensions": (
        lambda: _pair(np.eye(2), np.eye(4), [1.0]),
        "pair unitaries must share dimensions"),
    "pair-not-unitary": (
        lambda: _pair(2.0 * np.eye(2), np.eye(2), [2.0]),
        "state-preparation pair member is not unitary"),
    "pair-coefficients-too-long": (
        lambda: _pair(np.eye(2), np.eye(2), [1.0, 0.0, 0.0]),
        "coefficient vector longer than the register"),
    "pair-l1-defect": (
        lambda: _pair(np.eye(2), np.eye(2), [0.5]),
        "pair prepares y with l1 defect 5.000e-01"),
    "pair-weight-beyond-coefficients": (
        lambda: _pair(_HADAMARD, _HADAMARD, [0.5]),
        "c_j* d_j must vanish beyond the coefficient vector"),
    "pair-for-zero-coefficients": (
        lambda: enc.StatePreparationPair.for_coefficients([0.0, 0.0]),
        "coefficient vector must be nonzero"),
    "transform-complex-kernel-value": (
        lambda: tf.qsvt_unitary(_encoding(kernel_value=0.5j), KERNEL_POLY),
        "kernel value 0.5j of the block is not real"),
    # a certificate that understates its polynomial: P = 2 claims |P| <= 1
    "transform-norm-above-one": (
        lambda: tf.qsvt_unitary(_encoding(), pa.CertifiedPolynomial(
            coefficients=np.array([2.0]), parity="even", target=None,
            certified_interval=(-1.0, 1.0), certified_error=0.0, global_bound=1.0,
            bound_limit=1.0)),
        "operator norm 2.000000 exceeds one"),
    "qsvt-unitary-scale": (
        lambda: tf.qsvt_unitary(_encoding(scale=2.0), KERNEL_POLY),
        "QSVT needs a scale-1 block-encoding"),
    **{f"positive-power-density-c-{c}": (
        lambda c=c: tf.positive_power_density(oracle_for(maximally_mixed(2)), c, 0.05, 0.01),
        "positive power exponent must be in (0, 1)") for c in (0.0, 1.0)},
    **{f"threshold-projector-{name}": (
        lambda d=d, e=e: tf.eigenvalue_threshold_projector(oracle_for(maximally_mixed(2)), d, e),
        "delta, epsilon must lie in (0, 1/10]")
       for name, d, e in [("delta-zero", 0.0, 0.01), ("delta-above", 0.2, 0.01),
                          ("epsilon-zero", 0.05, 0.0), ("epsilon-above", 0.05, 0.2)]},
}


@pytest.mark.parametrize("case", list(CALCULUS_REFUSALS))
def test_calculus_refuses_bad_arguments_naming_them(case):
    call, message = CALCULUS_REFUSALS[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert message in str(info.value)
