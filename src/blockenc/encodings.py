"""Purified access oracles, block-encodings, and their composition calculus.

Each composition rule computes the composed operator, which is all the
estimators read, and returns it with its construction record ``step``: the
rule's name, its input operators and its parameters.  A rule computes no
cost: the record holds every input and every certified factor with its
degree, so a construction's queries can be read from it, and each
estimator's ledger (``blockenc.resources``) states the paper's cost.
``blockenc.circuits`` builds an operator's circuit and contract target from
that record when a check asks for one; nothing here builds a circuit.  A
density operator A is held as its purification factor F, with A = F F^dag:
an input matrix is factored once, by pivoted Cholesky in O(N^2 k), a rule
that makes a new operator (evolution, embedding, a convex mixture, a
spectral transform) maps its input's factor, and a purification reads the
factor directly.  A block-encoding holds its block
B = Q M Q^dag + c (I - Q Q^dag) as a support Q (N x k), a k x k compression
M and a kernel value c; a rule maps that form, so a sum, a product or a
transform of blocks costs O(k^3) once the supports are joined.  Dense
matrices are built only when read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .numerics import (ValidationError, as_matrix, require_hermitian, require_square,
                       spectral_norm)

PSD_TOL = 1e-9
TRACE_TOL = 1e-9
UNITARITY_TOL = 1e-9
# eigenvalues (and Cholesky pivots) at most this are outside an operator's support
SUPPORT_CUT = 1e-14


def _qubits(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if 2 ** n != dim:
        raise ValidationError(f"{what} dimension {dim} is not a power of two")
    return n


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of U^dag U - I (an upper bound on the spectral defect)."""
    u = require_square(u)
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def unitary_from_first_column(psi: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the given unit vector, in O(d^2).

    One Householder reflector (Golub & Van Loan, *Matrix Computations*, 5.1):
    -phase (I - 2 u u^dag / |u|^2) with u = psi + phase e_0, where
    phase = psi_0 / |psi_0| keeps the sum in u from cancelling.
    """
    psi = np.asarray(psi, dtype=complex)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-9:
        raise ValidationError("state vector is not normalized")
    psi = psi / nrm
    phase = psi[0] / abs(psi[0]) if psi[0] != 0 else 1.0
    u = psi + phase * (np.arange(psi.size) == 0)
    q = (2.0 * phase / np.vdot(u, u).real) * np.outer(u, u.conj())
    q[np.diag_indices_from(q)] -= phase
    q[:, 0] = psi  # exactly psi, not psi up to rounding
    return q


def _pivoted_cholesky(h: np.ndarray) -> np.ndarray:
    """F (N x k) with F F^dag ~ h, by Cholesky with complete pivoting, in O(N k^2).

    Each step takes the largest remaining diagonal entry as the pivot, forms
    its column of the factor and updates the diagonal; it stops when the
    largest pivot is at most ``SUPPORT_CUT`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 10.3; Lucas, LAPACK Working Note
    161).  Columns are held as the rows of ``lt`` so each one is contiguous.
    """
    n = h.shape[0]
    d = h.diagonal().real.copy()
    lt = np.empty((n, n), dtype=complex)
    k = 0
    while k < n:
        p = int(np.argmax(d))
        if d[p] <= SUPPORT_CUT:
            break
        # column p of h minus the part the factor already carries (h is Hermitian)
        col = h[p].conj() - lt[:k, p].conj() @ lt[:k]
        lt[k] = col / np.sqrt(d[p])
        d -= np.abs(lt[k]) ** 2
        d[p] = 0.0
        k += 1
    return np.ascontiguousarray(lt[:k].T)


@dataclass(frozen=True)
class Step:
    """The construction record of an operator: the ``rule`` that built it (a
    name), its ``inputs`` (the operators the rule read) and its ``params``
    (certified factors, weights, powers and the like).  ``blockenc.circuits``
    reads it to build the operator's circuit and contract target."""

    rule: str
    inputs: tuple = ()
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SubnormalizedDensityOperator:
    """PSD operator A = F F^dag with trace at most one on n qubits, held as its
    purification factor F (2^n x k; k = 0 is the zero operator).  ``from_matrix``
    is the one path that factors a matrix; a rule that makes a new operator
    maps its input's factor.  The dense ``matrix`` and the ``eigenpairs`` (a
    thin SVD of F) are computed the first time they are read.
    """

    factor: np.ndarray = field(repr=False)
    system_qubits: int

    def __post_init__(self):
        f = np.asarray(self.factor, dtype=complex)
        if f.ndim != 2 or f.shape[0] != 2 ** self.system_qubits:
            raise ValidationError(f"factor of shape {f.shape} does not have "
                                  f"{2 ** self.system_qubits} rows")
        if not np.all(np.isfinite(f)):
            raise ValidationError("factor has non-finite entries")
        object.__setattr__(self, "factor", f)
        if self.trace > 1.0 + TRACE_TOL:
            raise ValidationError(f"trace {self.trace:.12f} exceeds one")

    @staticmethod
    def from_matrix(m: np.ndarray) -> "SubnormalizedDensityOperator":
        """Validate a PSD matrix and hold it as its pivoted Cholesky factor.

        The PSD test is the residual ||H - F F^dag||_F <= PSD_TOL max(1, ||H||_F)
        of the Hermitian part H: the nearest PSD matrix to H is its positive
        part, so the residual bounds the most negative eigenvalue of H.
        """
        h = require_hermitian(m)
        n = _qubits(h.shape[0], "state")
        f = _pivoted_cholesky(h)
        r = f @ f.conj().T
        r -= h
        residual = math.sqrt(np.vdot(r, r).real)
        # ||H||_F is read only when the residual passes PSD_TOL
        if residual > PSD_TOL and residual > PSD_TOL * math.sqrt(np.vdot(h, h).real):
            raise ValidationError(f"operator is not PSD within tolerance "
                                  f"(residual {residual:.3e})")
        a = SubnormalizedDensityOperator(f, n)
        # the validated Hermitian input reads back unchanged
        a.__dict__["matrix"] = h
        return a

    @cached_property
    def matrix(self) -> np.ndarray:
        m = self.factor @ self.factor.conj().T
        return (m + m.conj().T) / 2.0

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(w descending, V) on the support w > SUPPORT_CUT, from a thin SVD of
        F, or from an ``eigh`` of F F^dag when F has more columns than rows
        (a mixture of full-rank inputs), where the N x N Gram matrix is the
        smaller problem."""
        f = self.factor
        if f.shape[1] > f.shape[0]:
            w, v = np.linalg.eigh(f @ f.conj().T)
            w, v = w[::-1], v[:, ::-1]
        else:
            v, s, _ = np.linalg.svd(f, full_matrices=False)
            w = s ** 2
        keep = w > SUPPORT_CUT
        return w[keep], v[:, keep]

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    @cached_property
    def trace(self) -> float:
        return float(np.vdot(self.factor, self.factor).real)


@dataclass(frozen=True)
class PurifiedAccessOracle:
    """Unitary preparing a purification whose block projection is ``encoded``,
    on ``block_ancillas`` and ``purifying_ancillas`` next to the system.

    A block-encoding of a density operator: ``scale * encoded`` approximates
    the operator named by the transform that built the oracle within
    ``declared_error``, and an input oracle is (1, 0).  Rules read only
    ``encoded``; no rule propagates the contract.  ``step`` records how the
    oracle was built.
    """

    step: Step = field(repr=False, compare=False)
    system_qubits: int
    block_ancillas: int
    purifying_ancillas: int
    encoded: SubnormalizedDensityOperator
    label: str = "oracle"
    scale: float = 1.0
    declared_error: float = 0.0

    @property
    def total_qubits(self) -> int:
        return self.system_qubits + self.block_ancillas + self.purifying_ancillas


@dataclass(frozen=True)
class UnitaryBlockEncoding:
    """(scale, ancillas, error) contract on the top-left block of a unitary.

    The encoded block is B = Q M Q^dag + c (I - Q Q^dag): ``support`` is Q, an
    orthonormal N x k basis (None is the whole space, where M is B itself),
    ``compression`` is the k x k matrix M and ``kernel_value`` is c.  The dense
    ``matrix`` is built the first time it is read.  ``ancillas`` is the
    register the paper's construction declares; ``blockenc.circuits``
    derives the register a circuit realizes from ``step``, the record of how
    the encoding was built.
    """

    compression: np.ndarray = field(repr=False, compare=False)
    system_qubits: int
    ancillas: int
    scale: float
    declared_error: float
    step: Step = field(repr=False, compare=False)
    support: np.ndarray | None = field(default=None, repr=False, compare=False)
    kernel_value: complex = 0.0

    def __post_init__(self):
        n = 2 ** self.system_qubits
        k = n if self.support is None else self.support.shape[1]
        if np.shape(self.support) not in ((), (n, k)) or np.shape(self.compression) != (k, k):
            raise ValidationError("encoded block does not match the system register")
        if self.scale < 0 or self.declared_error < 0:
            raise ValidationError("scale and declared error must be nonnegative")

    @cached_property
    def matrix(self) -> np.ndarray:
        n = 2 ** self.system_qubits
        return self.compression if self.support is None else self._apply(np.eye(n))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """B x = Q (M - c I)(Q^dag x) + c x, without forming B."""
        q, c = self.support, self.kernel_value
        if q is None:
            return self.compression @ x
        return q @ ((self.compression - c * np.eye(q.shape[1])) @ (q.conj().T @ x)) + c * x

    def as_scale_one(self) -> "UnitaryBlockEncoding":
        """Reinterpret as a scale-1 encoding of (target / scale)."""
        if self.scale == 1.0:
            return self
        return replace(self, scale=1.0, declared_error=self.declared_error / self.scale,
                       step=Step("as_scale_one", (self,)))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def purification_of(a, label: str = "oracle") -> PurifiedAccessOracle:
    """Minimal purified-access oracle for a subnormalized density operator.

    Normalized inputs need no block ancilla; a trace deficit is stored in the
    |1> sector of one block ancilla so the <0| projection returns the input,
    and takes one more purifying index.  The purifying register has
    ceil(log2 k) qubits, at least one, for k such indices; the purification
    is the factor itself.
    """
    if not isinstance(a, SubnormalizedDensityOperator):
        a = SubnormalizedDensityOperator.from_matrix(a)
    block = int(1.0 - a.trace > TRACE_TOL)
    return PurifiedAccessOracle(
        step=Step("purification", (a,)), system_qubits=a.system_qubits,
        block_ancillas=block,
        purifying_ancillas=max(1, (a.factor.shape[1] + block - 1).bit_length()),
        encoded=a, label=label)


def dilate(m: np.ndarray) -> UnitaryBlockEncoding:
    """Exact two-block unitary dilation of a contraction m (one extra qubit).

    An SVD checks the norm on the call; the circuit is the SVD dilation of m,
    and the target is m.
    """
    m = require_square(m)
    norm = spectral_norm(m)
    if norm > 1.0 + PSD_TOL:
        raise ValidationError(f"operator norm {norm:.6f} exceeds one")
    return UnitaryBlockEncoding(
        compression=m, system_qubits=_qubits(m.shape[0], "contraction"),
        ancillas=1, scale=1.0, declared_error=0.0,
        step=Step("dilate"))


def identity_encoding(n: int) -> UnitaryBlockEncoding:
    """The identity as an empty support with kernel value one."""
    return UnitaryBlockEncoding(
        compression=np.zeros((0, 0)), system_qubits=n, ancillas=0,
        scale=1.0, declared_error=0.0, step=Step("identity"),
        support=np.zeros((2 ** n, 0)), kernel_value=1.0)


def block_encode_density(oracle: PurifiedAccessOracle) -> UnitaryBlockEncoding:
    """(1, n+a, 0)-block-encoding of the oracle's operator A = F F^dag.

    The block is V diag(w) V^dag on the operator's ``eigenpairs`` (w, V), with
    kernel value zero; a factor with N or more columns is read as spanning
    the whole space, where the block is the operator's ``matrix`` and no
    thin SVD is taken.  The target is the operator's ``matrix``; for an input
    read by ``from_matrix`` that is the validated matrix H, which the block
    meets within the Cholesky residual the PSD test accepted (Frobenius norm
    at most PSD_TOL max(1, ||H||_F)) plus the eigenvalues at most
    SUPPORT_CUT that ``eigenpairs`` drops.

    The circuit swaps a fresh system register into the prepared
    purification, controlled on the block ancillas being |0>, and flags
    every other branch.  Uses one query to U and U^dag plus O(a) gates.
    """
    n = oracle.system_qubits
    a = oracle.encoded
    w, v = a.eigenpairs if a.factor.shape[1] < 2 ** n else (None, None)
    return UnitaryBlockEncoding(
        compression=a.matrix if v is None else np.diag(w),
        step=Step("block_encode_density", (oracle,)), system_qubits=n,
        ancillas=n + oracle.block_ancillas + oracle.purifying_ancillas,
        scale=1.0, declared_error=0.0, support=v)


def evolve(oracle: PurifiedAccessOracle, v: UnitaryBlockEncoding) -> PurifiedAccessOracle:
    """Prepare B A B^dag from an oracle for A and a scale-1 encoding of B.

    The output's factor is B F = Q (M - c I)(Q^dag F) + c F, in O(N k m) for
    a factor of m columns; the construction uses one query to each input.
    """
    if v.system_qubits != oracle.system_qubits:
        raise ValidationError("system dimension mismatch between oracle and encoding")
    if abs(v.scale - 1.0) > 1e-12:
        raise ValidationError("evolution requires a scale-1 block-encoding "
                              "(use as_scale_one())")
    out = purification_of(
        SubnormalizedDensityOperator(v._apply(oracle.encoded.factor), oracle.system_qubits),
        label=oracle.label)
    return replace(out, step=Step("evolve", (oracle, v)))


def embed(oracle: PurifiedAccessOracle, extra_qubits: int) -> PurifiedAccessOracle:
    """Extend the system by b fresh |0> qubits: encodes rho (x) |0><0|."""
    if extra_qubits < 0:
        raise ValidationError("extra_qubits must be nonnegative")
    if extra_qubits == 0:
        return oracle
    # F (x) |0> on the new qubits
    enc = SubnormalizedDensityOperator(
        np.kron(oracle.encoded.factor, np.eye(2 ** extra_qubits, 1)),
        oracle.system_qubits + extra_qubits)
    return PurifiedAccessOracle(
        step=Step("embed", (oracle,), {"extra_qubits": extra_qubits}),
        system_qubits=oracle.system_qubits + extra_qubits,
        block_ancillas=oracle.block_ancillas,
        purifying_ancillas=oracle.purifying_ancillas,
        encoded=enc, label=oracle.label)


def _joint_support(encodings) -> tuple[np.ndarray | None, list, list]:
    """(Q, [M_i], [c_i]) with every block B_i = Q M_i Q^dag + c_i (I - Q Q^dag).

    Q is the support the encodings share (one object), else the left
    singular vectors of their stacked supports whose singular values exceed
    SUPPORT_CUT, so supports that span one subspace join on its dimension,
    with Q^dag B_i Q = R_i M_i R_i^dag + c_i (I - R_i R_i^dag) for
    R_i = Q^dag Q_i; else, when an input spans the whole space or the
    supports have N or more columns together, Q is the whole space and M_i
    is the dense block.
    """
    qs, cs = [e.support for e in encodings], [e.kernel_value for e in encodings]
    if all(q is qs[0] for q in qs):
        return qs[0], [e.compression for e in encodings], cs
    if any(q is None for q in qs) or sum(q.shape[1] for q in qs) >= qs[0].shape[0]:
        return None, [e.matrix for e in encodings], [0.0] * len(cs)
    u, s, _ = np.linalg.svd(np.hstack(qs), full_matrices=False)
    q = u[:, s > SUPPORT_CUT]
    rs = [q.conj().T @ e.support for e in encodings]
    return q, [r @ e.compression @ r.conj().T + c * (np.eye(len(r)) - r @ r.conj().T)
               for r, e, c in zip(rs, encodings, cs)], cs


def product(u: UnitaryBlockEncoding, v: UnitaryBlockEncoding) -> UnitaryBlockEncoding:
    """(alpha beta, a+b, alpha eps_v + beta eps_u)-encoding of AB, one query each;
    on the joint support Q the block is (Q, M_u M_v, c_u c_v)."""
    if u.system_qubits != v.system_qubits:
        raise ValidationError("system dimension mismatch in product")
    q, (mu, mv), (cu, cv) = _joint_support([u, v])
    return UnitaryBlockEncoding(
        compression=mu @ mv, step=Step("product", (u, v)), system_qubits=u.system_qubits,
        ancillas=u.ancillas + v.ancillas,
        scale=u.scale * v.scale,
        declared_error=u.scale * v.declared_error + v.scale * u.declared_error,
        support=q, kernel_value=cu * cv)


def encoding_power(u: UnitaryBlockEncoding, k: int) -> UnitaryBlockEncoding:
    """k-fold self-product of a block-encoding."""
    if k < 1:
        raise ValidationError("power must be at least one")
    return reduce(product, [u] * k)


def linear_combination_density(coefficients, oracles) -> PurifiedAccessOracle:
    """Convex combination sum_k alpha_k A_k of subnormalized density operators.

    Literal select construction: a coefficient-preparation unitary over
    sqrt(alpha_k) controls the padded oracles, with register alignment at the
    maxima of the input ancilla counts.  A coefficient deficit 1 - sum(alpha)
    is parked on a branch that flips a block ancilla, so the block projection
    still returns the declared combination.  Uses one query to each input.
    """
    alphas = np.asarray(coefficients, dtype=float)
    if alphas.ndim != 1 or alphas.size != len(oracles) or alphas.size == 0:
        raise ValidationError("coefficient count must match the oracle count")
    if alphas.min() < 0:
        raise ValidationError("coefficients must be nonnegative")
    if alphas.size == 1 and abs(alphas[0] - 1.0) <= TRACE_TOL:
        return oracles[0]
    total = float(alphas.sum())
    if total > 1.0 + TRACE_TOL:
        raise ValidationError(f"coefficient sum {total} exceeds one")
    n = oracles[0].system_qubits
    if any(o.system_qubits != n for o in oracles):
        raise ValidationError("all oracles must share the system dimension")
    deficit = max(0.0, 1.0 - total)
    junk = deficit > TRACE_TOL
    # the select register indexes the oracles and, with a deficit, its branch
    m = max(1, (len(oracles) + (1 if junk else 0) - 1).bit_length())
    return PurifiedAccessOracle(
        step=Step("linear_combination_density", tuple(oracles),
                  {"coefficients": alphas, "deficit": deficit if junk else 0.0,
                   "select_qubits": m}),
        system_qubits=n,
        block_ancillas=max([o.block_ancillas for o in oracles] + [int(junk)]),
        purifying_ancillas=m + max(o.purifying_ancillas for o in oracles),
        encoded=SubnormalizedDensityOperator(
            np.hstack([np.sqrt(al) * o.encoded.factor for al, o in zip(alphas, oracles)]), n),
        label=oracles[0].label)


@dataclass(frozen=True)
class StatePreparationPair:
    """Exact (beta, b, 0)-state-preparation pair for a coefficient vector y:
    beta c_j^* d_j = y_j for the first columns c, d of the two unitaries."""

    left_unitary: np.ndarray
    right_unitary: np.ndarray
    coefficients: np.ndarray
    norm_bound: float

    def __post_init__(self):
        l, r = as_matrix(self.left_unitary), as_matrix(self.right_unitary)
        if l.shape != r.shape:
            raise ValidationError("pair unitaries must share dimensions")
        for u in (l, r):
            if unitarity_defect(u) > UNITARITY_TOL:
                raise ValidationError("state-preparation pair member is not unitary")
        y = np.asarray(self.coefficients, dtype=complex)
        m = y.size
        if m > l.shape[0]:
            raise ValidationError("coefficient vector longer than the register")
        c, d = l[:, 0], r[:, 0]
        err = float(np.abs(self.norm_bound * c[:m].conj() * d[:m] - y).sum())
        if err > 1e-9:
            raise ValidationError(f"pair prepares y with l1 defect {err:.3e}")
        beyond = float(np.abs(c[m:].conj() * d[m:]).max(initial=0.0))
        if beyond > 1e-12:
            raise ValidationError("c_j* d_j must vanish beyond the coefficient vector")

    @property
    def qubits(self) -> int:
        return _qubits(self.left_unitary.shape[0], "pair")

    @staticmethod
    def for_coefficients(y) -> "StatePreparationPair":
        """The pair with beta = ||y||_1."""
        y = np.asarray(y, dtype=complex)
        beta = float(np.abs(y).sum())
        if beta <= 0:
            raise ValidationError("coefficient vector must be nonzero")
        b = max(1, (y.size - 1).bit_length())
        c = np.zeros(2 ** b, dtype=complex)
        d = np.zeros(2 ** b, dtype=complex)
        mags = np.sqrt(np.abs(y) / beta)
        phases = np.where(np.abs(y) > 0, y / np.where(np.abs(y) > 0, np.abs(y), 1.0), 1.0)
        c[:y.size] = mags * phases.conj()
        d[:y.size] = mags
        c /= np.linalg.norm(c)
        d /= np.linalg.norm(d)
        return StatePreparationPair(unitary_from_first_column(c),
                                    unitary_from_first_column(d), y, beta)

    @staticmethod
    def plus_minus() -> "StatePreparationPair":
        """(HX, H): the (2, 1, 0) pair for y = (1, -1)."""
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        return StatePreparationPair(h @ x, h, np.array([1.0, -1.0]), 2.0)


def lcu(pair: StatePreparationPair, encodings) -> UnitaryBlockEncoding:
    """Linear combination of block-encoded operators through a preparation pair.

    Output contract (alpha beta, a+b, alpha beta eps) on sum_k y_k A_k for
    scale-alpha inputs with errors at most eps, since the pair is exact; uses
    one query to each controlled input and to the pair members.
    On the joint support Q the block is (Q, sum_k w_k M_k, sum_k w_k c_k),
    with w_k the pair's weights c_k^* d_k.
    """
    if len(encodings) == 0:
        raise ValidationError("need at least one encoding")
    if np.size(pair.coefficients) != len(encodings):
        raise ValidationError("coefficient count must match the encoding count")
    n = encodings[0].system_qubits
    alpha = encodings[0].scale
    if any(e.system_qubits != n for e in encodings):
        raise ValidationError("encodings must share the system dimension")
    if any(abs(e.scale - alpha) > 1e-12 for e in encodings):
        raise ValidationError("encodings must share the scale")
    a = max(e.ancillas for e in encodings) + pair.qubits
    err = alpha * pair.norm_bound * max(e.declared_error for e in encodings)
    weights = pair.left_unitary[:, 0].conj() * pair.right_unitary[:, 0]
    q, ms, cs = _joint_support(encodings)
    return UnitaryBlockEncoding(
        compression=sum(wk * m for wk, m in zip(weights, ms)),
        step=Step("lcu", tuple(encodings), {"pair": pair}),
        system_qubits=n, ancillas=a,
        scale=alpha * pair.norm_bound, declared_error=err, support=q,
        kernel_value=sum(wk * c for wk, c in zip(weights, cs)))
