"""Purified access oracles, block-encodings, and their composition calculus.

Register convention: system qubits first, block ancillas second, purifying
ancillas last; every block projection applies the <0| pattern to the block
ancilla register.  Each composition rule computes the composed operator and
its query cost, which is all the estimators read; its literal circuit is built,
under the dimension cap, the first time ``.unitary`` is read.  A density
operator A is held as its purification factor F, with A = F F^dag: an input
matrix is factored once, by pivoted Cholesky in O(N^2 k), a rule that makes a
new operator (evolution, embedding, a convex mixture, a spectral transform)
maps its input's factor, and a purification reads the factor directly.  A
block-encoding holds its block B = Q M Q^dag + c (I - Q Q^dag) as a support Q
(N x k), a k x k compression M and a kernel value c; a rule maps that form, so
a sum, a product or a transform of blocks costs O(k^3) once the supports are
joined.  Dense matrices are built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from typing import Callable

import numpy as np

from .numerics import (ValidationError, as_matrix, dimension_cap, partial_trace,
                       require_hermitian, require_square, spectral_norm)
from .resources import QueryCost

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


def _materialize(builder: Callable[[], np.ndarray], dim: int) -> np.ndarray:
    """Run a circuit builder for ``dim`` total dimensions, refusing any above the cap."""
    cap = dimension_cap()
    if dim > cap:
        raise ValidationError(f"total dimension {dim} exceeds the cap {cap}")
    u = as_matrix(builder())
    if u.shape != (dim, dim):
        raise ValidationError(f"circuit of shape {u.shape} does not match its registers")
    return u


def permute_subsystems(u: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Relabel the tensor factors of an operator on (x)_i C^{dims[i]}."""
    k = len(dims)
    total = int(np.prod(dims))
    m = as_matrix(u).reshape(dims + dims)
    axes = tuple(perm) + tuple(p + k for p in perm)
    return m.transpose(axes).reshape(total, total)


def permutation_gate(dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Unitary mapping |i_0 .. i_{k-1}> to the factor order given by perm."""
    k = len(dims)
    total = int(np.prod(dims))
    m = np.eye(total).reshape(dims + dims)
    axes = tuple(perm) + tuple(range(k, 2 * k))
    return m.transpose(axes).reshape(total, total)


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


def _select(blocks, count: int) -> np.ndarray:
    """The select sum_k |k><k| (x) U_k over ``count`` branches: U_k is the k-th
    of ``blocks``, and the identity on the branches past them."""
    sub = blocks[0].shape[0]
    out = np.eye(count * sub, dtype=complex)
    for k, u in enumerate(blocks):
        out[k * sub:(k + 1) * sub, k * sub:(k + 1) * sub] = u
    return out


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
    built by ``builder`` the first time ``unitary`` is read.

    A block-encoding of a density operator: ``scale * encoded`` approximates
    the operator named by the transform that built the oracle within
    ``declared_error``, and an input oracle is (1, 0).  Rules read only
    ``encoded``; no rule propagates the contract.
    """

    builder: Callable[[], np.ndarray] = field(repr=False, compare=False)
    system_qubits: int
    block_ancillas: int
    purifying_ancillas: int
    encoded: SubnormalizedDensityOperator
    cost: QueryCost = field(default_factory=QueryCost)
    label: str = "oracle"
    scale: float = 1.0
    declared_error: float = 0.0

    @cached_property
    def unitary(self) -> np.ndarray:
        return _materialize(self.builder, 2 ** self.total_qubits)

    @property
    def total_qubits(self) -> int:
        return self.system_qubits + self.block_ancillas + self.purifying_ancillas

    def validate(self, tol: float = 1e-9) -> "PurifiedAccessOracle":
        """Unitarity plus extract-vs-declared check (contracts are lazy)."""
        if unitarity_defect(self.unitary) > UNITARITY_TOL:
            raise ValidationError("oracle matrix is not unitary within tolerance")
        self.check(tol)
        return self

    def extract(self) -> np.ndarray:
        """Recompute the encoded operator from the unitary: trace out the
        purifying register of the prepared state, its first column, then
        project the block ancillas onto <0|...|0>."""
        psi = self.unitary[:, 0]
        keep = 2 ** (self.system_qubits + self.block_ancillas)
        rho = partial_trace(np.outer(psi, psi.conj()), keep, 2 ** self.purifying_ancillas)
        a = 2 ** self.block_ancillas
        return rho.reshape(2 ** self.system_qubits, a, 2 ** self.system_qubits, a)[:, 0, :, 0]

    def check(self, tol: float = 1e-9) -> float:
        defect = spectral_norm(self.extract() - self.encoded.matrix)
        if defect > tol:
            raise ValidationError(f"oracle block deviates from declared operator by {defect:.3e}")
        return defect


@dataclass(frozen=True)
class UnitaryBlockEncoding:
    """(scale, ancillas, error) contract on the top-left block of a unitary.

    The encoded block is B = Q M Q^dag + c (I - Q Q^dag): ``support`` is Q, an
    orthonormal N x k basis (None is the whole space, where M is B itself),
    ``compression`` is the k x k matrix M and ``kernel_value`` is c.  The dense
    ``matrix`` is built the first time it is read.  ``builder`` builds the
    unitary (None builds the SVD dilation of the block on one ancilla) and
    ``target_builder`` the contract's target (None: the block itself), each
    the first time it is read (only ``check`` reads the target).
    ``ancillas`` is the declared contract used by the ledger; the circuit may
    use another register, and block() always projects the built unitary on
    the realized one.
    """

    compression: np.ndarray = field(repr=False, compare=False)
    system_qubits: int
    ancillas: int
    realized_ancillas: int
    scale: float
    declared_error: float
    builder: Callable[[], np.ndarray] | None = field(default=None, repr=False,
                                                   compare=False)
    target_builder: Callable[[], np.ndarray] | None = field(default=None, repr=False,
                                                          compare=False)
    cost: QueryCost = field(default_factory=QueryCost)
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

    @cached_property
    def unitary(self) -> np.ndarray:
        return _materialize(self.builder or self._svd_dilation,
                            2 ** (self.system_qubits + self.realized_ancillas))

    @cached_property
    def target(self) -> np.ndarray:
        return self.matrix if self.target_builder is None else self.target_builder()

    def _svd_dilation(self) -> np.ndarray:
        """Exact two-block unitary dilation of the block, a contraction, built
        from its SVD so that it is unitary to machine precision; singular
        values within tolerance above one are clamped."""
        wl, s, vr = np.linalg.svd(self.matrix)
        s = np.minimum(s, 1.0)
        comp = np.sqrt(1.0 - s ** 2)
        top_right = (wl * comp) @ wl.conj().T
        bottom_left = (vr.conj().T * comp) @ vr
        m_eff = (wl * s) @ vr
        blockform = np.block([[m_eff, top_right], [bottom_left, -m_eff.conj().T]])
        # blockform is ancilla-major; reorder to the system-first convention
        return permute_subsystems(blockform, (2, 2 ** self.system_qubits), (1, 0))

    def block(self) -> np.ndarray:
        a = 2 ** self.realized_ancillas
        n = 2 ** self.system_qubits
        return self.unitary.reshape(n, a, n, a)[:, 0, :, 0]

    def actual(self) -> np.ndarray:
        return self.scale * self.block()

    def check(self, slack: float = 1e-8) -> float:
        """Circuit invariants: ||block - matrix|| <= slack, and the contract
        ||scale * block - target|| <= declared_error + slack."""
        block = self.block()
        drift = spectral_norm(block - self.matrix)
        if drift > slack:
            raise ValidationError(f"circuit block deviates from the encoded matrix "
                                  f"by {drift:.3e}")
        defect = spectral_norm(self.scale * block - self.target)
        if defect > self.declared_error + slack:
            raise ValidationError(
                f"encoding misses its target by {defect:.3e} > "
                f"{self.declared_error:.3e} + {slack:.1e}")
        return defect

    def as_scale_one(self) -> "UnitaryBlockEncoding":
        """Reinterpret as a scale-1 encoding of (target / scale)."""
        if self.scale == 1.0:
            return self
        return replace(self, scale=1.0, declared_error=self.declared_error / self.scale,
                       target_builder=lambda: self.target / self.scale,
                       builder=lambda: self.unitary)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def purification_of(a, label: str = "oracle",
                    cost: QueryCost | None = None) -> PurifiedAccessOracle:
    """Minimal purified-access oracle for a subnormalized density operator.

    Normalized inputs need no block ancilla; a trace deficit is stored in the
    |1> sector of one block ancilla so the <0| projection returns the input.
    The purifying register has ceil(log2 k) qubits, at least one, for a
    factor of k columns; the purification is the factor itself.
    """
    if not isinstance(a, SubnormalizedDensityOperator):
        a = SubnormalizedDensityOperator.from_matrix(a)
    deficit = 1.0 - a.trace
    f = a.factor
    block = 0
    if deficit > TRACE_TOL:
        block = 1
        # the factor in the <0|_a rows, the deficit on |0>_n |1>_a
        ext = np.zeros((2 * a.dim, f.shape[1] + 1), dtype=complex)
        ext[::2, :-1] = f
        ext[1, -1] = np.sqrt(deficit)
        f = ext
    elif a.trace > 1.0:
        f = f / np.sqrt(a.trace)
    pur = max(1, (f.shape[1] - 1).bit_length())

    def build():
        # sum_k |F_k>|k>, purifying index last
        psi = np.zeros((f.shape[0], 2 ** pur), dtype=complex)
        psi[:, :f.shape[1]] = f
        psi = psi.ravel()
        return unitary_from_first_column(psi / np.linalg.norm(psi))

    return PurifiedAccessOracle(
        builder=build, system_qubits=a.system_qubits, block_ancillas=block,
        purifying_ancillas=pur, encoded=a,
        cost=cost if cost is not None else QueryCost.of(label), label=label)


def dilate(m: np.ndarray, target: Callable[[], np.ndarray] | None = None,
           cost: QueryCost | None = None, scale: float = 1.0) -> UnitaryBlockEncoding:
    """Exact two-block unitary dilation of a contraction m (one extra qubit).

    An SVD checks the norm on the call; the circuit is the encoding's SVD
    dilation.  ``target`` builds the contract's target when a check reads
    it; by default the target is m.
    """
    m = require_square(m)
    norm = spectral_norm(m)
    if norm > 1.0 + PSD_TOL:
        raise ValidationError(f"operator norm {norm:.6f} exceeds one")
    return UnitaryBlockEncoding(
        compression=m, system_qubits=_qubits(m.shape[0], "contraction"),
        ancillas=1, realized_ancillas=1, scale=scale, declared_error=0.0,
        target_builder=target, cost=cost if cost is not None else QueryCost())


def identity_encoding(n: int) -> UnitaryBlockEncoding:
    """The identity as an empty support with kernel value one."""
    return UnitaryBlockEncoding(
        compression=np.zeros((0, 0)), system_qubits=n, ancillas=0, realized_ancillas=0,
        scale=1.0, declared_error=0.0, builder=lambda: np.eye(2 ** n, dtype=complex),
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

    Swaps a fresh system register into the prepared purification, controlled
    on the block ancillas being |0>; branches with nonzero block ancillas flip
    a flag qubit so the block projection removes them; with no block ancilla
    there is no such branch, and the flag register has one state.  Costs one
    query to U and U^dag plus O(a) gates.
    """
    n = oracle.system_qubits
    dim_n = 2 ** n
    dim_blk = 2 ** oracle.block_ancillas
    dim_pur = 2 ** oracle.purifying_ancillas
    dim_flag = 2 if oracle.block_ancillas else 1

    def build():
        sub = (dim_n, dim_pur, dim_n, dim_flag)   # [old sys][pur][new][flag]
        # the |0> branch of the block ancillas swaps; every other one flips the flag
        swap = np.kron(permutation_gate(sub[:3], (2, 1, 0)), np.eye(dim_flag))
        flip = np.kron(np.eye(math.prod(sub[:3])), np.eye(dim_flag)[::-1])
        gate = _select([swap] + [flip] * (dim_blk - 1), dim_blk)
        # gate layout [blk][old sys][pur][new][flag] -> [old sys][blk][pur][new][flag]
        dims = (dim_blk,) + sub
        gate = permute_subsystems(gate, dims, (1, 0, 2, 3, 4))
        ext = np.kron(oracle.unitary, np.eye(dim_n * dim_flag))
        tilde = ext.conj().T @ gate @ ext
        dims = (dim_n, dim_blk) + sub[1:]
        return permute_subsystems(tilde, dims, (3, 0, 1, 2, 4))

    ancillas = n + oracle.block_ancillas + oracle.purifying_ancillas
    a = oracle.encoded
    w, v = a.eigenpairs if a.factor.shape[1] < dim_n else (None, None)
    return UnitaryBlockEncoding(
        compression=a.matrix if v is None else np.diag(w), builder=build, system_qubits=n,
        ancillas=ancillas, realized_ancillas=ancillas + dim_flag - 1,
        scale=1.0, declared_error=0.0, target_builder=lambda: a.matrix,
        cost=(oracle.cost + oracle.cost).plus_gates(
            oracle.block_ancillas + oracle.purifying_ancillas),
        support=v)


def evolve(oracle: PurifiedAccessOracle, v: UnitaryBlockEncoding,
           label: str | None = None) -> PurifiedAccessOracle:
    """Prepare B A B^dag from an oracle for A and a scale-1 encoding of B.

    The output's factor is B F = Q (M - c I)(Q^dag F) + c F, in O(N k m) for
    a factor of m columns; the cost charges one query to each input.
    """
    if v.system_qubits != oracle.system_qubits:
        raise ValidationError("system dimension mismatch between oracle and encoding")
    if abs(v.scale - 1.0) > 1e-12:
        raise ValidationError("evolution requires a scale-1 block-encoding "
                              "(use as_scale_one())")
    return purification_of(
        SubnormalizedDensityOperator(v._apply(oracle.encoded.factor), oracle.system_qubits),
        label=label or oracle.label, cost=oracle.cost + v.cost)


def embed(oracle: PurifiedAccessOracle, extra_qubits: int) -> PurifiedAccessOracle:
    """Extend the system by b fresh |0> qubits: encodes rho (x) |0><0|."""
    if extra_qubits < 0:
        raise ValidationError("extra_qubits must be nonnegative")
    if extra_qubits == 0:
        return oracle
    dim_b = 2 ** extra_qubits
    dims = (2 ** oracle.system_qubits, 2 ** (oracle.block_ancillas + oracle.purifying_ancillas),
            dim_b)
    zero = np.zeros((dim_b, 1), dtype=complex)
    zero[0, 0] = 1.0
    enc = SubnormalizedDensityOperator(np.kron(oracle.encoded.factor, zero),
                                       oracle.system_qubits + extra_qubits)
    return PurifiedAccessOracle(
        builder=lambda: permute_subsystems(np.kron(oracle.unitary, np.eye(dim_b)),
                                           dims, (0, 2, 1)),
        system_qubits=oracle.system_qubits + extra_qubits,
        block_ancillas=oracle.block_ancillas,
        purifying_ancillas=oracle.purifying_ancillas,
        encoded=enc, cost=oracle.cost, label=oracle.label)


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
    n = u.system_qubits
    dim_n, dim_a, dim_b = 2 ** n, 2 ** u.realized_ancillas, 2 ** v.realized_ancillas

    def build():
        u_pad = np.kron(u.unitary, np.eye(dim_b))
        v_pad = permute_subsystems(np.kron(v.unitary, np.eye(dim_a)),
                                   (dim_n, dim_b, dim_a), (0, 2, 1))
        return u_pad @ v_pad

    def target():
        return u.target @ v.target

    q, (mu, mv), (cu, cv) = _joint_support([u, v])
    return UnitaryBlockEncoding(
        compression=mu @ mv, builder=build, system_qubits=n,
        ancillas=u.ancillas + v.ancillas,
        realized_ancillas=u.realized_ancillas + v.realized_ancillas,
        scale=u.scale * v.scale,
        declared_error=u.scale * v.declared_error + v.scale * u.declared_error,
        target_builder=target, cost=u.cost + v.cost, support=q, kernel_value=cu * cv)


def encoding_power(u: UnitaryBlockEncoding, k: int) -> UnitaryBlockEncoding:
    """k-fold self-product of a block-encoding."""
    if k < 1:
        raise ValidationError("power must be at least one")
    return reduce(product, [u] * k)


def linear_combination_density(coefficients, oracles,
                               label: str | None = None) -> PurifiedAccessOracle:
    """Convex combination sum_k alpha_k A_k of subnormalized density operators.

    Literal select construction: a coefficient-preparation unitary over
    sqrt(alpha_k) controls the padded oracles, with register alignment at the
    maxima of the input ancilla counts.  A coefficient deficit 1 - sum(alpha)
    is parked on a branch that flips a block ancilla, so the block projection
    still returns the declared combination.  One query to each input.
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
    a = max(o.block_ancillas for o in oracles)
    if junk:
        a = max(a, 1)
    b = max(o.purifying_ancillas for o in oracles)
    m = max(1, (len(oracles) + (1 if junk else 0) - 1).bit_length())
    dim_m, dim_n, dim_a, dim_b = 2 ** m, 2 ** n, 2 ** a, 2 ** b

    def padded(oracle: PurifiedAccessOracle) -> np.ndarray:
        pa, pb = a - oracle.block_ancillas, b - oracle.purifying_ancillas
        dims = (dim_n, 2 ** oracle.block_ancillas, 2 ** oracle.purifying_ancillas,
                2 ** pa, 2 ** pb)
        ext = np.kron(oracle.unitary, np.eye(2 ** (pa + pb)))
        return permute_subsystems(ext, dims, (0, 1, 3, 2, 4))

    def build():
        coeff_state = np.zeros(dim_m, dtype=complex)
        coeff_state[:alphas.size] = np.sqrt(alphas)
        if junk:
            coeff_state[alphas.size] = np.sqrt(deficit)
        prep = unitary_from_first_column(coeff_state)
        sub = dim_n * dim_a * dim_b
        blocks = [padded(o) for o in oracles]
        if junk:
            x_first = np.zeros((dim_a, dim_a))
            half = dim_a // 2
            x_first[half:, :half] = np.eye(half)
            x_first[:half, half:] = np.eye(half)
            blocks.append(np.kron(np.kron(np.eye(dim_n), x_first), np.eye(dim_b)))
        u_total = _select(blocks, dim_m) @ np.kron(prep, np.eye(sub))
        # layout [m][n][a][b] -> [n][a][m][b]; the m register is traced out
        return permute_subsystems(u_total, (dim_m, dim_n, dim_a, dim_b), (1, 2, 0, 3))

    return PurifiedAccessOracle(
        builder=build, system_qubits=n, block_ancillas=a, purifying_ancillas=m + b,
        encoded=SubnormalizedDensityOperator(
            np.hstack([np.sqrt(al) * o.encoded.factor for al, o in zip(alphas, oracles)]), n),
        cost=sum((o.cost for o in oracles), QueryCost(gates=2 * m)),
        label=label or oracles[0].label)


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
    scale-alpha inputs with errors at most eps, since the pair is exact; one
    query to each controlled input and to the pair members.
    On the joint support Q the block is (Q, sum_k w_k M_k, sum_k w_k c_k),
    with w_k the pair's weights c_k^* d_k.
    """
    if len(encodings) == 0:
        raise ValidationError("need at least one encoding")
    y = np.asarray(pair.coefficients, dtype=complex)
    if y.size != len(encodings):
        raise ValidationError("coefficient count must match the encoding count")
    n = encodings[0].system_qubits
    alpha = encodings[0].scale
    if any(e.system_qubits != n for e in encodings):
        raise ValidationError("encodings must share the system dimension")
    if any(abs(e.scale - alpha) > 1e-12 for e in encodings):
        raise ValidationError("encodings must share the scale")
    a = max(e.realized_ancillas for e in encodings)
    dim_n, dim_a, dim_b = 2 ** n, 2 ** a, 2 ** pair.qubits
    err = alpha * pair.norm_bound * max(e.declared_error for e in encodings)
    weights = pair.left_unitary[:, 0].conj() * pair.right_unitary[:, 0]
    q, ms, cs = _joint_support(encodings)

    def build():
        sub = dim_n * dim_a
        select = _select([np.kron(e.unitary, np.eye(2 ** (a - e.realized_ancillas)))
                          for e in encodings], dim_b)
        w = (np.kron(pair.left_unitary.conj().T, np.eye(sub)) @ select
             @ np.kron(pair.right_unitary, np.eye(sub)))
        # layout [b][n][a] -> [n][a][b]
        return permute_subsystems(w, (dim_b, dim_n, dim_a), (1, 2, 0))

    def target():
        return np.asarray(sum(yk * e.target for yk, e in zip(y, encodings)))

    return UnitaryBlockEncoding(
        compression=sum(wk * m for wk, m in zip(weights, ms)), builder=build,
        system_qubits=n, ancillas=a + pair.qubits, realized_ancillas=a + pair.qubits,
        scale=alpha * pair.norm_bound, declared_error=err, target_builder=target,
        cost=sum((e.cost for e in encodings), QueryCost(gates=pair.qubits ** 2)),
        support=q, kernel_value=sum(wk * c for wk, c in zip(weights, cs)))
