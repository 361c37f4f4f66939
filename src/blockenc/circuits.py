"""Circuits and contract targets of the block-encoding calculus.

Every oracle and block-encoding carries ``step``, the construction record of
the rule that built it: the rule's name, its input operators and its
parameters.  ``RULES`` holds one entry per rule, giving the rule's circuit,
its realized registers and its contract target, each read from the operator
and its record, and what it reads of its inputs.  The estimators never
build a circuit; a check builds one here, under the dimension cap
(``numerics.dimension_cap``):

* ``unitary(x)`` is the circuit of an oracle or a block-encoding;
* ``block(u)`` is the top-left block of a block-encoding's circuit;
* ``extract(o)`` is the operator an oracle's circuit prepares;
* ``target(u)`` is the matrix a block-encoding's contract names;
* ``check(x)`` compares the circuit with the operator and its contract.

One call walks the records below x once, on an explicit stack, so a record
of any depth is read without recursion; it then fills its memo bottom-up,
each operator after the inputs it reads, and a rule reads its inputs'
registers, circuits or targets from that memo, so each is built once.  The
cap is checked on every circuit before any is built; nothing is cached past
the call.

Register convention: system qubits first, block ancillas second, purifying
ancillas last; every block projection applies the <0| pattern to the block
ancilla register.  The realized registers are the circuit's own, derived
here from the records, and may differ from those an operator declares,
which are the paper's constructions': an evolution's circuit (V (x) I)(U (x) I)
keeps V's ancillas as block ancillas next to U's, and a transform's
stand-in dilation has one ancilla.

Stand-ins: no phase factors are synthesized, so a transform's circuit is
not a QSVT sequence.  A unitary transform's circuit is the SVD dilation of
its block, and a density transform's circuit prepares its output's
purification afresh.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .encodings import PurifiedAccessOracle, UnitaryBlockEncoding, unitary_from_first_column
from .numerics import (ValidationError, as_matrix, dimension_cap, matrix_function,
                       partial_trace, spectral_norm)


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


def _select(blocks, count: int) -> np.ndarray:
    """The select sum_k |k><k| (x) U_k over ``count`` branches: U_k is the k-th
    of ``blocks``, and the identity on the branches past them."""
    sub = blocks[0].shape[0]
    out = np.eye(count * sub, dtype=complex)
    for k, u in enumerate(blocks):
        out[k * sub:(k + 1) * sub, k * sub:(k + 1) * sub] = u
    return out


# ---------------------------------------------------------------------------
# One entry per rule: its realized registers, its circuit and its target
# ---------------------------------------------------------------------------

def _inputs(x, regs) -> list:
    """The realized registers of each input of x."""
    return [regs[id(i)] for i in x.step.inputs]


def _declared(o: PurifiedAccessOracle, regs) -> tuple[int, int]:
    return o.block_ancillas, o.purifying_ancillas


def _first_input(x, regs) -> tuple[int, ...]:
    return regs[id(x.step.inputs[0])]


def _one_ancilla(u: UnitaryBlockEncoding, regs) -> tuple[int]:
    return (1,)


def _prepared(o: PurifiedAccessOracle, regs, memo) -> np.ndarray:
    """A fresh preparation of sum_k |F_k>|k> for the factor F of o's operator,
    purifying index last.  A trace deficit takes the |1> sector of the block
    ancilla, on one more purifying index."""
    a = o.encoded
    f = a.factor
    if o.block_ancillas:
        # the factor in the <0|_a rows, the deficit on |0>_n |1>_a
        ext = np.zeros((2 * a.dim, f.shape[1] + 1), dtype=complex)
        ext[::2, :-1] = f
        ext[1, -1] = np.sqrt(1.0 - a.trace)
        f = ext
    elif a.trace > 1.0:
        f = f / np.sqrt(a.trace)
    psi = np.zeros((f.shape[0], 2 ** o.purifying_ancillas), dtype=complex)
    psi[:, :f.shape[1]] = f
    psi = psi.ravel()
    return unitary_from_first_column(psi / np.linalg.norm(psi))


def _distribution(o: PurifiedAccessOracle, regs, memo) -> np.ndarray:
    """Prepare sum_i sqrt(p_i) |i>, then the CNOT fan |i>|j> -> |i>|i xor j>,
    which permutes the rows."""
    p = o.step.params["p"]
    i, j = np.divmod(np.arange(p.size ** 2), p.size)
    prep = unitary_from_first_column(np.sqrt(p).astype(complex))
    return np.kron(prep, np.eye(p.size))[i * p.size + (i ^ j)]


def _beside(x, memo, dims) -> np.ndarray:
    """x's circuit on the factors dims[0] dims[2] (the system and x's
    ancillas), with the identity on dims[1], in that order."""
    return permute_subsystems(np.kron(memo[id(x)], np.eye(dims[1])),
                              (dims[0], dims[2], dims[1]), (0, 2, 1))


def _evolve_registers(o: PurifiedAccessOracle, regs) -> tuple[int, int]:
    (blk, pur), (anc,) = _inputs(o, regs)
    return blk + anc, pur


def _evolve(o: PurifiedAccessOracle, regs, memo) -> np.ndarray:
    """(V (x) I)(U (x) I): U prepares the input's purification, and V, on the
    system and its own ancillas, applies B; V's ancillas join the block
    register, so the block projection returns B A B^dag."""
    inner, v = o.step.inputs
    (blk, pur), (anc,) = _inputs(o, regs)
    n = 2 ** o.system_qubits
    u = np.kron(memo[id(inner)], np.eye(2 ** anc))
    # layout [n][blk][pur][v] -> [n][blk][v][pur]
    return permute_subsystems(_beside(v, memo, (n, 2 ** (blk + pur), 2 ** anc)) @ u,
                              (n, 2 ** blk, 2 ** pur, 2 ** anc), (0, 1, 3, 2))


def _embed(o: PurifiedAccessOracle, regs, memo) -> np.ndarray:
    ((blk, pur),) = _inputs(o, regs)
    return _beside(o.step.inputs[0], memo, (2 ** o.step.inputs[0].system_qubits,
                                            2 ** o.step.params["extra_qubits"],
                                            2 ** (blk + pur)))


def _mixture_registers(o: PurifiedAccessOracle, regs) -> tuple[int, int]:
    blk, pur = zip(*_inputs(o, regs))
    return (max(blk + (int(o.step.params["deficit"] > 0),)),
            o.step.params["select_qubits"] + max(pur))


def _mixture(o: PurifiedAccessOracle, regs, memo) -> np.ndarray:
    """A preparation of the coefficients' square roots on the select register
    controls the inputs, each padded to the widest block and purifying
    registers; a deficit branch flips the block ancilla."""
    params = o.step.params
    alphas, deficit, m = params["coefficients"], params["deficit"], params["select_qubits"]
    a, b = regs[id(o)]
    b -= m
    dim_m, dim_n, dim_a, dim_b = 2 ** m, 2 ** o.system_qubits, 2 ** a, 2 ** b
    coeff_state = np.zeros(dim_m, dtype=complex)
    coeff_state[:alphas.size] = np.sqrt(alphas)
    if deficit:
        coeff_state[alphas.size] = np.sqrt(deficit)
    blocks = []
    for inner, (ia, ib) in zip(o.step.inputs, _inputs(o, regs)):
        ext = np.kron(memo[id(inner)], np.eye(2 ** (a - ia + b - ib)))
        blocks.append(permute_subsystems(
            ext, (dim_n, 2 ** ia, 2 ** ib, 2 ** (a - ia), 2 ** (b - ib)), (0, 1, 3, 2, 4)))
    if deficit:
        # X on the top block qubit
        x_first = np.roll(np.eye(dim_a), dim_a // 2, axis=0)
        blocks.append(np.kron(np.kron(np.eye(dim_n), x_first), np.eye(dim_b)))
    u = _select(blocks, dim_m) @ np.kron(unitary_from_first_column(coeff_state),
                                         np.eye(dim_n * dim_a * dim_b))
    # layout [m][n][a][b] -> [n][a][m][b]; the m register is traced out
    return permute_subsystems(u, (dim_m, dim_n, dim_a, dim_b), (1, 2, 0, 3))


def _density_registers(u: UnitaryBlockEncoding, regs) -> tuple[int]:
    ((blk, pur),) = _inputs(u, regs)
    return (u.system_qubits + blk + pur + (1 if blk else 0),)


def _density_block(u: UnitaryBlockEncoding, regs, memo) -> np.ndarray:
    """Swap a fresh system register into the prepared purification,
    controlled on the block ancillas being |0>; every other branch flips a
    flag qubit so the block projection removes it.  With no block ancilla
    there is no such branch, and the flag register has one state."""
    ((blk, pur),) = _inputs(u, regs)
    dim_n, dim_blk, dim_pur = 2 ** u.system_qubits, 2 ** blk, 2 ** pur
    dim_flag = 2 if blk else 1
    sub = (dim_n, dim_pur, dim_n, dim_flag)   # [old sys][pur][new][flag]
    # the |0> branch of the block ancillas swaps; every other one flips the flag
    swap = np.kron(permutation_gate(sub[:3], (2, 1, 0)), np.eye(dim_flag))
    flip = np.kron(np.eye(math.prod(sub[:3])), np.eye(dim_flag)[::-1])
    gate = _select([swap] + [flip] * (dim_blk - 1), dim_blk)
    # gate layout [blk][old sys][pur][new][flag] -> [old sys][blk][pur][new][flag]
    gate = permute_subsystems(gate, (dim_blk,) + sub, (1, 0, 2, 3, 4))
    ext = np.kron(memo[id(u.step.inputs[0])], np.eye(dim_n * dim_flag))
    return permute_subsystems(ext.conj().T @ gate @ ext, (dim_n, dim_blk) + sub[1:],
                              (3, 0, 1, 2, 4))


def _dilation(u: UnitaryBlockEncoding, regs, memo) -> np.ndarray:
    """Exact two-block unitary dilation of the block, a contraction, built
    from its SVD so that it is unitary to machine precision; singular values
    within tolerance above one are clamped."""
    wl, s, vr = np.linalg.svd(u.matrix)
    s = np.minimum(s, 1.0)
    comp = np.sqrt(1.0 - s ** 2)
    top_right = (wl * comp) @ wl.conj().T
    bottom_left = (vr.conj().T * comp) @ vr
    m_eff = (wl * s) @ vr
    blockform = np.block([[m_eff, top_right], [bottom_left, -m_eff.conj().T]])
    # blockform is ancilla-major; reorder to the system-first convention
    return permute_subsystems(blockform, (2, 2 ** u.system_qubits), (1, 0))


def _no_ancilla(u: UnitaryBlockEncoding, regs) -> tuple[int]:
    return (0,)


def _identity(u: UnitaryBlockEncoding, regs, memo) -> np.ndarray:
    return np.eye(2 ** u.system_qubits, dtype=complex)


def _product_registers(w: UnitaryBlockEncoding, regs) -> tuple[int]:
    return (sum(a for (a,) in _inputs(w, regs)),)


def _product(w: UnitaryBlockEncoding, regs, memo) -> np.ndarray:
    u, v = w.step.inputs
    (a,), (b,) = _inputs(w, regs)
    return (np.kron(memo[id(u)], np.eye(2 ** b))
            @ _beside(v, memo, (2 ** w.system_qubits, 2 ** a, 2 ** b)))


def _lcu_registers(w: UnitaryBlockEncoding, regs) -> tuple[int]:
    return (max(a for (a,) in _inputs(w, regs)) + w.step.params["pair"].qubits,)


def _lcu(w: UnitaryBlockEncoding, regs, memo) -> np.ndarray:
    """(L^dag (x) I) select (R (x) I) for the preparation pair (L, R)."""
    pair = w.step.params["pair"]
    a = regs[id(w)][0] - pair.qubits
    sub = 2 ** (w.system_qubits + a)
    select = _select([np.kron(memo[id(e)], np.eye(2 ** (a - ea)))
                      for e, (ea,) in zip(w.step.inputs, _inputs(w, regs))], 2 ** pair.qubits)
    out = (np.kron(pair.left_unitary.conj().T, np.eye(sub)) @ select
           @ np.kron(pair.right_unitary, np.eye(sub)))
    # layout [b][n][a] -> [n][a][b]
    return permute_subsystems(out, (2 ** pair.qubits, 2 ** w.system_qubits, 2 ** a),
                              (1, 2, 0))


def _scale_one(u: UnitaryBlockEncoding, regs, memo) -> np.ndarray:
    return memo[id(u.step.inputs[0])]


def _density_target(u: UnitaryBlockEncoding, memo) -> np.ndarray:
    """The input oracle's operator."""
    return u.step.inputs[0].encoded.matrix


def _product_target(w: UnitaryBlockEncoding, memo) -> np.ndarray:
    u, v = w.step.inputs
    return memo[id(u)] @ memo[id(v)]


def _scale_one_target(u: UnitaryBlockEncoding, memo) -> np.ndarray:
    """The input's target over the input's scale."""
    (inner,) = u.step.inputs
    return memo[id(inner)] / inner.scale


def _lcu_target(w: UnitaryBlockEncoding, memo) -> np.ndarray:
    """sum_k y_k T_k over the inputs' targets T_k."""
    pair = w.step.params["pair"]
    return np.asarray(sum(yk * memo[id(e)]
                          for yk, e in zip(pair.coefficients, w.step.inputs)))


def _power_target(u: UnitaryBlockEncoding, memo) -> np.ndarray:
    """|A|^c for the input's block A."""
    c = u.step.params["c"]
    return matrix_function(u.step.inputs[0].matrix, lambda x: np.abs(x) ** c, tol=1e-8)


class Rule(NamedTuple):
    """One rule's entry: ``registers(x, regs)``, the realized ancilla
    registers of x's circuit in qubits, (block, purifying) of an oracle and
    (ancillas,) of a block-encoding; ``circuit(x, regs, memo)``; and
    ``target(x, memo)``, the matrix x's contract names, where None names the
    encoded block itself.  ``reads`` names what the rule reads of its
    inputs: "circuit" (their registers and circuits) and "target"; a rule
    reads these from ``regs`` and ``memo``, by the input's id."""

    registers: Callable
    circuit: Callable
    target: Callable | None = None
    reads: tuple = ()


RULES = {
    "purification": Rule(_declared, _prepared),
    "distribution": Rule(_declared, _distribution),
    "evolve": Rule(_evolve_registers, _evolve, reads=("circuit",)),
    "embed": Rule(_first_input, _embed, reads=("circuit",)),
    "linear_combination_density": Rule(_mixture_registers, _mixture, reads=("circuit",)),
    "block_encode_density": Rule(_density_registers, _density_block, _density_target,
                                 ("circuit",)),
    "dilate": Rule(_one_ancilla, _dilation),
    "identity": Rule(_no_ancilla, _identity),
    "product": Rule(_product_registers, _product, _product_target, ("circuit", "target")),
    "lcu": Rule(_lcu_registers, _lcu, _lcu_target, ("circuit", "target")),
    "as_scale_one": Rule(_first_input, _scale_one, _scale_one_target,
                         ("circuit", "target")),
    # stand-ins until phase factors are synthesized: a density transform
    # prepares its output's purification afresh, and a unitary transform's
    # circuit is the SVD dilation of its block
    "qsvt_density": Rule(_declared, _prepared),
    "positive_power_density": Rule(_declared, _prepared),
    "eigenvalue_threshold_projector": Rule(_declared, _prepared),
    "qsvt_unitary": Rule(_one_ancilla, _dilation),
    "positive_power_unitary": Rule(_one_ancilla, _dilation, _power_target),
}


# ---------------------------------------------------------------------------
# Reading circuits and targets
# ---------------------------------------------------------------------------

def _walk(x, kind: str) -> list:
    """x and every operator whose ``kind`` it reads through the records, each
    once and after all it reads, on an explicit stack."""
    order, seen, stack = [], set(), [(x, False)]
    while stack:
        y, done = stack.pop()
        if done:
            order.append(y)
        elif id(y) not in seen:
            seen.add(id(y))
            stack.append((y, True))
            if kind in RULES[y.step.rule].reads:
                stack.extend((i, False) for i in y.step.inputs)
    return order


def _circuits(x) -> tuple[dict, dict]:
    """The realized registers and the circuit of x and of each operator whose
    circuit x's reads, by id; refused above the dimension cap."""
    order, regs, memo = _walk(x, "circuit"), {}, {}
    for y in order:
        regs[id(y)] = RULES[y.step.rule].registers(y, regs)
    dims = [2 ** (y.system_qubits + sum(regs[id(y)])) for y in order]
    if max(dims) > (cap := dimension_cap()):
        raise ValidationError(f"total dimension {max(dims)} exceeds the cap {cap}")
    for y, dim in zip(order, dims):
        memo[id(y)] = as_matrix(RULES[y.step.rule].circuit(y, regs, memo))
        if memo[id(y)].shape != (dim, dim):
            raise ValidationError(f"circuit of shape {memo[id(y)].shape} does not "
                                  "match its registers")
    return regs, memo


def unitary(x) -> np.ndarray:
    """The circuit of an oracle or a block-encoding, on the system and its
    realized registers."""
    return _circuits(x)[1][id(x)]


def block(u: UnitaryBlockEncoding) -> np.ndarray:
    """The circuit's block on the <0| pattern of its realized ancillas."""
    regs, memo = _circuits(u)
    a, n = 2 ** regs[id(u)][0], 2 ** u.system_qubits
    return memo[id(u)].reshape(n, a, n, a)[:, 0, :, 0]


def extract(o: PurifiedAccessOracle) -> np.ndarray:
    """The operator the oracle's circuit prepares: trace out the purifying
    register of the prepared state, its first column, then project the block
    ancillas onto <0|...|0>."""
    regs, memo = _circuits(o)
    blk, pur = regs[id(o)]
    psi = memo[id(o)][:, 0]
    rho = partial_trace(np.outer(psi, psi.conj()), 2 ** (o.system_qubits + blk), 2 ** pur)
    n, a = 2 ** o.system_qubits, 2 ** blk
    return rho.reshape(n, a, n, a)[:, 0, :, 0]


def target(u: UnitaryBlockEncoding) -> np.ndarray:
    """The matrix the encoding's contract names: ``scale`` times its block
    lies within ``declared_error`` of it."""
    memo = {}
    for y in _walk(u, "target"):
        build = RULES[y.step.rule].target
        memo[id(y)] = y.matrix if build is None else build(y, memo)
    return memo[id(u)]


def check(x, slack: float = 1e-8) -> float:
    """Check a circuit against its operator: an oracle's prepared operator
    must lie within ``slack`` of ``encoded``; a block-encoding's block within
    ``slack`` of its ``matrix``, and scale times the block within
    ``declared_error + slack`` of its target.  Returns the defect."""
    if isinstance(x, PurifiedAccessOracle):
        return _within(extract(x) - x.encoded.matrix, slack,
                       "oracle block deviates from declared operator")
    b = block(x)
    _within(b - x.matrix, slack, "circuit block deviates from the encoded matrix")
    return _within(x.scale * b - target(x), x.declared_error + slack,
                   "encoding misses its target")


def _within(diff: np.ndarray, bound: float, what: str) -> float:
    defect = spectral_norm(diff)
    if defect > bound:
        raise ValidationError(f"{what} by {defect:.3e} > {bound:.3e}")
    return defect
