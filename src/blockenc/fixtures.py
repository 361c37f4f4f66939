"""Bundled reference states and seeded random state generators."""

from __future__ import annotations

import numpy as np

from .numerics import ValidationError


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    phase = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phase.conj()


def ginibre_state(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-r density operator rho = G G^dag / tr(G G^dag)."""
    if rank < 1 or rank > dim:
        raise ValidationError(f"rank must be in [1, {dim}], got {rank}")
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2.0)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix rescaled to unit spectral norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def floored_spectrum_state(dim: int, rank: int, rng: np.random.Generator,
                           floor: float = 0.05) -> np.ndarray:
    """Random rank-r state whose nonzero eigenvalues all exceed ``floor``.

    Eigenvalues are floor + (1 - rank*floor) * Dirichlet(1,..,1); eigenvectors
    are Haar columns.  Used for estimator fixtures where the schedules assume
    spectra bounded away from the truncation thresholds.
    """
    if rank * floor >= 1.0:
        raise ValidationError("floor too large for the requested rank")
    u = haar_unitary(dim, rng)[:, :rank]
    gaps = rng.dirichlet(np.ones(rank))
    w = floor + (1.0 - rank * floor) * gaps
    return (u * w) @ u.conj().T


def shared_support_pair(dim: int, rank: int, rng: np.random.Generator,
                        floor: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """Two floored random states supported on the same rank-dim subspace."""
    iso = haar_unitary(dim, rng)[:, :rank]
    out = []
    for _ in range(2):
        small_u = haar_unitary(rank, rng)
        w = floor + (1.0 - rank * floor) * rng.dirichlet(np.ones(rank))
        small = (small_u * w) @ small_u.conj().T
        out.append(iso @ small @ iso.conj().T)
    return out[0], out[1]


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def pure_state(dim: int, index: int = 0) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


def curated_single_states(count: int, seed: int = 1000,
                          floor: float = 0.05) -> list[tuple[np.ndarray, int, float]]:
    """Deterministic acceptance fixtures: (state, rank, kappa) triples.

    Starts from the bundled named states, then floored random spectra whose
    nonzero eigenvalues stay a factor >= 2 above every operational truncation
    threshold; kappa is the reciprocal of the smallest nonzero eigenvalue.
    """
    out = []
    named = [(maximally_mixed(2), 2), (maximally_mixed(4), 4),
             (np.diag([0.75, 0.25]).astype(complex), 2), (pure_state(2), 1)]
    for rho, rank in named[:count]:
        w = np.linalg.eigvalsh(rho)
        out.append((rho, rank, 1.0 / w[w > 1e-10].min()))
    idx = len(out)
    while len(out) < count:
        rng = np.random.default_rng((seed, idx))
        dim = int(rng.choice([4, 8, 16]))
        rank = int(rng.integers(1, min(4, dim) + 1))
        rho = floored_spectrum_state(dim, rank, rng, floor=floor)
        out.append((rho, rank, 1.0 / floor))
        idx += 1
    return out


def curated_pairs(count: int, kind: str) -> list[tuple]:
    """Deterministic (rho, sigma, rank) acceptance pairs on a shared support.

    trace-distance pairs keep every nonzero eigenvalue of (rho - sigma)/2
    above 0.02 in magnitude (retrying sub-seeds), so no spectrum sits inside
    a polynomial transition band; fidelity pairs use spectral floor 0.2.
    """
    if kind == "trace-distance":
        named = [(np.diag([1.0, 0.0]).astype(complex), maximally_mixed(2), 2),
                 (pure_state(2, 0), pure_state(2, 1), 1),
                 (maximally_mixed(4), maximally_mixed(4), 4)]
        floor = 0.05
    elif kind == "fidelity":
        named = [(np.diag([1.0, 0.0]).astype(complex), maximally_mixed(2), 1),
                 (pure_state(2, 0), pure_state(2, 0), 1),
                 (np.diag([0.6, 0.4]).astype(complex),
                  np.diag([0.3, 0.7]).astype(complex), 2)]
        floor = 0.2
    else:
        raise ValidationError(f"unknown pair kind {kind!r}")
    out = list(named[:count])
    idx = len(out)
    while len(out) < count:
        for attempt in range(64):
            rng = np.random.default_rng((2000, idx, attempt))
            dim = int(rng.choice([4, 8, 16]))
            rank = int(rng.integers(2, min(4, dim) + 1))
            rho, sigma = shared_support_pair(dim, rank, rng, floor=floor)
            nu_eigs = np.abs(np.linalg.eigvalsh((rho - sigma) / 2.0))
            nu_eigs = nu_eigs[nu_eigs > 1e-10]
            if kind == "fidelity" or nu_eigs.size == 0 or nu_eigs.min() >= 0.02:
                out.append((rho, sigma, rank))
                break
        else:
            raise RuntimeError("could not curate a pair within the retry budget")
        idx += 1
    return out


def named_fixture(name: str):
    """Bundled states by name."""
    if name.startswith("maximally-mixed-"):
        return maximally_mixed(int(name.rsplit("-", 1)[1]))
    if name == "pure-0":
        return pure_state(2, 0)
    if name == "bell-reduced":
        return maximally_mixed(2)
    if name == "diag-3-1":
        return np.diag([0.75, 0.25]).astype(complex)
    raise ValidationError(f"unknown fixture {name!r}")
