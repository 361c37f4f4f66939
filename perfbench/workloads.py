"""The benchmark's workloads: seeded inputs, one estimate per op, the gate.

Each workload is a fixed round of ops, made of whole cycles.  Inputs come
from ``blockenc.fixtures`` with generators seeded by the workload seed; the
program under test only ever sees the generated states.  ``setup`` builds
the inputs (and, where the workload says so, warms the polynomial caches),
``start(i)`` runs op ``i`` of the round and is what the benchmark times,
``outcome`` reads its result back, and ``check`` compares the estimate with
the exact spectral oracle in ``blockenc.numerics``.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blockenc import cli
from blockenc import encodings as enc
from blockenc import estimation as est
from blockenc import fixtures as fx
from blockenc import numerics as nm

#: rank and max-entropy run at these CLI defaults, stated explicitly.
RANK_DELTA = 0.05
RANK_EPS_PRIME = 0.1
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def clear_caches() -> None:
    """Empty every memoized function in the blockenc modules.

    Found by duck typing (anything with ``cache_clear``), so renamed or
    regrouped caches are still emptied.
    """
    for name, module in list(sys.modules.items()):
        if name == "blockenc" or name.startswith("blockenc."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


@dataclass
class Op:
    index: int
    quantity: str            # a numerics.exact_quantity kind, "rank" or "max-entropy"
    alpha: float | None
    dim: int
    rank: int
    epsilon: float
    rho: np.ndarray
    sigma: np.ndarray | None = None


@dataclass
class Outcome:
    estimate: float
    ledger_queries: int
    clamped: bool


def check(op: Op, estimate: float) -> float:
    """Error over allowed error for the guarantee the estimator states.

    Standard quantities promise |estimate - truth| <= eps.  Rank promises
    (1-eps) rank_delta - eps' <= r~ <= (1+eps) rank + eps', max entropy
    ln rank_delta - eps <= s~ <= ln rank + eps.  A value above 1 is a miss.
    """
    if op.quantity == "rank":
        truth = float(nm.operator_rank(op.rho))
        rd = nm.rank_delta(op.rho, RANK_DELTA)
        lo = (1.0 - op.epsilon) * rd - RANK_EPS_PRIME
        hi = (1.0 + op.epsilon) * truth + RANK_EPS_PRIME
    elif op.quantity == "max-entropy":
        truth = nm.max_entropy(op.rho)
        rd = nm.rank_delta(op.rho, RANK_DELTA)
        lo = math.log(rd) - op.epsilon if rd > 0 else -math.inf
        hi = truth + op.epsilon
    else:
        truth = nm.exact_quantity(op.quantity, op.rho, op.sigma, op.alpha)
        lo, hi = truth - op.epsilon, truth + op.epsilon
    if not math.isfinite(estimate):
        return math.inf
    if estimate >= truth:
        return (estimate - truth) / (hi - truth)
    return (truth - estimate) / (truth - lo)


def _estimate(op: Op, config):
    """One in-process estimate, input oracles included."""
    oracles = [enc.purification_of(op.rho, label="rho")]
    if op.sigma is not None:
        oracles.append(enc.purification_of(op.sigma, label="sigma"))
    q, r, eps = op.quantity, op.rank, op.epsilon
    if q == "von-neumann":
        return est.estimate_von_neumann(oracles[0], r, eps, config)
    if q == "trace-power":
        return est.estimate_trace_power(oracles[0], op.alpha, r, eps, config)
    if q == "rank":
        return est.estimate_rank(oracles[0], RANK_DELTA, eps, RANK_EPS_PRIME, config)
    if q == "trace-distance":
        return est.estimate_trace_distance(oracles[0], oracles[1], op.alpha, r,
                                           eps, config)
    if q == "fidelity":
        return est.estimate_fidelity(oracles[0], oracles[1], op.alpha, r, eps,
                                     config)
    raise ValueError(f"no in-process runner for {q!r}")


class Workload:
    """A round of ``round_cycles`` cycles; op ``i`` of the round is ``pool[i]``."""

    name = ""
    cycle: list = []
    dims: tuple = ()
    round_cycles = 1
    setup_reps = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.pool: list[Op] = []

    @property
    def round_len(self) -> int:
        return self.round_cycles * len(self.cycle)

    def setup(self) -> None:
        raise NotImplementedError

    def begin_cycle(self) -> None:
        """Called before each cycle of the timed loop, outside op timing."""

    def start(self, i: int):
        """Run op i; the benchmark times exactly this call."""
        raise NotImplementedError

    def outcome(self, op: Op, report) -> Outcome:
        """Read back what start(i) returned: here an EstimateReport."""
        return Outcome(estimate=float(report.estimate),
                       ledger_queries=int(report.ledger.query_count()),
                       clamped=bool(report.parameters.get("clamped", False)))


class SweepCold(Workload):
    """The paper's eps/r sweeps as a CLI user runs them.

    The caches are emptied before every cycle, as if each cycle of nine
    calls ran in a fresh CLI process.  The two-state quantities run in
    sampled amplitude-estimation mode, so the AE sampler is measured too.
    """

    name = "sweep-cold"
    cycle = [("von-neumann", None, False), ("renyi", 0.5, False),
             ("tsallis", 2.0, False), ("trace-power", 3.0, False),
             ("rank", None, False), ("max-entropy", None, False),
             ("trace-distance", 1.0, False), ("fidelity", 0.5, False),
             ("von-neumann", None, True)]
    dims = (4, 8, 16)
    ranks = (1, 2, 3, 4)
    round_cycles = 3
    setup_reps = 21
    eps_range = (0.08, 0.3)

    def setup(self) -> None:
        clear_caches()
        self.workdir.mkdir(parents=True, exist_ok=True)
        slots = len(self.cycle)
        lo, hi = (math.log(e) for e in self.eps_range)
        self.pool = []
        self.files: list[tuple[str, str | None]] = []
        for p in range(self.round_len):
            c, k = divmod(p, slots)
            quantity, alpha, classical = self.cycle[k]
            rng = np.random.default_rng((self.seed, p))
            r = self.ranks[(c + k) % len(self.ranks)]
            dim = self.dims[(c + k) % len(self.dims)]
            sigma = None
            if quantity in ("trace-distance", "fidelity"):
                rho, sigma = fx.shared_support_pair(dim, r, rng)
            else:
                rho = fx.floored_spectrum_state(dim, r, rng)
            first = self.workdir / f"state-{p}.json"
            if classical:
                w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
                probs = rng.permutation(w / w.sum())
                rho = np.diag(probs).astype(complex)
                doc = cli.state_payload(rho, kind="probability-vector",
                                        payload={"probabilities": probs.tolist()},
                                        rank=r)
            else:
                doc = cli.state_payload(rho, rank=r)
            first.write_text(json.dumps(doc))
            second = None
            if sigma is not None:
                second = self.workdir / f"state-{p}-b.json"
                second.write_text(json.dumps(cli.state_payload(sigma, rank=r)))
            self.files.append((str(first), None if second is None else str(second)))
            # a fixed log-uniform eps grid: each slot sweeps round_cycles
            # evenly spaced quantiles, shifted by the golden ratio per slot
            u = ((c + 0.5) / self.round_cycles + k * GOLDEN) % 1.0
            self.pool.append(Op(p, "von-neumann" if classical else quantity, alpha,
                                dim, r, math.exp(lo + u * (hi - lo)), rho, sigma))
        clear_caches()

    def begin_cycle(self) -> None:
        clear_caches()      # each cycle is one sweep in a fresh CLI process

    def start(self, i: int):
        op = self.pool[i]
        first, second = self.files[i]
        out = self.workdir / f"report-{i}.json"
        argv = ["estimate", "--quantity", op.quantity, "--epsilon", repr(op.epsilon),
                "--state", first, "--rank-bound", str(op.rank),
                "--delta", repr(RANK_DELTA), "--epsilon-prime", repr(RANK_EPS_PRIME),
                "--seed", str(self.seed), "--out", str(out)]
        if second is not None:
            argv += ["--state2", second, "--ae-mode", "sampled"]
        if op.alpha is not None:
            argv += ["--alpha", repr(op.alpha)]
        return cli.main(argv)

    def outcome(self, op: Op, handle) -> Outcome:
        if handle != 0:
            raise RuntimeError(f"CLI exit code {handle}")
        path = self.workdir / f"report-{op.index}.json"
        report = json.loads(path.read_text())["report"]
        return Outcome(estimate=float(report["estimate"]),
                       ledger_queries=int(sum(report["ledger"]["queries"].values())),
                       clamped=bool(report["parameters"].get("clamped", False)))


class DimScale(Workload):
    """Single-system estimates at system dimensions 64 and 128, caches warm."""

    name = "dim-scale"
    families = [("von-neumann", None), ("trace-power", 0.5), ("trace-power", 2.0),
                ("trace-power", 3.0), ("rank", None), ("trace-distance", 1.0),
                ("fidelity", 0.5)]
    dims = (64, 128)
    cycle = list(itertools.product(families, dims))
    rank, epsilon, warm_dim = 4, 0.1, 4
    config = est.AmplitudeEstimatorConfig(mode="analytic")

    def _make(self, index: int, family, dim: int) -> Op:
        quantity, alpha = family
        rng = np.random.default_rng((self.seed, index))
        sigma = None
        if quantity in ("trace-distance", "fidelity"):
            rho, sigma = fx.shared_support_pair(dim, self.rank, rng)
        else:
            rho = fx.floored_spectrum_state(dim, self.rank, rng)
        return Op(index, quantity, alpha, dim, self.rank, self.epsilon, rho, sigma)

    def setup(self) -> None:
        clear_caches()
        n = self.round_len
        self.pool = [self._make(i, *self.cycle[i]) for i in range(n)]
        for k, family in enumerate(self.families):
            _estimate(self._make(n + k, family, self.warm_dim), self.config)

    def start(self, i: int):
        return _estimate(self.pool[i], self.config)


WORKLOADS = {w.name: w for w in (SweepCold, DimScale)}
