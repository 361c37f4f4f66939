"""Query and gate accounting for oracles, encodings, and estimators.

One cost algebra, ``QueryCost``, serves both levels.  Oracles and encodings
carry a cost that composes additively through the calculus; each estimator's
ledger is a ``QueryCost`` evaluated from its formulas (degree formulas times
amplitude-estimation repetitions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _merge(a: tuple, b: tuple, k: int = 1) -> tuple:
    out: dict[str, int] = dict(a)
    for label, count in b:
        out[label] = out.get(label, 0) + k * count
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class QueryCost:
    """Additive oracle-query and gate counter attached to values and
    reported as an estimator's ledger."""

    queries: tuple = ()        # ((oracle label, count to U and U^dag), ...)
    controlled: tuple = ()
    gates: int = 0

    @staticmethod
    def of(label: str, queries: int = 1, controlled: int = 0, gates: int = 0) -> "QueryCost":
        return QueryCost(queries=((label, queries),),
                         controlled=((label, controlled),) if controlled else (),
                         gates=gates)

    def __add__(self, other: "QueryCost") -> "QueryCost":
        return QueryCost(queries=_merge(self.queries, other.queries),
                         controlled=_merge(self.controlled, other.controlled),
                         gates=self.gates + other.gates)

    def scaled(self, k: int) -> "QueryCost":
        return QueryCost(queries=_merge((), self.queries, k),
                         controlled=_merge((), self.controlled, k),
                         gates=k * self.gates)

    def plus_gates(self, gates: int) -> "QueryCost":
        return QueryCost(self.queries, self.controlled, self.gates + gates)

    def transformed(self, degree: int, width: int) -> "QueryCost":
        """Cost of a degree-d eigenvalue transform of an encoding with this
        cost: 2d uses of U and U^dag, one controlled use of U, and d gates on
        each of ``width`` qubits."""
        return self.scaled(2 * degree) + QueryCost(controlled=self.queries,
                                                   gates=width * degree)

    def query_count(self, label: str | None = None) -> int:
        if label is None:
            return sum(c for _, c in self.queries)
        return dict(self.queries).get(label, 0)

    def as_dict(self) -> dict:
        return {"queries": dict(self.queries), "controlled": dict(self.controlled),
                "gates": self.gates}


# ---------------------------------------------------------------------------
# Formula-level accounting for the estimators
# ---------------------------------------------------------------------------

def degree_formula(family: str, delta: float, epsilon: float, c: float = 0.0) -> int:
    """Asymptotic polynomial degree with the ladder's starting constant 4."""
    if family == "neg-power":
        return math.ceil(4.0 * (c + 1.0) / delta * math.log(1.0 / epsilon))
    if family == "sqrt-neglog":
        return math.ceil(4.0 / delta * math.log(1.0 / (delta * epsilon)))
    # pos-power, threshold, support-indicator, interior-indicator
    return math.ceil(4.0 / delta * math.log(1.0 / epsilon))


def ae_repetitions(bound: float, epsilon: float) -> int:
    """M = ceil(2 pi (2 sqrt(B)/eps + 1/sqrt(eps))) coherent repetitions."""
    if epsilon <= 0 or bound < 0:
        raise ValueError("need epsilon > 0 and bound >= 0")
    return math.ceil(2.0 * math.pi * (2.0 * math.sqrt(bound) / epsilon
                                      + 1.0 / math.sqrt(epsilon)))
