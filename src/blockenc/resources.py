"""Query and gate accounting for the estimators.

The estimators' ledgers are the one cost model: each is a ``QueryCost``
evaluated from the estimator's formulas (degree formulas times
amplitude-estimation repetitions).  The calculus computes no cost; an
operator's construction record (``encodings.Step``) holds its inputs and
its certified factors with their degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polyapprox import FAMILIES


def _merge(a: tuple, b: tuple, k: int = 1) -> tuple:
    out: dict[str, int] = dict(a)
    for label, count in b:
        out[label] = out.get(label, 0) + k * count
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class QueryCost:
    """Additive oracle-query and gate counter, reported as an estimator's
    ledger."""

    queries: tuple = ()        # ((oracle label, count to U and U^dag), ...)
    controlled: tuple = ()
    gates: int = 0

    @staticmethod
    def of(label: str, queries: int = 1, controlled: int = 0) -> "QueryCost":
        return QueryCost(queries=((label, queries),),
                         controlled=((label, controlled),) if controlled else ())

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
    """The formula degree of ``polyapprox.FAMILIES[family]`` at delta (delta'
    for sqrt-neglog), epsilon and, for the powers, c.

    Every family's constructor ends in its delta and epsilon, and a third
    parameter comes first: c, or threshold's t, which its formula ignores.
    """
    record = FAMILIES[family]
    return record.formula(*(c, delta, epsilon)[-len(record.ranges):])


def ae_repetitions(bound: float, epsilon: float) -> int:
    """M = ceil(2 pi (2 sqrt(B)/eps + 1/sqrt(eps))) coherent repetitions."""
    if epsilon <= 0 or bound < 0:
        raise ValueError("need epsilon > 0 and bound >= 0")
    return math.ceil(2.0 * math.pi * (2.0 * math.sqrt(bound) / epsilon
                                      + 1.0 / math.sqrt(epsilon)))
