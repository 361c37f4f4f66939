"""Span recorder and the wrappers that time blockenc's layers from outside.

Nothing in ``src/`` is edited: ``install`` rebinds the public functions of
each blockenc module, in every blockenc namespace that holds them, to a
wrapper that records one span per call.  A span is ``[name, start, end,
parent index, op id]``.  Spans stay in memory until the run ends.

Layer names group functions: ``polyapprox.build`` is every ``approx_*``
constructor plus ``multiply``, ``transform`` is the whole transform module,
and so on (see ``layer_name``).  Every other public function gets
``<module>.<function>``.  A function that a later version of the package
drops is simply absent: its layer reports zero calls.

The counters read only call arguments and plain result attributes
(``degree``, ``coefficients``).  They never read ``.unitary``, so a lazily
built unitary stays lazy.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Polynomial families with a degree formula in ``resources.degree_formula``.
FORMULA_FAMILIES = ("pos-power", "neg-power", "threshold", "support-indicator",
                    "interior-indicator", "sqrt-neglog")

EXACT_FUNCTIONS = ("exact_quantity", "von_neumann_entropy", "trace_power",
                   "renyi_entropy", "tsallis_entropy", "rank_delta",
                   "operator_rank", "max_entropy", "trace_distance",
                   "alpha_fidelity")


def layer_name(module: str, function: str) -> str:
    """Span name for a public function of ``blockenc.<module>``."""
    if module == "polyapprox" and (function.startswith("approx_")
                                   or function == "multiply"):
        return "polyapprox.build"
    if module == "transform":
        return "transform"
    if module == "numerics" and function in EXACT_FUNCTIONS:
        return "numerics.exact"
    if module == "estimation":
        if function.startswith("estimate_"):
            return "estimation.estimator"
        if function in ("trace_estimate", "amplitude_estimate"):
            return "estimation.trace_estimate"
        if function.startswith("ae_"):
            return "estimation.ae"
        if function == "distribution_to_purified_oracle":
            return "estimation.distribution_oracle"
    if module == "cli":
        return "cli.load_state" if function == "load_state" else "cli"
    if module == "resources":
        return "resources"
    return f"{module}.{function}"


class Tracer:
    """In-memory span list, the open-span stack and per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.counters: dict[str, float] = defaultdict(float)
        self.counter_errors = 0
        self.wrapped: set[str] = set()

    @contextmanager
    def region(self, name: str, op):
        """A span opened by the benchmark itself, tagging nested spans with op."""
        previous, self.op = self.op, op
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, op]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()
            self.op = previous

    def wrap(self, name: str, fn, count=None):
        tracer = self
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.op]
            tracer.spans.append(rec)
            tracer.stack.append(len(tracer.spans) - 1)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    count(tracer.counters, bound, result)
                except Exception:  # a counter must never change the program's result
                    tracer.counter_errors += 1
            return result

        self.wrapped.add(name)
        return wrapper

    def layer_totals(self, ops=None) -> dict[str, dict[str, float]]:
        """calls and self_s per span name, over spans whose op id is in ops.

        A call is a span whose parent has another name, so recursion inside
        one layer counts once.  Self time is the span's duration minus the
        durations of its direct children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            row = out[name]
            row["self_s"] += (end - start) - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                row["calls"] += 1
        return out


# ---------------------------------------------------------------------------
# Counters: counters, bound call arguments, result
# ---------------------------------------------------------------------------

def _dim(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        shape = np.shape(getattr(a, "matrix", a))
    return int(shape[0])


def _count_build(degree_formula):
    def count(c, args, result):
        degree = int(result.degree)
        c["polyapprox.build.degree_sum"] += degree
        params = dict(result.params)
        if result.family in FORMULA_FAMILIES:
            delta = params.get("delta", params.get("delta_prime"))
            formula = degree_formula(result.family, delta, params["epsilon"],
                                     params.get("c", 0.0))
            c["polyapprox.formula_realized"] += degree
            c["polyapprox.formula_degree"] += formula
    return count


def _count_eval(c, args, result):
    c["polyapprox.eval.terms"] += np.size(args["x"]) * len(args["self"].coefficients)


def _count_first_column(c, args, result):
    d = int(np.size(args["psi"]))
    c["encodings.unitary_from_first_column.dim_max"] = max(
        c["encodings.unitary_from_first_column.dim_max"], d)
    c["encodings.unitary_from_first_column.bytes_computed"] += 16 * d * d


def _count_purification(c, args, result):
    c["encodings.purification_of.dim_max"] = max(
        c["encodings.purification_of.dim_max"], _dim(args["a"]))


def _count_dilate(c, args, result):
    c["encodings.dilate.dim_max"] = max(c["encodings.dilate.dim_max"],
                                        2 * _dim(args["m"]))


def _count_ae_sample(c, args, result):
    c["estimation.ae_draws"] += 1
    c["estimation.ae_outcomes"] += int(args["reps"])


def install(tracer: Tracer) -> None:
    """Wrap every public function of every loaded blockenc module."""
    mods = {name: m for name, m in sys.modules.items()
            if name == "blockenc" or name.startswith("blockenc.")}
    resources = mods.get("blockenc.resources")
    degree_formula = getattr(resources, "degree_formula", None)
    counters = {"encodings.unitary_from_first_column": _count_first_column,
                "encodings.purification_of": _count_purification,
                "encodings.dilate": _count_dilate,
                "estimation.ae_sample": _count_ae_sample}
    for modname, module in sorted(mods.items()):
        if modname == "blockenc":
            continue
        short = modname.split(".", 1)[1]
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != modname):
                continue
            name = layer_name(short, attr)
            count = counters.get(f"{short}.{attr}")
            if name == "polyapprox.build" and degree_formula is not None:
                count = _count_build(degree_formula)
            wrapped = tracer.wrap(name, obj, count)
            for other in mods.values():
                for key, value in list(vars(other).items()):
                    if value is obj:
                        setattr(other, key, wrapped)
    polyapprox = mods.get("blockenc.polyapprox")
    poly_cls = getattr(polyapprox, "CertifiedPolynomial", None)
    if poly_cls is not None and "__call__" in vars(poly_cls):
        poly_cls.__call__ = tracer.wrap("polyapprox.eval", poly_cls.__call__,
                                        _count_eval)
    encodings = mods.get("blockenc.encodings")
    density_cls = getattr(encodings, "SubnormalizedDensityOperator", None)
    if density_cls is not None and "__post_init__" in vars(density_cls):
        density_cls.__post_init__ = tracer.wrap("encodings.density_validate",
                                                density_cls.__post_init__)
