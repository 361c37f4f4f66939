"""Record the bits of the estimators' reports and certified polynomials, or
compare two records.

    python scripts/fingerprint.py --out record.json
    python scripts/fingerprint.py --diff old.json new.json

A record holds, for every case of ``CASES`` (every branch of every runner)
at each dimension of ``DIMS`` on ``shared_support_pair(d, 4,
default_rng(3))``, in each amplitude-estimation mode of ``MODES``: the
estimate as ``float.hex``, the ledger, the report's parameters (both
schedules, ``bound_value``, ``clamped``), and its notes.  For each point of
``FAMILY_POINTS`` it holds the certified polynomial's degree, its
``certified_error`` and ``global_bound`` as ``float.hex`` and the SHA-256 of
its coefficients.  One BLAS thread is pinned before numpy loads, and the
record names that count and the numpy version.

``--diff`` prints each value that moved between two records, old -> new
with a float's relative change, or "identical"; its exit code is 0 when
nothing moved and 1 otherwise.  Run it from a checkout: the package is
imported from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DIMS = (16, 64)
MODES = ("analytic", "adversarial", "sampled")

#: (quantity, alpha) for every branch of every runner of ``estimation.RUNNERS``
CASES = [("von-neumann", None), ("renyi", 0.5), ("renyi", 2.0),
         ("tsallis", 2.0), ("trace-power", 0.5), ("trace-power", 2.5),
         ("trace-power", 3.0), ("rank", None), ("exact-rank", None),
         ("max-entropy", None), ("trace-distance", 1.0),
         ("trace-distance", 1.5), ("trace-distance", 3.0),
         ("trace-distance", 4.0), ("fidelity", 0.5), ("fidelity", 0.25),
         ("fidelity", 0.2), ("renyi", 0.0), ("tsallis", 0.0)]

#: (family, constructor arguments): the ROADMAP item 3 points, the degree-cap
#: neg-power point and two more high-degree builds
FAMILY_POINTS = [("sqrt-neglog", (0.01, 1.5e-3)), ("interior-indicator", (0.01, 1.5e-3)),
                 ("threshold", (0.5, 0.01, 5e-4)), ("neg-power", (0.5, 4e-3, 1e-3)),
                 ("pos-power", (0.5, 0.02, 1e-3)), ("support-indicator", (0.01, 1e-3)),
                 ("neg-power", (0.25, 4e-3, 1e-3)), ("neg-power", (0.5, 0.01, 5e-4)),
                 ("support-indicator", (0.01, 5e-4))]


def bits(value):
    """``value`` with every float written as ``float.hex``."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return int(value)
    if isinstance(value, dict):
        return {str(k): bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    raise TypeError(f"no fingerprint for {type(value).__name__}")


def record() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from blockenc import estimation as est
    from blockenc import polyapprox as pa
    from blockenc.encodings import purification_of
    from blockenc.fixtures import shared_support_pair

    reports = {}
    for dim in DIMS:
        rho, sigma = shared_support_pair(dim, 4, np.random.default_rng(3))
        w = np.linalg.eigvalsh(rho)
        for mode in MODES:
            config = est.AmplitudeEstimatorConfig(mode=mode, seed=7)
            for quantity, alpha in CASES:
                oracles = [purification_of(rho, label="rho"),
                           purification_of(sigma, label="sigma")]
                rep = est.RUNNERS[quantity](oracles, [4, 4], 0.1, config, alpha=alpha,
                                            kappa=1.0 / w[w > 1e-10].min(), delta=0.05,
                                            epsilon_prime=0.1)
                reports[f"{quantity} alpha={alpha} d={dim} {mode}"] = bits({
                    "estimate": float(rep.estimate),
                    "ledger": {**rep.ledger.as_dict(),
                               "expected_complexity": rep.expected_complexity},
                    "parameters": rep.parameters, "notes": list(rep.notes)})
    polynomials = {}
    for family, args in FAMILY_POINTS:
        p = getattr(pa, pa.FAMILIES[family].constructor)(*args)
        polynomials[f"{family} {args}"] = {
            "degree": p.degree, "certified_error": float(p.certified_error).hex(),
            "global_bound": float(p.global_bound).hex(),
            "coefficients_sha256": hashlib.sha256(
                np.ascontiguousarray(p.coefficients, dtype=float).tobytes()).hexdigest()}
    return {"environment": {"blas_threads": BLAS_THREADS, "numpy": np.__version__},
            "reports": reports, "polynomials": polynomials}


def flatten(doc, prefix: str = "") -> dict:
    """Every leaf of ``doc`` by its path of keys."""
    if isinstance(doc, dict):
        return {path: leaf for k, v in doc.items()
                for path, leaf in flatten(v, f"{prefix}/{k}").items()}
    return {prefix: doc}


def moved(path: str, old, new) -> str:
    """``path: old -> new``, with the relative change of a float."""
    line = f"{path}: {old} -> {new}"
    if not (isinstance(old, str) and isinstance(new, str) and "0x" in old and "0x" in new):
        return line
    before, after = float.fromhex(old), float.fromhex(new)
    return line + (f" ({(after - before) / abs(before):+.3g} relative)" if before else "")


def diff(old: dict, new: dict) -> list[str]:
    """One line per leaf that moved, appeared or vanished."""
    a, b = flatten(old), flatten(new)
    return [moved(path, a.get(path, "(absent)"), b.get(path, "(absent)"))
            for path in sorted(set(a) | set(b)) if a.get(path) != b.get(path)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="write a record to this file")
    mode.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                      help="print what moved between two records")
    args = p.parse_args(argv)
    if args.out:
        Path(args.out).write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
        return 0
    old, new = (json.loads(Path(f).read_text()) for f in args.diff)
    lines = diff(old, new)
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
