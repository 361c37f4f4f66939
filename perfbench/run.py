"""blockenc benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory, never from an installed copy.  One client repeats the
workload's round of ops back to back, and stops at the first round boundary
after ``--seconds``.  Each op's latency is the median over its
repetitions, which damps slowdowns caused by other tenants of a shared
machine.  Every op run is then checked against the exact spectral oracle.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
wraps the package's public functions and prints the per-layer metrics.  The
last line of standard output is the result as one JSON object; details,
the environment and (traced) the spans go to ``.perfbench_out/``.  Exit
code 0 means every op passed its check, 1 that one failed, 2 bad usage or
a checkout without the package.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Layers named by the benchmark whose time is reported in the text table
#: only: on some workloads they never run, so their time is exactly zero.
TABLE_ONLY = ("encodings.product", "estimation.ae", "estimation.distribution_oracle",
              "cli", "cli.load_state")


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the end_to_end or per_layer metrics in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc[kind]]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 1:
        p.error("need --seed >= 0, --seconds > 0 and --blas-threads >= 1")
    return args


def set_blas_threads(requested: int) -> tuple[int, int]:
    """Pin the BLAS pool before numpy loads; never above the usable CPUs."""
    nproc = len(os.sched_getaffinity(0))
    threads = min(requested, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads, nproc


def environment(threads: int, nproc: int) -> dict:
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    return {"cpu": cpu, "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas_lib, "blas_threads": threads,
            "blas_threads_seen": openblas_threads(numpy)}


def openblas_threads(numpy):
    """The thread count OpenBLAS reports, when numpy bundles it; else None."""
    import ctypes
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    With fewer than 20 ops that percentile would be the median or lower, so
    the slowest op is reported instead (0 beyond it).
    """
    s = sorted(latencies)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def round_invariants(head) -> dict:
    """Totals over the first round.  The ledger sum runs to 1e22 and more, past
    what a 64-bit number holds exactly, so it is reported as its log10."""
    queries = sum(r["ledger_queries"] for r in head)
    return {"resources.ledger_queries_log10": math.log10(queries) if queries else 0.0,
            "estimation.clamped_frac": sum(r["clamped"] for r in head) / len(head),
            "estimation.err_over_eps_max": max(
                (r["err_over_eps"] for r in head if math.isfinite(r["err_over_eps"])),
                default=0.0),
            "fail_frac": sum(r["failed"] for r in head) / len(head)}


def compare_invariants(path: Path, records) -> str:
    """Check this run's per-op invariants against an earlier run of the seed."""
    keys = ("ledger_queries", "clamped", "failed")
    mine = [[r[k] for k in keys] for r in records]
    message = "no earlier run of this seed recorded"
    if path.exists():
        earlier = json.loads(path.read_text())
        common = min(len(earlier), len(mine))
        bad = [i for i in range(common) if earlier[i] != mine[i]]
        if bad:
            message = (f"WARNING: INVARIANTS DIFFER from an earlier run of this "
                       f"seed at ops {bad[:10]} (ledger queries, clamped, failed: "
                       f"{[earlier[i] for i in bad[:3]]} then {[mine[i] for i in bad[:3]]})")
            print("!" * 72 + "\n" + message + "\n" + "!" * 72, file=sys.stderr)
        else:
            message = f"identical to an earlier run of this seed over {common} ops"
    path.write_text(json.dumps(mine))
    return message


def per_layer_metrics(tracer, invariants: dict) -> dict:
    totals = tracer.layer_totals()
    c = tracer.counters
    values = dict(c)
    for name, row in totals.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
    formula = c.get("polyapprox.formula_degree", 0.0)
    values["polyapprox.degree_over_formula"] = (
        c.get("polyapprox.formula_realized", 0.0) / formula if formula else 0.0)
    values.update({k: v for k, v in invariants.items() if k != "fail_frac"})
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in declared_metrics("per_layer")}


def layer_table(tracer, n_ops: int) -> list[str]:
    """Self time per layer over the timed ops, as a share of op time."""
    ops = set(range(n_ops))
    totals = tracer.layer_totals(ops)
    op_time = sum(end - start for name, start, end, parent, op in tracer.spans
                  if name == "bench.op" and op in ops)
    lines = [f"layer self time over the {n_ops} timed ops "
             f"({op_time:.3f} s of op time):"]
    modules: dict[str, float] = {}
    for name, row in totals.items():
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + row["self_s"]
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:48s} {row['calls']:8d} calls {row['self_s']:10.4f} s "
                     f"{100.0 * row['self_s'] / op_time:6.2f} %")
    lines.append("  by module: " + ", ".join(
        f"{m} {100.0 * t / op_time:.1f} %"
        for m, t in sorted(modules.items(), key=lambda kv: -kv[1])))
    expected = {name.rsplit(".", 1)[0] for name, _ in declared_metrics("per_layer")
                if name.endswith((".calls", ".self_s"))} | set(TABLE_ONLY)
    absent = sorted(n for n in expected - tracer.wrapped
                    if not n.startswith("bench."))
    if absent:
        lines.append("  absent from this version (reported as 0 calls): "
                     + ", ".join(absent))
    if tracer.counter_errors:
        lines.append(f"  counter errors: {tracer.counter_errors}")
    return lines


def overhead_line(workload: str, seed: int, ops_per_s: float) -> str:
    same = OUT / f"{workload}-seed{seed}-trace0.json"
    candidates = [same] if same.exists() else sorted(OUT.glob(f"{workload}-seed*-trace0.json"))
    base = [json.loads(p.read_text())["end_to_end"]["ops_per_s"]["value"]
            for p in candidates]
    if not base:
        return "tracing overhead: no untraced run of this workload recorded yet"
    untraced = statistics.median(base)
    which = f"seed {seed}" if candidates == [same] else f"median of {len(base)} seeds"
    return (f"tracing overhead: {100.0 * (untraced - ops_per_s) / untraced:+.1f} % "
            f"ops_per_s (traced {ops_per_s:.4f} vs untraced {untraced:.4f}, {which})")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "blockenc" / "__init__.py").is_file():
        print(f"error: no blockenc package under {src}", file=sys.stderr)
        return 2
    threads, nproc = set_blas_threads(args.blas_threads)
    sys.path.insert(0, str(src))
    import blockenc
    if Path(blockenc.__file__).resolve().parent != (src / "blockenc").resolve():
        print(f"error: imported blockenc from {blockenc.__file__}", file=sys.stderr)
        return 2
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(threads, nproc)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install(tracer)

    def region(name, op):
        return tracer.region(name, op) if tracer is not None else nullcontext()

    setup_times = []

    def set_up(reps: int) -> None:
        """Time ``reps`` full set-ups; each builds the same seeded pool."""
        for _ in range(reps):
            t = time.perf_counter()
            with region("bench.setup", f"setup{len(setup_times)}"):
                workload.setup()
            setup_times.append(time.perf_counter() - t)

    # Half the set-ups run before the timed loop and half after it, so their
    # median samples the shared machine at two moments, not one.
    before = (workload.setup_reps + 1) // 2
    set_up(before)

    round_len, cycle_len = workload.round_len, len(workload.cycle)
    runs = []       # (op index in the round, latency, outcome or exception)
    t0 = time.perf_counter()
    while True:
        for i in range(round_len):
            if i % cycle_len == 0:
                workload.begin_cycle()
            t = time.perf_counter()
            try:
                with region("bench.op", len(runs)):
                    result = workload.start(i)
            except Exception as exc:  # a failed op is counted, not fatal
                result = exc
            latency = time.perf_counter() - t
            if not isinstance(result, Exception):
                try:
                    result = workload.outcome(workload.pool[i], result)
                except Exception as exc:
                    result = exc
            runs.append((i, latency, result))
        if time.perf_counter() - t0 >= args.seconds:
            break
    elapsed = time.perf_counter() - t0
    set_up(workload.setup_reps - before)

    records, failures = [], []
    for e, (i, latency, result) in enumerate(runs):
        op = workload.pool[i]
        rec = {"op": i, "latency": latency, "ledger_queries": 0, "clamped": False,
               "failed": True, "err_over_eps": math.inf}
        where = (f"op {i} ({op.quantity} alpha={op.alpha} d={op.dim} r={op.rank} "
                 f"eps={op.epsilon:.4g})")
        if isinstance(result, Exception):
            failures.append(f"{where}: {type(result).__name__}: {result}")
        else:
            with region("bench.check", f"check{e}"):
                ratio = workloads.check(op, result.estimate)
            rec.update(ledger_queries=result.ledger_queries, clamped=result.clamped,
                       err_over_eps=ratio, failed=not ratio <= 1.0)
            if rec["failed"]:
                failures.append(f"{where}: error is {ratio:.3f} x the allowed error")
        records.append(rec)

    n = len(records)
    failed = sum(r["failed"] for r in records)
    per_op: dict[int, list[float]] = {}
    for r in records:
        if not r["failed"]:
            per_op.setdefault(r["op"], []).append(r["latency"])
    op_latency = {i: statistics.median(v) for i, v in per_op.items()}
    lat = list(op_latency.values()) or [r["latency"] for r in records]
    tail_s, tail_pct, beyond = tail(lat)
    d_lo, d_hi = min(workload.dims), max(workload.dims)
    at = {d: [t for i, t in op_latency.items() if workload.pool[i].dim == d] or lat
          for d in (d_lo, d_hi)}
    values = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "op_dmin_mean_s": statistics.fmean(at[d_lo]),
        "op_dmax_mean_s": statistics.fmean(at[d_hi]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    e2e = {name: {"value": values[name], "unit": unit}
           for name, unit in declared_metrics("end_to_end")}
    invariants = round_invariants(records[:round_len])
    inv_message = compare_invariants(OUT / f"invariants-{args.workload}-seed{args.seed}.json",
                                     records[:round_len])

    reps = n // round_len
    lines = [f"blockenc benchmark: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}: {reps} repetitions of a {round_len}-op round "
             f"({round_len // cycle_len} cycles of {cycle_len}) in {elapsed:.2f} s, "
             f"{n / elapsed:.4f} op runs/s as run",
             "environment: " + ", ".join(f"{k} {v}" for k, v in env.items()),
             "end-to-end, from each op's median over its repetitions"
             + (" (traced, not comparable)" if tracer else "") + ":"]
    notes = {"op_tail_s": f"p{tail_pct:.1f} of {len(lat)} ops, {beyond} beyond",
             "op_dmin_mean_s": f"d = {d_lo}, {len(at[d_lo])} ops",
             "op_dmax_mean_s": f"d = {d_hi}, {len(at[d_hi])} ops",
             "setup_s": f"median of {len(setup_times)}: "
                        + ", ".join(f"{t:.4f}" for t in setup_times)}
    for k, m in e2e.items():
        lines.append(f"  {k:16s} {m['value']:14.6f} {m['unit']:5s} {notes.get(k, '')}")
    lines.append(f"  {'fail_frac':16s} {failed / n:14.6f} {'ratio':5s} "
                 f"{failed} of {n} op runs")
    lines.append("invariants over the first round: "
                 + ", ".join(f"{k} {v:.6g}" for k, v in invariants.items()))
    lines.append(f"invariant check: {inv_message}")
    lines += [f"FAILED {f}" for f in failures[:20]]

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "round_len": round_len, "repetitions": reps,
              "measured_s": elapsed, "end_to_end": e2e,
              "fail_frac": failed / n, "tail_percentile": tail_pct,
              "setup_times": setup_times, "invariants": invariants,
              "invariant_check": inv_message, "failures": failures,
              "latencies": [[r["op"], r["latency"]] for r in records]}
    metrics = e2e
    if tracer is not None:
        metrics = per_layer_metrics(tracer, invariants)
        lines.append("per-layer metrics:")
        lines += [f"  {k:52s} {m['value']:16.6f} {m['unit']}" for k, m in metrics.items()]
        lines += layer_table(tracer, n)
        lines.append(overhead_line(args.workload, args.seed,
                                   e2e["ops_per_s"]["value"]))
        detail["per_layer"] = metrics
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
