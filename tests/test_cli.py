import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from blockenc import cli
from blockenc import estimation as est
from blockenc import numerics as nm
from blockenc import polyapprox as pa
from blockenc.fixtures import floored_spectrum_state, maximally_mixed, shared_support_pair


def run(argv):
    return cli.main(argv)


def test_cli_import_loads_no_scipy():
    # the package depends on numpy alone; a fresh process shows what it loads
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, blockenc.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def write_state(tmp_path, name, matrix=None, kind="explicit-matrix", payload=None,
                rank=None):
    doc = cli.state_payload(matrix if matrix is not None else maximally_mixed(2),
                            kind=kind, payload=payload, rank=rank)
    if kind != "explicit-matrix" and matrix is None:
        doc["matrix"] = []
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_gen_state_deterministic_and_rank(tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["gen-state", "--dim", "8", "--rank", "3", "--seed", "5",
                "--out", out1]) == 0
    assert run(["gen-state", "--dim", "8", "--rank", "3", "--seed", "5",
                "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()
    doc = cli.load_state(out1)
    w = np.linalg.eigvalsh(doc["matrix_array"])
    assert int(np.sum(w > 1e-10)) == 3


def test_state_file_is_validated_once(tmp_path):
    doc = cli.load_state(write_state(tmp_path, "s.json", np.diag([0.7, 0.3])))
    assert cli._oracle_from_state(doc, "rho").encoded is doc["operator"]


def test_gen_state_rank_validation(tmp_path):
    assert run(["gen-state", "--dim", "2", "--rank", "4",
                "--out", str(tmp_path / "x.json")]) == 2


def _state_text(kind, **fields):
    doc = {"format": cli.STATE_FORMAT, "kind": kind, "dimension": 4, "rank": 2,
           "payload": {}, "matrix": []}
    doc.update(fields)
    return json.dumps(doc)


def _valid_state_text(**fields):
    doc = cli.state_payload(maximally_mixed(2))
    doc.update(fields)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


ESTIMATE = ["estimate", "--quantity", "von-neumann", "--state", "{path}"]
TRACE_DISTANCE = ["estimate", "--quantity", "trace-distance", "--alpha", "1",
                  "--state", "{path}", "--state2", "{path}"]
MALFORMED_INPUTS = {
    "spectrum-longer-than-dimension": (
        _state_text("spectrum-with-seed", payload={"spectrum": [0.2] * 5, "seed": 1}),
        ESTIMATE),
    "matrix-missing": (json.dumps({"format": cli.STATE_FORMAT, "kind": "explicit-matrix"}),
                       ESTIMATE),
    "entries-not-pairs": (_state_text("explicit-matrix", matrix=[[0.5, 0.0], [0.0, 0.5]]),
                          ESTIMATE),
    "not-json": ("{not json", ESTIMATE),
    "missing-file": (None, ESTIMATE),
    # BLOCKENC_DIM_CAP is 16 here, so nothing of dimension 32 may be generated
    "spectrum-dimension-above-cap": (
        _state_text("spectrum-with-seed", dimension=32,
                    payload={"spectrum": [0.5, 0.5], "seed": 1}),
        ESTIMATE),
    "gen-state-dimension-not-power-of-two": (
        None, ["gen-state", "--dim", "6", "--rank", "2", "--out", "{path}"]),
    "rank-missing": (_valid_state_text(rank=None), ESTIMATE),
    "rank-not-an-integer": (_valid_state_text(rank="two"), ESTIMATE),
    "rank-bound-zero": (_valid_state_text(), ESTIMATE + ["--rank-bound", "0"]),
    "epsilon-zero-trace-distance": (_valid_state_text(), TRACE_DISTANCE + ["--epsilon", "0"]),
    "epsilon-negative-fidelity": (
        _valid_state_text(), ["estimate", "--quantity", "fidelity", "--alpha", "0.5",
                              "--state", "{path}", "--state2", "{path}", "--epsilon", "-1"]),
    "epsilon-nan": (_valid_state_text(), ESTIMATE + ["--epsilon", "nan"]),
    "epsilon-inf-trace-distance": (_valid_state_text(), TRACE_DISTANCE + ["--epsilon", "inf"]),
}


# numeric arguments that once escaped as tracebacks (exit 1) or named the
# wrong argument; each exits 2 with a message naming the bad argument
BAD_NUMBERS = {
    "trace-power-alpha-nan": (["estimate", "--quantity", "trace-power", "--alpha", "nan",
                               "--state", "{path}"], "trace power needs alpha in"),
    "renyi-alpha-nan": (["estimate", "--quantity", "renyi", "--alpha", "nan",
                         "--state", "{path}"], "Renyi entropy needs alpha in"),
    "gen-state-seed-negative": (["gen-state", "--dim", "4", "--rank", "1", "--seed", "-1",
                                 "--out", "{path}"], "--seed must be >= 0"),
    "bench-scaling-sweep-r-zero": (["bench-scaling", "--quantity", "von-neumann",
                                    "--sweep-r", "0"], "--sweep-r must be"),
    "bench-scaling-sweep-r-not-numbers": (["bench-scaling", "--quantity", "von-neumann",
                                           "--sweep-r", "a,b"], "--sweep-r must be"),
    **{f"bench-scaling-r-{r}": (["bench-scaling", "--quantity", "von-neumann",
                                 "--sweep-eps", "0.2,0.1", "--r", r], "--r must be at least 1")
       for r in ("0", "-1")},
    # the fixture's dimension is at most 16, so a larger rank once failed in
    # the fixture (exit 1); --r is read only with --sweep-eps
    **{f"bench-scaling-{name}": (["bench-scaling", "--quantity", quantity, *argv],
                                 f"{flag} must be at most the fixture's dimension 16, got {r}")
       for name, quantity, argv, flag, r in [
           ("sweep-r-17", "von-neumann", ["--sweep-r", "16,17"], "--sweep-r", 17),
           ("two-states-sweep-r-18", "trace-distance", ["--sweep-r", "17,18"], "--sweep-r", 18),
           ("r-17", "von-neumann", ["--sweep-eps", "0.2,0.1", "--r", "17"], "--r", 17)]},
    # delta is in (0, 1/2], but the power families' quadratures start at
    # delta^2, which underflows to zero
    **{f"{family}-delta-squared-underflows": (
        ["approx-poly", "--family", family, "--delta", "1e-200", "--epsilon", "0.01"],
        f"{family} delta must be in") for family in ("pos-power", "neg-power")},
    # just above sqrt(float min), delta^2 is normal but the quadrature's
    # cutoff lambda / delta^2 overflowed (exit 1, OverflowError)
    **{f"{family}-quadrature-cutoff-overflows": (
        ["approx-poly", "--family", family, "--delta", "2e-154", "--epsilon", "0.01"],
        f"{family} delta must be in") for family in ("pos-power", "neg-power")},
    # each once exited 1 with a ZeroDivisionError or an OverflowError in the
    # schedule's or the ledger's arithmetic
    "von-neumann-epsilon-tiny": (["estimate", "--quantity", "von-neumann", "--epsilon",
                                  "1e-308", "--state", "{path}"], "epsilon must be"),
    "renyi-alpha-tiny": (["estimate", "--quantity", "renyi", "--alpha", "1e-308",
                          "--state", "{path}"], "Renyi entropy at alpha = 1e-308 raises"),
    "renyi-alpha-tiny-epsilon-huge": (
        ["estimate", "--quantity", "renyi", "--alpha", "1e-308", "--epsilon", "1e308",
         "--state", "{path}"], "epsilon must be"),
    "renyi-epsilon-tiny": (["estimate", "--quantity", "renyi", "--alpha", "3", "--epsilon",
                            "1e-308", "--state", "{path}"], "epsilon must be"),
    # the schedules' epsilon / (c r) cannot hold a rank bound beyond double
    # range (exit 1, OverflowError), and no rank exceeds the dimension
    **{f"rank-bound-{name}": (
        ["estimate", "--quantity", "von-neumann", "--rank-bound", bound, "--state", "{path}"],
        f"rank bound {bound} is above the dimension 2 of input 'rho'")
       for name, bound in [("above-dimension", "3"), ("401-digits", str(10 ** 400))]},
    # a sampled estimate draws from all M outcomes: here M = 1.26e13, which
    # once failed to allocate 91.4 TiB (exit 1)
    "sampled-outcomes-above-cap": (
        ["estimate", "--quantity", "trace-power", "--alpha", "3", "--epsilon", "1e-12",
         "--ae-mode", "sampled", "--state", "{path}"],
        "sampled amplitude estimation draws from all M = 12566376897545 outcomes, above the "
        "cap 4194304; a larger epsilon needs fewer"),
    "trace-distance-alpha-huge": (
        ["estimate", "--quantity", "trace-distance", "--alpha", "1e308", "--state", "{path}",
         "--state2", "{path}"], "alpha-trace-distance at alpha = 1e+308 takes"),
    # beta = (1 - alpha) / (2 alpha) just above an integer: the schedule raised
    # epsilon / 6r to about 1 / (alpha frac(beta)) = 300
    "fidelity-alpha-fractional-beta-underflows": (
        ["estimate", "--quantity", "fidelity", "--alpha", "0.331", "--state", "{path}",
         "--state2", "{path}"], "alpha-fidelity at alpha = 0.331 raises epsilon / r"),
    "max-entropy-kappa-zero": (["estimate", "--quantity", "max-entropy", "--kappa", "0",
                                "--state", "{path}"], "max entropy needs a finite kappa > 0"),
    # delta once reached the ledger's degree formula, which overflowed (exit
    # 1), or, below 1.6e-5, the threshold projector, whose message named
    # eps^2 and delta / 2; 2 kappa = inf made delta zero
    **{f"{quantity}-delta-{delta}": (
        ["estimate", "--quantity", quantity, "--delta", delta, "--state", "{path}"],
        "rank estimation needs delta in [1.6e-05, 1/10], got")
       for quantity in ("rank", "max-entropy") for delta in ("1e-308", "1e-160", "1.5e-05")},
    # the quadrature's weights exp(a u - lgamma(a)) overflow, and the nan
    # they make once kept the kernel's order loop running without end; at
    # c = 1e306 the formula degree, and at delta = epsilon = 0.5 lgamma,
    # overflowed (exit 1)
    **{f"neg-power-c-{c}-delta-{delta}-epsilon-{eps}": (
        ["approx-poly", "--family", "neg-power", "--c", c, "--delta", delta,
         "--epsilon", eps], f"the neg-power {what} not finite at {{'c': {float(c)}, "
                            f"'delta': {float(delta)}, 'epsilon': {float(eps)}}}")
       for c, delta, eps, what in [
           ("1000", "0.1", "0.01", "surrogate is"), ("300", "0.1", "0.01", "surrogate is"),
           ("1e305", "0.1", "0.01", "surrogate is"), ("150", "0.01", "1e-3", "surrogate is"),
           ("100", "1e-3", "1e-6", "surrogate is"),
           ("1e306", "0.1", "0.01", "formula degree or surrogate is"),
           ("1e306", "0.5", "0.5", "formula degree or surrogate is")]},
    **{f"{quantity}-kappa-{kappa}": (
        ["estimate", "--quantity", quantity, "--kappa", kappa, "--state", "{path}"]
        + (["--alpha", "0"] if quantity in ("renyi", "tsallis") else []), message)
       for kappa in ("nan", "inf", "1e308", "31251")
       for quantity, message in [("max-entropy", "max entropy needs a finite kappa > 0"),
                                 ("renyi", "max entropy needs a finite kappa > 0"),
                                 ("exact-rank", "the exact rank needs a finite kappa >= 1"),
                                 ("tsallis", "the exact rank needs a finite kappa >= 1")]},
}


@pytest.mark.parametrize("case", list(BAD_NUMBERS))
def test_bad_numeric_argument_exits_2_naming_it(tmp_path, capsys, case):
    argv, message = BAD_NUMBERS[case]
    state = write_state(tmp_path, "s.json")
    assert run([arg.format(path=state) for arg in argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", [case for case in BAD_NUMBERS if case.startswith("neg-power-c-")])
def test_neg_power_refusal_warns_nothing(capsys, case):
    # the weights' overflow is refused before the surrogate or the target is
    # sampled; numpy once printed up to five RuntimeWarnings first
    argv, message = BAD_NUMBERS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, monkeypatch, capsys, case):
    monkeypatch.setenv("BLOCKENC_DIM_CAP", "16")
    text, argv = MALFORMED_INPUTS[case]
    path = tmp_path / "s.json"
    if text is not None:
        path.write_text(text)
    assert run([arg.format(path=path) for arg in argv]) == 2
    assert "error:" in capsys.readouterr().err


#: state documents that fail validation, and a fragment of each one's message
BAD_STATE_DOCUMENTS = {
    "format-not-v1": (_state_text("explicit-matrix", format="blockenc-state-v0"),
                      "not a blockenc-state-v1 file"),
    "unknown-kind": (_state_text("density-cloud"), "unknown state kind 'density-cloud'"),
    "unknown-fixture": (_state_text("named-fixture", payload={"name": "pure-9"}),
                        "unknown fixture 'pure-9'"),
    "pair-fixture": (_state_text("named-fixture", payload={"name": "orthogonal-pure-pair"}),
                     "unknown fixture 'orthogonal-pure-pair'"),
    "probabilities-not-normalized": (
        _state_text("probability-vector", payload={"probabilities": [0.5, 0.25, 0.125, 0.0]}),
        "sum to one"),
    # the finite entries sum to one, so only the finiteness test rejects it
    "probabilities-nan": (
        _state_text("probability-vector", rank=4,
                    payload={"probabilities": [math.nan, 0.5, 0.25, 0.25]}),
        "probabilities must be finite"),
    "probabilities-length-not-power-of-two": (
        _state_text("probability-vector", payload={"probabilities": [0.5, 0.25, 0.25]}),
        "distribution dimension 3 is not a power of two"),
}


@pytest.mark.parametrize("case", list(BAD_STATE_DOCUMENTS))
def test_bad_state_document_exits_2_naming_the_file(tmp_path, capsys, case):
    text, message = BAD_STATE_DOCUMENTS[case]
    path = tmp_path / "s.json"
    path.write_text(text)
    assert run(["estimate", "--quantity", "von-neumann", "--state", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and str(path) in err


@pytest.mark.parametrize("name, matrix", [
    ("maximally-mixed-4", np.eye(4) / 4), ("pure-0", np.diag([1.0, 0.0])),
    ("bell-reduced", np.eye(2) / 2), ("diag-3-1", np.diag([0.75, 0.25]))])
def test_every_named_fixture_loads(tmp_path, name, matrix):
    path = tmp_path / "n.json"
    path.write_text(_state_text("named-fixture", payload={"name": name}))
    doc = cli.load_state(str(path))
    assert np.array_equal(doc["matrix_array"], matrix)
    assert np.allclose(doc["operator"].matrix, matrix, atol=1e-15)


def test_classical_state_file_builds_no_system_sized_array(tmp_path):
    # one N x N complex array at d = 1024 is 16 MiB; a classical state is
    # decoded to its oracle, whose factor keeps only the support
    p = np.zeros(1024)
    p[[0, 5, 77, 1023]] = [0.4, 0.3, 0.2, 0.1]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"format": cli.STATE_FORMAT, "kind": "probability-vector",
                                "dimension": 1024, "rank": 4,
                                "payload": {"probabilities": p.tolist()}}))
    tracemalloc.start()
    try:
        oracle = cli._oracle_from_state(cli.load_state(str(path)), "rho")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    direct = est.distribution_to_purified_oracle(p, label="rho")
    assert oracle.label == direct.label == "rho"
    assert np.array_equal(oracle.encoded.factor, direct.encoded.factor)


def test_verify_unknown_suite_is_a_usage_error(capsys):
    # argparse's choices reject it before the command runs
    with pytest.raises(SystemExit) as exit_:
        run(["verify", "--suite", "nope"])
    assert exit_.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_spectrum_longer_than_its_dimension_gives_both_lengths(tmp_path, capsys):
    text, argv = MALFORMED_INPUTS["spectrum-longer-than-dimension"]
    path = tmp_path / "s.json"
    path.write_text(text)
    assert run([arg.format(path=path) for arg in argv]) == 2
    assert "spectrum has 5 entries, more than the dimension 4" in capsys.readouterr().err


def test_estimate_von_neumann_maximally_mixed(tmp_path):
    state = write_state(tmp_path, "mm4.json", maximally_mixed(4))
    out = str(tmp_path / "rep.json")
    assert run(["estimate", "--quantity", "von-neumann", "--state", state,
                "--epsilon", "0.1", "--out", out]) == 0
    rep = json.load(open(out))["report"]
    assert abs(rep["estimate"] - np.log(4)) <= 0.1
    assert rep["ledger"]["queries"]["rho"] > 0
    assert set(rep["ledger"]) == {"queries", "controlled", "gates", "expected_complexity"}


def test_estimate_trace_distance_identical_files(tmp_path):
    state = write_state(tmp_path, "s.json", np.diag([0.7, 0.3]).astype(complex))
    out = str(tmp_path / "rep.json")
    assert run(["estimate", "--quantity", "trace-distance", "--alpha", "1",
                "--state", state, "--state2", state, "--epsilon", "0.1",
                "--out", out]) == 0
    rep = json.load(open(out))["report"]
    assert abs(rep["estimate"]) <= 0.05


def test_estimate_fidelity_generated_pair(tmp_path):
    s1, s2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(["gen-state", "--dim", "4", "--rank", "2", "--seed", "3", "--out", s1])
    run(["gen-state", "--dim", "4", "--rank", "2", "--seed", "4", "--out", s2])
    out = str(tmp_path / "rep.json")
    assert run(["estimate", "--quantity", "fidelity", "--alpha", "0.5",
                "--state", s1, "--state2", s2, "--epsilon", "0.1",
                "--out", out]) == 0
    rep = json.load(open(out))["report"]
    assert abs(rep["estimate"] - rep["true_value"]) <= 0.1


def test_estimate_probability_vector_routes_to_distribution_oracle(tmp_path):
    doc = {"format": cli.STATE_FORMAT, "kind": "probability-vector",
           "dimension": 4, "rank": 4,
           "payload": {"probabilities": [0.25, 0.25, 0.25, 0.25]},
           "matrix": cli.matrix_to_json(maximally_mixed(4))}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "rep.json")
    assert run(["estimate", "--quantity", "tsallis", "--alpha", "3",
                "--state", str(path), "--epsilon", "0.05", "--out", out]) == 0
    rep = json.load(open(out))["report"]
    assert abs(rep["estimate"] - 15.0 / 32.0) <= 0.05


def test_estimate_missing_second_state_is_validation_error(tmp_path):
    state = write_state(tmp_path, "s.json")
    assert run(["estimate", "--quantity", "fidelity", "--alpha", "0.5",
                "--state", state]) == 2


def test_named_fixture_and_spectrum_kinds(tmp_path):
    named = {"format": cli.STATE_FORMAT, "kind": "named-fixture", "dimension": 2,
             "rank": 2, "payload": {"name": "diag-3-1"}, "matrix": []}
    p1 = tmp_path / "n.json"
    p1.write_text(json.dumps(named))
    doc = cli.load_state(str(p1))
    assert np.allclose(doc["matrix_array"], np.diag([0.75, 0.25]))
    spectrum_doc = {"format": cli.STATE_FORMAT, "kind": "spectrum-with-seed",
                    "dimension": 4, "rank": 2,
                    "payload": {"spectrum": [0.6, 0.4], "seed": 9}, "matrix": []}
    p2 = tmp_path / "sp.json"
    p2.write_text(json.dumps(spectrum_doc))
    doc = cli.load_state(str(p2))
    w = np.sort(np.linalg.eigvalsh(doc["matrix_array"]))[::-1]
    assert np.allclose(w[:2], [0.6, 0.4], atol=1e-10)


def test_verify_suites_pass(tmp_path):
    out = str(tmp_path / "v.json")
    assert run(["verify", "--suite", "all", "--trials", "25", "--seed", "1",
                "--out", out]) == 0
    doc = json.load(open(out))
    assert all(s["violations"] == 0 for s in doc["suites"])
    assert {s["suite"] for s in doc["suites"]} == {"weyl", "truncation",
                                                   "holder", "sandwich"}


def test_verify_rejects_no_trials(tmp_path):
    # a maximum over no trials has no value to report
    assert run(["verify", "--suite", "sandwich", "--trials", "0",
                "--out", str(tmp_path / "v.json")]) == 2


def _sandwich_sides(trials, seed, delta, eps, lo, hi):
    """Both sides' violations, recomputed from rho's spectrum: the threshold
    projector's output B is a function of rho, so B, P and P_2delta share
    rho's eigenvectors and each side's eigenvalues are read off the diagonal
    of V^dag B V."""
    rng, sides = np.random.default_rng(seed), []
    for _ in range(trials):
        dim = int(rng.choice([4, 8]))
        rho = cli.ginibre_state(dim, int(rng.integers(1, 5)), rng)
        b = cli.tf.eigenvalue_threshold_projector(
            cli.purification_of(rho), delta, eps).encoded.matrix
        w, v = np.linalg.eigh(rho)
        d = np.einsum("ji,jk,ki->i", v.conj(), b, v).real
        sides.append((-(d - lo * (w > 2 * delta)).min(), -(hi * (w > 1e-10) - d).min()))
    return sides


@pytest.mark.parametrize("upper", ["as-stated", "too-small"])
def test_sandwich_worst_ratio_covers_both_sides(monkeypatch, upper):
    lo, hi = cli.tf.sandwich_coefficients(0.05, 0.01)
    if upper == "too-small":
        # B's eigenvalues on the 2 delta support are about delta / 4 = 0.0125,
        # above this upper multiplier, so only the upper side is violated
        hi = 0.01
        monkeypatch.setattr(cli.tf, "sandwich_coefficients", lambda d, e: (lo, hi))
    got = cli._verify_sandwich(6, np.random.default_rng(11))
    assert (got["delta"], got["epsilon"]) == (0.05, 0.01)
    sides = _sandwich_sides(6, 11, 0.05, 0.01, lo, hi)
    assert abs(got["worst_ratio"] - max(max(s) for s in sides)) <= 1e-12
    if upper == "as-stated":
        # on rho's kernel B, P and P_2delta all vanish, so both sides are
        # tight there and the number is rounding-level
        assert got["violations"] == 0 and abs(got["worst_ratio"]) <= 1e-12
    else:
        assert got["violations"] == 6 and got["worst_ratio"] > 2e-3
        assert max(s[0] for s in sides) <= 1e-12


def test_approx_poly_dump_and_certification(tmp_path):
    out = str(tmp_path / "p.json")
    assert run(["approx-poly", "--family", "neg-power", "--c", "0.5",
                "--delta", "0.1", "--epsilon", "0.01", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["certified_error"] <= 0.01
    assert doc["global_bound"] <= 1.0 + 1e-9
    assert len(doc["chebyshev_coefficients"]) == doc["degree"] + 1


def test_approx_poly_invalid_band_exit_code():
    assert run(["approx-poly", "--family", "threshold", "--t", "0.99",
                "--delta", "0.05", "--epsilon", "0.01"]) == 2


def test_approx_poly_degree_within_formula_slack(tmp_path):
    out = str(tmp_path / "p.json")
    assert run(["approx-poly", "--family", "sqrt-neglog", "--delta", "0.1",
                "--epsilon", "0.01", "--out", out]) == 0
    doc = json.load(open(out))
    assert doc["degree"] <= 16 * pa.approx_sqrt_neglog.formula(0.1, 0.01)


#: a point where every family builds: the --c and --t defaults, and the
#: --delta and --epsilon that CI builds each family at
VALID_FLAGS = {"c": 0.5, "t": 0.5, "delta": 0.05, "epsilon": 0.01}


def flag_of(parameter):
    """sqrt-neglog's delta' reads --delta; every other parameter its own flag."""
    return "delta" if parameter == "delta_prime" else parameter


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("family, parameter", [
    (name, parameter) for name, record in pa.FAMILIES.items() for parameter in record.ranges])
def test_out_of_range_family_parameter_exits_2_naming_it(capsys, family, parameter, value):
    record = pa.FAMILIES[family]
    flags = dict(VALID_FLAGS, **{flag_of(parameter): value})
    message = f"{family} {parameter} must be in"
    with pytest.raises(nm.ValidationError, match=message):
        getattr(pa, record.constructor)(**{p: flags[flag_of(p)] for p in record.ranges})
    assert run(["approx-poly", "--family", family]
               + [f"--{flag}={v}" for flag, v in flags.items()]) == 2
    assert message in capsys.readouterr().err


def test_bench_scaling_emits_slopes(tmp_path):
    out = str(tmp_path / "b.json")
    assert run(["bench-scaling", "--quantity", "tsallis", "--alpha", "3",
                "--sweep-r", "2,4", "--sweep-eps", "0.4,0.2", "--r", "2",
                "--epsilon", "0.1", "--seed", "0", "--out", out]) == 0
    doc = json.load(open(out))
    assert abs(doc["slope_r"]) < 1e-9
    assert doc["slope_eps"] > 0.5
    assert len(doc["points"]) == 4


@pytest.mark.parametrize("argv, slope", [
    (["--quantity", "trace-distance"], 5.2394),
    (["--quantity", "fidelity", "--alpha", "0.5"], 6.8902)], ids=["trace-distance", "fidelity"])
def test_bench_scaling_runs_the_two_state_fixture(tmp_path, argv, slope):
    out = str(tmp_path / "b.json")
    assert run(["bench-scaling", *argv, "--sweep-r", "2,4", "--out", out]) == 0
    doc = json.load(open(out))
    assert all(set(point["queries"]) == {"rho", "sigma"} for point in doc["points"])
    assert doc["slope_r"] == pytest.approx(slope, abs=1e-4)


@pytest.mark.parametrize("argv", [
    ["--quantity", "von-neumann", "--sweep-r", "16"],
    ["--quantity", "trace-distance", "--sweep-r", "16"],
    # --r is read only with --sweep-eps
    ["--quantity", "von-neumann", "--r", "17"]], ids=["one-state", "two-states", "r-unread"])
def test_bench_scaling_runs_up_to_the_fixture_dimension(tmp_path, argv):
    assert run(["bench-scaling", *argv, "--out", str(tmp_path / "b.json")]) == 0


def test_approx_poly_certification_failure_exit_code():
    # large exponent at tiny delta cannot certify under the degree cap
    assert run(["approx-poly", "--family", "neg-power", "--c", "3.0",
                "--delta", "0.002", "--epsilon", "0.001"]) == 3


@pytest.mark.parametrize("c", ["10", "100"])
def test_approx_poly_large_finite_exponent_still_fails_certification(capsys, c):
    # the quadrature's weights are finite here, so the build runs its ladder
    # and fails to certify; from c = 300 at this delta and epsilon they are not
    assert run(["approx-poly", "--family", "neg-power", "--c", c, "--delta", "0.1",
                "--epsilon", "0.01", "--out", os.devnull]) == 3
    assert "certification of neg-power failed" in capsys.readouterr().err


def test_schedule_budget_failure_exit_code(tmp_path, capsys):
    # the bound's QSVT_PRECISION * r * ln(1/delta) term alone exceeds eps, so
    # no tightening round can meet it
    rho = floored_spectrum_state(8, 4, np.random.default_rng(0))
    state = write_state(tmp_path, "s.json", rho, rank=4)
    assert run(["estimate", "--quantity", "von-neumann", "--epsilon", "1e-11",
                "--state", state]) == 3
    assert "bound 1.281e-10 > target 1e-11" in capsys.readouterr().err


def test_state_file_rank_counts_as_the_pipeline_does(tmp_path):
    # an eigenvalue of 1e-12 lies above the support cut but below RANK_CUT:
    # the file says rank 4, and the estimate's rank check counts 4 as well
    m = np.diag([0.4, 0.3, 0.2, 0.1 - 1e-12, 1e-12, 0.0, 0.0, 0.0]).astype(complex)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(cli.state_payload(m)))
    assert json.loads(path.read_text())["rank"] == 4
    assert run(["estimate", "--quantity", "von-neumann", "--state", str(path),
                "--out", str(tmp_path / "r.json")]) == 0


def test_rank_bound_below_the_input_rank_exits_2(tmp_path, capsys):
    state = str(tmp_path / "full.json")
    assert run(["gen-state", "--dim", "64", "--rank", "64", "--out", state]) == 0
    assert run(["estimate", "--quantity", "von-neumann", "--rank-bound", "4",
                "--state", state, "--out", str(tmp_path / "r.json")]) == 2
    assert "rank bound 4 is below the rank 64" in capsys.readouterr().err


QUANTITY_NAMES = ("von-neumann", "renyi", "tsallis", "trace-power", "rank",
                  "exact-rank", "max-entropy", "trace-distance", "fidelity")
ALPHAS = {"renyi": 0.5, "tsallis": 2.0, "trace-power": 3.0, "fidelity": 0.5}
RANK_DELTA, RANK_EPS_PRIME = 0.05, 0.1


def parser_choices(subcommand, dest="quantity"):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[subcommand]._actions
                if a.dest == dest)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_cli_table_and_runners_share_one_set_of_quantities():
    assert (set(QUANTITY_NAMES) == set(parser_choices("estimate"))
            == set(nm.QUANTITIES) == set(est.RUNNERS))
    assert set(parser_choices("bench-scaling")) <= set(nm.QUANTITIES)


def test_approx_poly_families_are_the_table():
    assert parser_choices("approx-poly", "family") == tuple(pa.FAMILIES)


def broken_alpha_rule(quantity):
    """Arguments that break the quantity's alpha rule, and the expected error:
    no --alpha where one is needed, an --alpha where none is taken."""
    if quantity in ALPHAS:
        return [], f"{quantity} needs alpha"
    return ["--alpha", "0.5"], f"{quantity} takes no alpha"


@pytest.mark.parametrize("quantity", ["renyi", "tsallis", "trace-power", "fidelity",
                                      "von-neumann", "rank", "exact-rank",
                                      "max-entropy"])
def test_estimate_missing_alpha_is_validation_error(tmp_path, capsys, quantity):
    state = write_state(tmp_path, "s.json")
    extra, message = broken_alpha_rule(quantity)
    assert run(["estimate", "--quantity", quantity, "--state", state,
                "--state2", state] + extra) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("quantity", ["renyi", "tsallis", "trace-power", "fidelity",
                                      "von-neumann"])
def test_bench_scaling_missing_alpha_is_validation_error(capsys, quantity):
    extra, message = broken_alpha_rule(quantity)
    assert run(["bench-scaling", "--quantity", quantity, "--sweep-r", "1,2"]
               + extra) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("quantity", QUANTITY_NAMES)
def test_estimate_every_quantity_meets_its_guarantee(tmp_path, quantity):
    eps = 0.2
    rho, sigma = shared_support_pair(4, 2, np.random.default_rng(11))
    argv = ["estimate", "--quantity", quantity, "--epsilon", str(eps),
            "--state", write_state(tmp_path, "rho.json", rho),
            "--delta", str(RANK_DELTA), "--epsilon-prime", str(RANK_EPS_PRIME),
            "--out", str(tmp_path / "rep.json")]
    if quantity in ("trace-distance", "fidelity"):
        argv += ["--state2", write_state(tmp_path, "sigma.json", sigma)]
    if quantity in ALPHAS:
        argv += ["--alpha", str(ALPHAS[quantity])]
    w = np.linalg.eigvalsh(rho)
    if quantity == "exact-rank":
        argv += ["--kappa", str(1.0 / w[w > 1e-10].min())]
    assert run(argv) == 0
    report = json.load(open(tmp_path / "rep.json"))["report"]
    got = report["estimate"]
    exact = nm.exact_quantity(quantity, rho, sigma, ALPHAS.get(quantity))
    assert abs(report["true_value"] - exact) <= 1e-12
    rank = nm.operator_rank(rho)
    rank_delta = nm.rank_delta(rho, RANK_DELTA)
    if quantity == "exact-rank":
        assert got == rank
    elif quantity == "rank":
        assert ((1 - eps) * rank_delta - RANK_EPS_PRIME <= got
                <= (1 + eps) * rank + RANK_EPS_PRIME)
        assert report["notes"] == [f"rank_delta(rho, {RANK_DELTA}) = {rank_delta}"]
    elif quantity == "max-entropy":
        assert math.log(rank_delta) - eps <= got <= math.log(rank) + eps
    else:
        truth = nm.exact_quantity(quantity, rho, sigma, ALPHAS.get(quantity))
        assert abs(got - truth) <= eps
