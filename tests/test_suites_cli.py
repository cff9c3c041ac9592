import collections
import hashlib
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import dst.adjoint
import dst.kuelbs
import dst.suites
from dst.adjoint import AdjointPair
from dst.cli import _emit, build_parser, main
from dst.config import Tolerances
from dst.errors import ConfigError, InvalidInput
from dst.fileio import dump_json, matrix_to_obj
from dst.polar import polar_decompose
from dst.rng import Rng
from dst.spectral import spectral_measure
from dst.suites import SUITE_NAMES, TOL_DEFAULTS, CaseResult, Report, SuiteConfig, run_suite

SMALL = SuiteConfig(dims=(2, 4), trials=2, seed=7)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_small_config(name):
    cfg = SMALL if name != "laplacian" else SuiteConfig(dims=(2, 4), trials=2, seed=7, laplacian_ns=(8,))
    report = run_suite(name, cfg)
    failed = [c.case_id for c in report.cases if not c.passed]
    assert report.passed, failed
    # a check applies where its metric is reported: a row no case reports would gate nothing
    assert set(report.to_obj()["checks"][name]) <= set().union(*(c.metrics for c in report.cases))


def test_reports_are_reproducible():
    r1 = run_suite("deformed", SMALL)
    r2 = run_suite("deformed", SMALL)
    assert r1.to_obj() == r2.to_obj()


def test_corrupt_gram_negative_control():
    cfg = SuiteConfig(dims=(2,), trials=2, seed=7, corrupt_gram=True)
    report = run_suite("kuelbs", cfg)
    assert not report.passed
    assert all(c.failed == ("gram_min_eig",) and c.metrics["gram_min_eig"] < 0 for c in report.cases)


def _classical_of_minus_a(a, tols):
    # the classical spectrum of -A: the same moduli, the signs flipped
    return SimpleNamespace(values=-spectral_measure(a, tols=tols).values)


_CASES = dst.suites._cases


def _zero_min_support(prefix, stack, metrics, checks):
    # the support compares the same atoms, so only a fault in the metric itself fails this check alone
    if "deformed_min_support" in metrics:
        metrics = {**metrics, "deformed_min_support": np.zeros(len(stack))}
    return _CASES(prefix, stack, metrics, checks)


# each former pass condition, now a named check, and a fault (a patched
# module attribute or a tolerance override) that fails it and no other check
_FAULTS = [
    ("deformed", {}, (dst.suites, "spectral_measure", _classical_of_minus_a), "classical_max_atom"),
    ("deformed", {}, (dst.suites, "_cases", _zero_min_support), "deformed_min_support"),
    ("kuelbs", {}, (dst.kuelbs, "_SELFADJOINT_REL", -1.0), "lax_not_h_selfadjoint"),
    ("baire", {"baire.bound_slack": -1.0}, None, "bound_excess"),  # the error bound becomes 0
    ("baire", {"baire.rate_high": 0.05}, None, "rate_outside"),
    *((suite, {f"{suite}.accretive": -1e3}, None, "accretive_min") for suite in ("adjoint", "laplacian")),
    *((suite, {f"{suite}.inverse": -1.0}, None, "inverse_norm") for suite in ("adjoint", "laplacian")),
]


@pytest.mark.parametrize("suite, tol, fault, check", _FAULTS, ids=[f"{f[0]}-{f[3]}" for f in _FAULTS])
def test_each_former_condition_fails_alone_by_name(suite, tol, fault, check, monkeypatch):
    if fault is not None:
        monkeypatch.setattr(*fault)
    report = run_suite(suite, SuiteConfig(dims=(2, 4), trials=2, seed=7, laplacian_ns=(8,), tol=tol))
    assert not report.passed
    assert {c.failed for c in report.cases} <= {(), (check,)}
    counts = report.to_obj()["summary"]["failed_checks"]
    assert counts == {suite: {check: sum(not c.passed for c in report.cases)}}


def test_laplacian_closed_form_catches_a_perturbed_adjoint(monkeypatch):
    # the closed form J0 A^H inv(J0) is the independent check on the generic A*
    generic = dst.adjoint.adjoint
    monkeypatch.setattr(dst.adjoint, "adjoint", lambda op: AdjointPair(op, generic(op).astar + 1e-6))
    report = run_suite("laplacian", SuiteConfig(laplacian_ns=(8,)))
    assert not report.passed
    limit = TOL_DEFAULTS["laplacian.contract"]
    assert all(c.metrics["closed_form"] > limit and not c.passed for c in report.cases)


def test_jobs_flag_is_refused(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "deformed", "--dims", "2", "--trials", "1", "--jobs", "2"])
    assert "--jobs" in capsys.readouterr().err


def test_run_that_checks_nothing_fails():
    with pytest.raises(ConfigError):
        run_suite("deformed", SuiteConfig(dims=()))


def test_banach_spectral_runs_above_dim_16(tmp_path, capsys):
    report = tmp_path / "r.json"
    argv = [
        "verify", "--suite", "banach-spectral", "--dims", "32", "--trials", "1", "--p", "3",
        "--no-timestamp", "--report", str(report),
    ]
    assert main(argv) == 0
    assert "suite banach-spectral: 1/1 passed" in capsys.readouterr().err
    cases = json.loads(report.read_text())["cases"]
    assert [c["id"] for c in cases] == ["banach-spectral/p3.0/n32/t0"] and cases[0]["pass"]


def test_verify_defaults_are_the_suite_config_defaults():
    args = build_parser().parse_args(["verify"])
    cfg = SuiteConfig()
    assert (args.dims, args.trials, args.seed, args.p, args.lambdas, args.laplacian_ns) == (
        cfg.dims, cfg.trials, cfg.seed, cfg.ps, cfg.lambdas, cfg.laplacian_ns,
    )


# SHA-256 of the default `dst verify --suite all --no-timestamp` report,
# pinned with Python 3.11, numpy 2.4 and OpenBLAS 0.3.31. Re-pin only with
# a CHANGES.md entry that gives the largest metric drift.
GOLDEN_DEFAULT_REPORT = "c1341584d65c56347bf47207a26a3677b4b59cc2c0fc51f996f6d6e2e9bd92d9"


def _report_digest(tmp_path, *args) -> str:
    path = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", *args, "--no-timestamp", "--report", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_report_digest(tmp_path, capsys):
    assert _report_digest(tmp_path) == GOLDEN_DEFAULT_REPORT
    capsys.readouterr()


# The same for the benchmarked run (896 cases), whose kuelbs suite calls
# lp_operator_norm at dims 2 through 16.
GOLDEN_BENCH_REPORT = "c73bef9dfd30873ef587fed0db515c737636fff71e56a545da8c06cd1652122c"


def test_golden_bench_report_digest(tmp_path, capsys):
    digest = _report_digest(tmp_path, "--dims", "2,4,8,16", "--trials", "20", "--seed", "42")
    assert digest == GOLDEN_BENCH_REPORT
    capsys.readouterr()


def test_run_suite_builds_each_embedding_once_per_call(monkeypatch):
    # kuelbs, adjoint, baire and banach-spectral share one embedding per (p, dim)
    built = []
    build = dst.suites.build_kuelbs
    monkeypatch.setattr(dst.suites, "build_kuelbs", lambda space: built.append((space.p, space.dim)) or build(space))
    cfg = SuiteConfig(dims=(2, 4), trials=1, seed=7, laplacian_ns=(8,))
    run_suite("all", cfg)
    assert sorted(built) == [(1.5, 2), (1.5, 4), (3.0, 2), (3.0, 4)]
    run_suite("all", cfg)  # nothing is kept between calls
    assert len(built) == 8


def test_kuelbs_suite_estimates_each_configurations_lax_operators_in_one_call(monkeypatch):
    shapes = []
    estimate = dst.kuelbs.lp_operator_norm

    def spy(a, p):
        shapes.append((p, np.shape(a)))
        return estimate(a, p)

    monkeypatch.setattr(dst.kuelbs, "lp_operator_norm", spy)
    cfg = SuiteConfig(dims=(2, 4), trials=4)
    assert run_suite("kuelbs", cfg).passed
    assert shapes == [(p, (2, dim, dim)) for p in cfg.ps for dim in cfg.dims]


def test_deformed_suite_diagonalizes_each_negdef_input_once(lapack_calls):
    # deformed_of takes SVDs only; the negdef classical measures are one
    # stacked eigh per dim, of that dim's 3 trials
    run_suite("deformed", SuiteConfig(dims=(2, 5), trials=3))
    assert [shape for name, shape in lapack_calls.shapes if name == "eigh"] == [(3, 2, 2), (3, 5, 5)]


def test_bench_run_decomposes_each_input_once(monkeypatch):
    # every polar and its measure come from one SVD; the singular-value-only
    # calls are the suites' own oracles and count apart
    seen = []
    decompose = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append((hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest(), np.shape(a),
                     kwargs.get("compute_uv", True)))
        return decompose(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    run_suite("all", SuiteConfig(dims=(2, 4, 8, 16), trials=20, seed=42))
    assert len(seen) == 72
    assert len(set(seen)) == len(seen), "an input was decomposed twice"


def test_bench_run_draws_each_group_at_once(monkeypatch):
    # one Rng.matrix call per ensemble or probe group, over all its trials'
    # substreams; a per-trial draw loop would make about 1,800 calls
    seen = []
    draw = Rng.matrix

    def spy(self, rows, cols):
        seen.append(np.shape(self._state))
        return draw(self, rows, cols)

    monkeypatch.setattr(Rng, "matrix", spy)
    run_suite("all", SuiteConfig(dims=(2, 4, 8, 16), trials=20, seed=42))
    # per dim, 20 trials: deformed's 4 ensembles and their probes, funcalc's
    # ensemble, and an ensemble and a probe group per p in adjoint, baire and
    # banach-spectral: 4 * (8 + 1 + 3 * 2 * 2) = 84; kuelbs' Lax ensembles of
    # trials // 2 per (p, dim): 8; one stream each: kuelbs' probes and lp-norm
    # starts per (p, dim), 16, and laplacian's random operator and 4 demo
    # probe blocks per n, 10
    assert collections.Counter(seen) == {(20,): 84, (10,): 8, (): 26}


def test_summary_names_nonfinite_metrics():
    cases = (
        CaseResult("s/n2/t1", "d1", {"a": float("inf"), "b": 1.0}, {}, ("a",)),
        CaseResult("s/n2/t0", "d0", {"a": 0.5, "b": float("nan")}, {}, ("b",)),
    )
    summary = Report("s", 7, {}, cases).to_obj()["summary"]
    assert summary["max_metrics"] == {"a": 0.5, "b": 1.0}
    assert summary["nonfinite"] == ["s/n2/t0:b", "s/n2/t1:a"]
    finite = Report("s", 7, {}, (CaseResult("s/n2/t2", "d2", {"a": 1.0}, {}),))
    assert "nonfinite" not in finite.to_obj()["summary"]


def test_unknown_suite_and_tolerance():
    with pytest.raises(ConfigError):
        run_suite("nope", SMALL)
    with pytest.raises(ConfigError):
        SMALL.tolerance("nope.key")


def test_config_refuses_an_unknown_tolerance_key(capsys):
    # a mistyped override is refused when the config is built, not ignored
    with pytest.raises(ConfigError, match="unknown tolerance key 'adjoint.contrat'"):
        SuiteConfig(dims=(2,), trials=1, tol={"adjoint.contrat": 1e-300})
    assert main(["verify", "--suite", "adjoint", "--dims", "2", "--trials", "1", "--tol", "adjoint.contrat=1"]) == 1
    assert "unknown tolerance key 'adjoint.contrat'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_config_refuses_a_non_finite_tolerance(value):
    # an infinite limit would pass every case of its check
    with pytest.raises(ConfigError, match="tolerance 'adjoint.contract' must be finite"):
        SuiteConfig(dims=(2,), trials=1, tol={"adjoint.contract": value})


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_verify_refuses_a_non_finite_suite_tolerance(value, tmp_path, capsys):
    argv = ["verify", "--suite", "adjoint", "--dims", "2", "--trials", "1",
            "--tol", f"adjoint.contract={value}", "--report", str(tmp_path / "r.json")]
    assert main(argv) == 1
    assert "tolerance 'adjoint.contract' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------- CLI


def write_matrix(tmp_path, m, name="a.json"):
    path = tmp_path / name
    path.write_text(dump_json(matrix_to_obj(m)))
    return str(path)


def test_cli_polar_and_deformed(tmp_path, capsys):
    path = write_matrix(tmp_path, np.diag([-2.0, -1.0]).astype(complex))
    assert main(["polar", "--input", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 2
    assert out["residual_ut"] <= 1e-12

    out_path = str(tmp_path / "f.json")
    assert main(["deformed", "--input", path, "--out", out_path]) == 0
    obj = json.loads(open(out_path).read())
    assert obj["support"] == [1.0, 2.0]


def test_cli_funcalc(tmp_path, capsys):
    path = write_matrix(tmp_path, np.diag([-2.0, -1.0]).astype(complex))
    assert main(["funcalc", "--input", path, "--g", "lambda^2"]) == 0
    out = json.loads(capsys.readouterr().out)
    entries = out["result"]["entries"]
    assert entries[0] == [-4.0, 0.0]
    assert entries[3] == [-1.0, 0.0]


def test_cli_funcalc_bad_expression(tmp_path, capsys):
    path = write_matrix(tmp_path, np.eye(2, dtype=complex))
    assert main(["funcalc", "--input", path, "--g", "2lambda"]) == 1


def test_cli_kuelbs_and_adjoint(tmp_path, capsys):
    assert main(["kuelbs", "--p", "3", "--dim", "8", "--seed", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gram_min_eig"] > 0
    assert out["continuity_excess"] <= 1e-12

    # the worst excess is reported as measured, not clipped at -1
    assert main(["kuelbs", "--p", "3", "--dim", "64", "--trials", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["continuity_excess"] < -1.0

    path = write_matrix(tmp_path, Rng(401).matrix(8, 8))
    assert main(["adjoint", "--input", path, "--p", "3", "--dim", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"p", "dim", "astar", "contract", "involution", "accretive_min", "natural_selfadjoint",
                        "inverse_norm"}
    assert out["involution"] <= 1e-10
    assert out["accretive_min"] >= -1e-10


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_cli_kuelbs_rejects_runs_without_probes(trials, capsys):
    # a run with no probe vectors checks nothing and must not report maxima
    assert main(["kuelbs", "--p", "3", "--dim", "4", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials must be at least 1" in captured.err


def test_cli_baire_csv(tmp_path, capsys):
    path = write_matrix(tmp_path, Rng(402).matrix(4, 4))
    csv_path = str(tmp_path / "curve.csv")
    assert main(["baire", "--input", path, "--p", "3", "--lambdas", "1e1,1e2,1e3", "--csv", csv_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_below_bound"] is True
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "lambda,max_error,bound"
    assert len(lines) == 4


def test_cli_demo_laplacian(capsys):
    assert main(["demo", "laplacian", "--n", "8", "--r", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    # adjoint_metrics' own keys, as in the laplacian suite's cases
    assert set(out) == {
        "n", "r", "contract", "involution", "accretive_min", "natural_selfadjoint", "inverse_norm", "closed_form",
    }
    assert out["contract"] <= 1e-9
    assert out["closed_form"] <= 1e-9
    assert out["inverse_norm"] <= 1.0 + 1e-9


def test_cli_verify_deterministic_and_exit_codes(tmp_path, capsys):
    args = [
        "verify", "--suite", "kuelbs", "--dims", "2,4", "--trials", "2",
        "--seed", "42", "--no-timestamp",
    ]
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    assert main(args + ["--report", r1]) == 0
    assert main(args + ["--report", r2]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()
    capsys.readouterr()

    assert main(args + ["--report", str(tmp_path / "r3.json"), "--corrupt-gram"]) == 1


def test_emit_prints_the_canonical_text(tmp_path, capsys):
    report = run_suite("kuelbs", SMALL, timestamp="2026-01-02T03:04:05+00:00").to_obj()
    for obj in (matrix_to_obj(Rng(5).matrix(3, 2)), report):
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        _emit(obj, None)
        assert capsys.readouterr().out == text
        path = tmp_path / "out.json"
        _emit(obj, str(path))
        assert path.read_text(encoding="utf-8") == text


def test_verify_prints_the_report_it_saves(tmp_path, capsys):
    args = ["verify", "--suite", "deformed", "--dims", "2,3", "--trials", "2", "--seed", "7", "--no-timestamp"]
    path = tmp_path / "report.json"
    assert main(args + ["--report", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(args) == 0
    assert capsys.readouterr().out == path.read_text(encoding="utf-8")


def test_verify_names_each_failed_check_with_value_and_limit(tmp_path, capsys):
    path = tmp_path / "r.json"
    argv = ["verify", "--suite", "adjoint", "--dims", "2", "--trials", "3", "--p", "3", "--no-timestamp",
            "--tol", "adjoint.contract=0", "--report", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["checks"]["adjoint"]["contract"] == ["<=", 0.0]
    for case in report["cases"]:
        value = case["metrics"]["contract"]
        assert value > 0.0 and case["failed"] == ["contract"] and not case["pass"]
        assert f"FAIL {case['id']}: contract = {value!r}, not <= 0.0\n" in err
    assert report["summary"]["failed_checks"] == {"adjoint": {"contract": 3}}

    # a passing run names no failed check
    assert main(argv[:-4] + ["--report", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().err
    report = json.loads(path.read_text(encoding="utf-8"))
    assert "failed_checks" not in report["summary"] and not any("failed" in c for c in report["cases"])


def test_cli_verify_tol_override(tmp_path, capsys):
    args = [
        "verify", "--suite", "deformed", "--dims", "2", "--trials", "1", "--seed", "1",
        "--no-timestamp", "--tol", "deformed.reconstruction=1e-30",
        "--report", str(tmp_path / "r.json"),
    ]
    assert main(args) == 1  # absurd tolerance forces a failure
    capsys.readouterr()


def test_cli_bad_inputs(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["polar", "--input", missing]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["polar", "--input", str(bad)]) == 1
    capsys.readouterr()


_INPUT_COMMANDS = {
    "polar": [], "deformed": [], "funcalc": ["--g", "lambda^2"],
    "adjoint": ["--p", "3", "--dim", "4"], "baire": ["--p", "3"],
}


@pytest.mark.filterwarnings("error")  # as under `python -W error`: no overflow warning may escape
@pytest.mark.parametrize("command", list(_INPUT_COMMANDS))
def test_cli_refuses_entries_whose_products_overflow(command, tmp_path, capsys):
    # a finite 4 x 4 input scaled to 1e300 printed NaN residuals (or, for
    # baire, "error bound nan") with exit 0; it is refused at the boundary
    probe = Rng(409).matrix(4, 4)
    probe /= np.abs(probe).max()
    argv = [command, "--input", write_matrix(tmp_path, probe * 1e300), *_INPUT_COMMANDS[command]]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    match = re.search(r"max \|a_ij\| = (\S+) exceeds the limit (\S+) ", captured.err)
    assert match, captured.err
    top, limit = float(match[1]), float(match[2])
    assert top == pytest.approx(1e300, rel=1e-5) and 1e70 < limit < 1e77

    # just under the limit every command still reports finite numbers
    argv[2] = write_matrix(tmp_path, probe * (limit * (1 - 1e-5)), name="under.json")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "NaN" not in out and "Infinity" not in out
    argv[2] = write_matrix(tmp_path, probe * (limit * (1 + 1e-5)), name="over.json")
    assert main(argv) == 1
    assert "exceeds the limit" in capsys.readouterr().err


def test_cli_baire_lambda_cap(tmp_path, capsys):
    path = write_matrix(tmp_path, Rng(403).matrix(3, 3))
    assert main(["baire", "--input", path, "--lambdas", "1e1,1e9"]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_refuses_a_lambda_above_the_baire_cap(tmp_path, capsys):
    # above 1e8 the Baire check fails on roundoff, so verify refuses the
    # schedule as `dst baire` does, before any suite runs
    report = tmp_path / "r.json"
    argv = ["verify", "--dims", "2", "--trials", "1", "--lambdas", "1e1,1e9", "--report", str(report)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "capped at 1e8" in captured.err
    assert not report.exists()
    with pytest.raises(InvalidInput, match="capped at 1e8"):
        SuiteConfig(lambdas=(1e1, 1e12))
    assert SuiteConfig(lambdas=(1e1, 1e8)).lambdas == (1e1, 1e8)


# a schedule that checks nothing (empty, or a lambda whose 1/lambda
# overflows the error bound to inf) is refused, naming the value
@pytest.mark.parametrize("lambdas", ["", "1e-320", "1e1,0", "1e1,inf"])
def test_cli_refuses_a_schedule_that_checks_nothing(lambdas, tmp_path, capsys):
    path = write_matrix(tmp_path, Rng(408).matrix(4, 4))
    report = tmp_path / "r.json"
    for argv in (
        ["baire", "--input", path, "--lambdas", lambdas],
        ["verify", "--suite", "baire", "--dims", "4", "--trials", "1", "--lambdas", lambdas,
         "--report", str(report)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--lambdas {lambdas!r}" in captured.err
    assert not report.exists()


def test_cli_refuses_a_bound_that_overflows(tmp_path, capsys):
    # 1/lambda is finite at 1e-308, but the error bound / lambda is not
    path = write_matrix(tmp_path, Rng(408).matrix(4, 4))
    report = tmp_path / "r.json"
    for argv in (
        ["baire", "--input", path, "--p", "3", "--lambdas", "1e-308,1e1"],
        ["verify", "--suite", "baire", "--dims", "4", "--trials", "1", "--lambdas", "1e-308,1e1",
         "--report", str(report)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows at lambda 1e-308" in captured.err
    assert not report.exists()


# one rule for --lambdas in both commands: a descending schedule is refused
def test_cli_refuses_a_descending_schedule(tmp_path, capsys):
    path = write_matrix(tmp_path, Rng(409).matrix(4, 4))
    report = tmp_path / "r.json"
    for argv in (
        ["baire", "--input", path, "--lambdas", "1e2,1e1"],
        ["verify", "--suite", "baire", "--dims", "4", "--trials", "1", "--lambdas", "1e2,1e1",
         "--report", str(report)],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--lambdas '1e2,1e1': lambda schedule must be ascending" in captured.err
    assert not report.exists()
    with pytest.raises(ValueError, match="ascending"):
        run_suite("baire", SuiteConfig(dims=(4,), trials=1, lambdas=(1e2, 1e1)))


def test_suite_config_refuses_an_empty_schedule():
    with pytest.raises(ValueError, match="empty"):
        SuiteConfig(dims=(4,), trials=1, lambdas=())


def test_cli_list_parse_error_is_a_message(capsys):
    assert main(["verify", "--dims", "2,x"]) == 1
    assert "error: expected comma-separated integers, got '2,x'" in capsys.readouterr().err


# commands that reach no library threshold take no --tol: a flag that
# could change nothing is refused instead of silently ignored
@pytest.mark.parametrize(
    "argv",
    [
        ["kuelbs", "--p", "3", "--dim", "4", "--trials", "3", "--tol", "rank=0.5"],
        ["adjoint", "--input", "A", "--p", "3", "--dim", "4", "--tol", "rank=0.9"],
        ["baire", "--input", "A", "--p", "3", "--tol", "rank=0.9"],
        ["demo", "laplacian", "--tol", "rank=0.5"],
    ],
    ids=["kuelbs", "adjoint", "baire", "demo-laplacian"],
)
def test_tol_refused_where_no_threshold_is_reached(argv, tmp_path, capsys):
    path = write_matrix(tmp_path, Rng(404).matrix(4, 4))
    with pytest.raises(SystemExit) as exc:
        main([path if arg == "A" else arg for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_polar_tol_takes_only_the_rank_key(tmp_path, capsys):
    path = write_matrix(tmp_path, np.diag([1.0, 1e-3]).astype(complex))
    assert main(["polar", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 2
    assert main(["polar", "--input", path, "--tol", "rank=1e-2"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 1
    for key in ("cluster", "hermitian", "support"):
        assert main(["polar", "--input", path, "--tol", f"{key}=1e-6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"tolerance keys ['{key}'] do not apply here; valid: ['rank']" in captured.err


def test_hermitian_tol_reaches_no_command(tmp_path, capsys):
    # the polar factor T is Hermitian to the last bit, so the Hermiticity
    # check behind the hermitian key cannot fire on any command's path
    a = Rng(405).matrix(4, 4)
    t = polar_decompose(a).T
    assert np.array_equal(t, t.conj().T)
    path = write_matrix(tmp_path, a)
    for argv in (["deformed"], ["funcalc", "--g", "lambda"]):
        assert main([*argv, "--input", path, "--tol", "hermitian=1e-6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance keys ['hermitian'] do not apply here" in captured.err


def test_support_tol_reaches_no_command(tmp_path, capsys):
    # support_rel bounds the negative atoms that deform rejects; the commands
    # read the measure off the polar SVD and deform nothing, so it is refused
    path = write_matrix(tmp_path, Rng(406).matrix(3, 3))
    for argv in (["deformed"], ["funcalc", "--g", "lambda"]):
        assert main([*argv, "--input", path, "--tol", "support=0.9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance keys ['support'] do not apply here; valid: ['cluster', 'rank']" in captured.err


def test_cli_mtx_input(tmp_path, capsys):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n3\n0\n0\n4\n")
    assert main(["polar", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 2


# a threshold that is NaN, infinite or out of range is refused with the
# key named, instead of producing output computed with it
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_polar_refuses_bad_rank_threshold(value, tmp_path, capsys):
    path = write_matrix(tmp_path, Rng(406).matrix(4, 4))
    assert main(["polar", "--input", path, "--tol", f"rank={value}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rank" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bad_tol_scale_is_refused(value, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DST_TOL_SCALE", value)
    path = write_matrix(tmp_path, Rng(407).matrix(4, 4))
    assert main(["deformed", "--input", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DST_TOL_SCALE" in captured.err


def test_verify_refuses_nan_suite_tolerance(tmp_path, capsys):
    argv = ["verify", "--suite", "deformed", "--dims", "2", "--trials", "1",
            "--tol", "deformed.reconstruction=nan", "--report", str(tmp_path / "r.json")]
    assert main(argv) == 1
    assert "deformed.reconstruction" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("scale", float("nan")), ("scale", float("inf")), ("scale", 0.0),
        ("hermitian_rel", -1e-8), ("cluster_rel", float("inf")), ("support_rel", float("nan")),
        ("rank_rel", 0.0), ("rank_rel", 1.0), ("rank_rel", float("nan")),
    ],
)
def test_tolerances_refuse_bad_thresholds(field, value):
    with pytest.raises(ConfigError, match=field):
        Tolerances(**{field: value})
    assert Tolerances(rank_rel=0.5).rank_rel == 0.5
