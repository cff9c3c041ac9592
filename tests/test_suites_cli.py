import hashlib
import json

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
from dst.suites import SUITE_NAMES, TOL_DEFAULTS, CaseResult, Report, SuiteConfig, run_suite

SMALL = SuiteConfig(dims=(2, 4), trials=2, seed=7)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_small_config(name):
    cfg = SMALL if name != "laplacian" else SuiteConfig(dims=(2, 4), trials=2, seed=7, laplacian_ns=(8,))
    report = run_suite(name, cfg)
    failed = [c.case_id for c in report.cases if not c.passed]
    assert report.passed, failed


def test_reports_are_reproducible():
    r1 = run_suite("deformed", SMALL)
    r2 = run_suite("deformed", SMALL)
    assert r1.to_obj() == r2.to_obj()


def test_corrupt_gram_negative_control():
    cfg = SuiteConfig(dims=(2,), trials=2, seed=7, corrupt_gram=True)
    report = run_suite("kuelbs", cfg)
    assert not report.passed


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
GOLDEN_DEFAULT_REPORT = "3bd0c35dcbfee0406a72bfa3d4c7860d5887f4c7852ead6889be86355b90141d"


def _report_digest(tmp_path, *args) -> str:
    path = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", *args, "--no-timestamp", "--report", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_report_digest(tmp_path, capsys):
    assert _report_digest(tmp_path) == GOLDEN_DEFAULT_REPORT
    capsys.readouterr()


# The same for the benchmarked run (896 cases), whose kuelbs suite calls
# lp_operator_norm at dims 2 through 16.
GOLDEN_BENCH_REPORT = "1ea4325515da64c515551c5bbaeb7a81015313b4f57ff710c163ccde5d3a7680"


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


def test_summary_names_nonfinite_metrics():
    cases = (
        CaseResult("s/n2/t1", "d1", {"a": float("inf"), "b": 1.0}, {}, False),
        CaseResult("s/n2/t0", "d0", {"a": 0.5, "b": float("nan")}, {}, False),
    )
    summary = Report("s", 7, {}, cases).to_obj()["summary"]
    assert summary["max_metrics"] == {"a": 0.5, "b": 1.0}
    assert summary["nonfinite"] == ["s/n2/t0:b", "s/n2/t1:a"]
    finite = Report("s", 7, {}, (CaseResult("s/n2/t2", "d2", {"a": 1.0}, {}, True),))
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
    assert out["involution_residual"] <= 1e-10
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
    assert set(out) == {
        "n", "r", "contract_residual", "involution_residual", "accretive_min",
        "natural_selfadjoint_residual", "inverse_norm", "residual_r_norm",
    }
    assert out["contract_residual"] <= 1e-9
    assert out["residual_r_norm"] <= 1e-9
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
