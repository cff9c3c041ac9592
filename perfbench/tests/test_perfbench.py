"""Fast checks of the benchmark itself, at tiny n (the ``smoke`` size).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

dst = run.load_dst()


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_smoke_pass_passes_every_gate(name, tmp_path):
    wl = workloads.WORKLOADS[name]("smoke")
    gate = workloads.Gate()
    clock = workloads.Clock()
    wl.run_pass(dst, wl.setup(dst, 7, str(tmp_path)), clock, gate)
    assert gate.correct, gate.messages
    assert gate.attempted == wl.items
    assert clock.total > 0.0


def test_gate_catches_a_wrong_result(tmp_path, monkeypatch):
    wl = workloads.CalculusLarge("smoke")
    inputs = wl.setup(dst, 7, str(tmp_path))
    real = dst.spectral.integrate
    monkeypatch.setattr(dst.spectral, "integrate", lambda g, f: real(g, f) * (1.0 + 1e-6))
    gate = workloads.Gate()
    wl.run_pass(dst, inputs, workloads.Clock(), gate)
    assert gate.failed == wl.items and not gate.correct
    assert "funcalc[lambda]" in gate.messages[0]


def test_timed_run_reports_every_end_to_end_metric():
    res = run.run_workload(dst, "metric-large", 3, seconds=0.0, trace=False, size="smoke")
    assert res["correct"], res["messages"]
    assert set(res["metrics"]) == {m["name"] for m in spec.END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["info"]["pass_samples"] >= workloads.MetricLarge.min_passes


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    res = run.run_workload(dst, name, 3, seconds=0.0, trace=True, size="smoke")
    # the gate also fails the run when an exact count differs between traced passes
    assert res["correct"], res["messages"]
    assert set(res["metrics"]) == set(spec.PER_LAYER)
    values = {k: m["value"] for k, m in res["metrics"].items()}
    assert values["linalg.lapack.svd"] > 0 and values["rng.entries"] > 0
    if name == "verify-small":
        assert values["suites.cases"] == workloads.VerifySmall.SIZES["smoke"]["cases"]
        assert values["fileio.report_bytes"] > 0 and values["cli.overhead_s"] > 0
    else:
        assert values["suites.cases"] == 0 and values["cli.overhead_s"] == 0
    if name == "calculus-large":
        assert values["gexpr.parse_calls"] == 2 * len(workloads.EXPRS)
        assert values["spectral.atom_bytes"] == values["spectral.atoms"] * 8 * 8 * 16


def _library_results(a, emb):
    f = dst.spectral.deformed_of(a)
    op = dst.adjoint.banach_operator(a, emb)
    return [
        f.reconstruct(),
        dst.spectral.integrate("exp(-lambda)", f),
        dst.linalg.vnorm(a[0], 3.0),
        dst.kuelbs.lp_operator_norm(a, 3.0).value,
        dst.adjoint.adjoint(op).astar,
        dst.adjoint.h_polar(op).T,
        dst.fileio.digest(a),
        dst.rng.Rng(5).matrix(3, 3),
    ]


def test_wrapped_functions_return_what_unwrapped_ones_do():
    a = dst.ensembles.generate(dst.ensembles.Ensemble("general", 6, 1, 11))[0]
    emb = dst.kuelbs.build_kuelbs(dst.kuelbs.LpSpace(6, 3.0))
    before = _library_results(a, emb)
    vnorm, np_global = dst.linalg.vnorm, dst.adjoint.np
    tr = tracer.Tracer(dst).install()
    try:
        # one wrapper, installed under every name that bound the original
        assert dst.linalg.vnorm is not vnorm
        assert dst.linalg.vnorm is dst.kuelbs.vnorm is dst.adjoint.vnorm is dst.vnorm
        assert dst.suites.parse_g is dst.spectral.parse_g is dst.gexpr.parse
        during = _library_results(a, emb)
        assert tr.stats["linalg.vnorm"][0] > 0
        assert tr.stats["lapack.svd"][0] > 0 and tr.stats["lapack.cholesky"][0] > 0
    finally:
        tr.uninstall()
    assert dst.linalg.vnorm is vnorm and dst.kuelbs.vnorm is vnorm and dst.adjoint.np is np_global
    for x, y in zip(before, during):
        np.testing.assert_array_equal(x, y)


def test_committed_manifest_matches_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.manifest()


def test_manifest_stays_within_the_benchmark_contract():
    m = spec.manifest()
    names = [w["name"] for w in m["workloads"]] + [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    assert all(0 < x["bound"] <= 0.25 for x in m["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in m["end_to_end"]
    assert max(x["bound"] for x in m["end_to_end"]) == 0.25
    assert 1 <= len(m["per_layer"]) <= 128 and 2 <= len(m["workloads"]) <= 8


def _bench_copy(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))


def test_command_prints_one_result_line(tmp_path):
    _bench_copy(tmp_path)
    shutil.copytree(ROOT / "src" / "dst", tmp_path / "src" / "dst", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calculus-large", "--seed", "5",
         "--seconds", "0", "--trace", "0", "--size", "smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_command_fails_without_the_package(tmp_path):
    _bench_copy(tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
