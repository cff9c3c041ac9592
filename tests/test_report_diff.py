"""tools/report_diff.py: case ids on one side only, pass flips, and the
per-metric moves of two reports."""

import copy
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import dst


TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", TOOL)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _report() -> dict:
    cases = [
        {"id": f"s/n2/t{k}", "inputs_digest": "d", "metrics": {"err": 1e-15 * (k + 1), "rate": 0.1}, "pass": True}
        for k in range(3)
    ]
    summary = {"total": 3, "passed": 3, "all_pass": True, "max_metrics": {"err": 3e-15, "rate": 0.1}}
    checks = {"s": {"err": ["<=", 1e-10]}}
    return {"suite": "s", "version": "0", "seed": 7, "config": {}, "checks": checks, "cases": cases,
            "summary": summary}


def _run(a: dict, b: dict, tmp_path) -> tuple[int, str]:
    paths = []
    for name, rep in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(rep))
    code = report_diff.main([str(p) for p in paths])
    return code, "\n".join(report_diff.diff(a, b)[0])


def test_identical_reports_match(tmp_path):
    code, text = _run(_report(), _report(), tmp_path)
    assert code == 0
    assert "metric err: 0/3 moved, max abs 0, max rel 0" in text and "pass flips: 0" in text
    assert "check changes: 0" in text


def test_a_changed_or_added_check_row_is_named(tmp_path):
    a, b = _report(), _report()
    b["checks"]["s"]["err"] = ["<=", 1e-12]
    b["checks"]["s"]["rate"] = [">", 0.0]
    code, text = _run(a, b, tmp_path)
    assert code == 1
    assert "check changes: 2\n  s err: ['<=', 1e-10] -> ['<=', 1e-12]\n  s rate: None -> ['>', 0.0]" in text


def test_a_moved_metric_is_counted_with_its_largest_change(tmp_path):
    a, b = _report(), _report()
    b["cases"][1]["metrics"]["err"] = 2.5e-15  # from 2e-15
    b["summary"]["max_metrics"]["err"] = 3.5e-15  # from 3e-15
    code, text = _run(a, b, tmp_path)
    assert code == 1
    assert "metric err: 1/3 moved, max abs 5e-16, max rel 0.25" in text
    assert "metric rate: 0/3 moved" in text
    assert "max_metrics err: 1/1 moved, max abs 5e-16, max rel 0.167" in text


def test_a_flipped_case_is_named(tmp_path):
    a, b = _report(), _report()
    b["cases"][2]["pass"] = False
    b["summary"].update(passed=2, all_pass=False)
    code, text = _run(a, b, tmp_path)
    assert code == 1
    assert "pass flips: 1\n  s/n2/t2: True -> False" in text
    assert "summary passed: 3 -> 2" in text and "summary all_pass: True -> False" in text


def test_a_missing_case_is_named_on_its_side(tmp_path):
    a = _report()
    b = copy.deepcopy(a)
    del b["cases"][0]
    code, text = _run(a, b, tmp_path)
    assert code == 1
    assert "only in A: 1 cases\n  s/n2/t0\nonly in B: 0 cases" in text
    assert "metric err: 0/2 moved" in text  # compared over the cases on both sides


def test_usage_without_two_reports(capsys):
    assert report_diff.main(["one.json"]) == 2
    assert "report_diff.py A.json B.json" in capsys.readouterr().err


def _verify_at(threads: int, path: Path) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": str(Path(dst.__file__).parents[1])}
    argv = ["verify", "--suite", "banach-spectral", "--dims", "64", "--trials", "2", "--no-timestamp",
            "--report", str(path)]
    subprocess.run([sys.executable, "-m", "dst", *argv], env=env, check=True, capture_output=True)
    return json.loads(path.read_text(encoding="utf-8"))


def test_blas_threads_move_no_metric_beyond_its_tolerance(tmp_path):
    # above n ~ 48 the report bytes may depend on the BLAS thread count;
    # the cases, their pass flags and each metric to within its tolerance may not
    one, two = _verify_at(1, tmp_path / "one.json"), _verify_at(2, tmp_path / "two.json")
    lines = report_diff.diff(one, two)[0]
    assert lines[:3] == ["only in A: 0 cases", "only in B: 0 cases", "pass flips: 0"]
    moves = {m[1]: float(m[2]) for m in (re.match(r"metric (\w+): .* max abs (\S+),", ln) for ln in lines) if m}
    limits = {name: limit for name, (op, limit) in one["checks"]["banach-spectral"].items()}
    assert set(moves) == set(limits) == {"funcalc_identity", "reconstruction_lp"}
    assert all(moves[name] <= limits[name] for name in moves), (moves, limits)
