"""tools/bench_pairs.py: the per-metric summary of alternating pairs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pair(parent_pass: float, change_pass: float) -> dict:
    def side(pass_s):
        return {"metrics": {"setup_s": 0.2, "pass_s": pass_s, "items_per_s": 1.0 / pass_s, "peak_mb": 1.8}}

    return {"parent": side(parent_pass), "change": side(change_pass)}


def test_one_pair_has_no_spread():
    out = bench_pairs._summary([_pair(0.5, 0.4)])
    assert out["pass_s"] == {
        "parent_median": 0.5,
        "change_median": 0.4,
        "change_won": 1,
        "pairs": 1,
        "parent_iqr": 0.0,
        "paired_ratio_median": pytest.approx(0.8),
    }
    assert out["peak_mb"]["change_won"] == 0 and out["items_per_s"]["change_won"] == 1


def test_three_pairs():
    out = bench_pairs._summary([_pair(0.5, 0.4), _pair(0.3, 0.33), _pair(0.7, 0.35)])
    s = out["pass_s"]
    assert (s["parent_median"], s["change_median"], s["change_won"], s["pairs"]) == (0.5, 0.35, 2, 3)
    # the exclusive quartiles of (0.3, 0.5, 0.7) are 0.3 and 0.7
    assert s["parent_iqr"] == pytest.approx(0.4)
    assert s["paired_ratio_median"] == pytest.approx(0.8)  # of 0.8, 1.1 and 0.5
    assert out["items_per_s"]["change_won"] == 2
