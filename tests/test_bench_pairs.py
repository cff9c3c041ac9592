"""tools/bench_pairs.py: the per-metric summary of alternating pairs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pair(parent_pass: float, change_pass: float, samples: bool = False) -> dict:
    def side(pass_s):
        out = {"metrics": {"setup_s": 0.2, "pass_s": pass_s, "items_per_s": 1.0 / pass_s, "peak_mb": 1.8}}
        if samples:  # the run's timed passes, of median pass_s and fastest 0.9 pass_s
            out["pass_samples_s"] = [1.1 * pass_s, 0.9 * pass_s, pass_s]
        return out

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
        "rule_met": True,
        "pass_min_median": {"parent": None, "change": None},
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


def test_rule_met_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_iqr():
    wide = [_pair(0.5 + 0.01 * i, 0.4) for i in range(10)]  # 10/10 won, gap 0.145 > IQR 0.055
    assert bench_pairs._summary(wide)["pass_s"]["rule_met"] is True
    nine = wide[:9] + [_pair(0.5, 0.6)]  # 9/10 won is still nine tenths
    assert bench_pairs._summary(nine)["pass_s"]["change_won"] == 9
    assert bench_pairs._summary(nine)["pass_s"]["rule_met"] is True
    eight = wide[:8] + [_pair(0.5, 0.6), _pair(0.5, 0.6)]
    assert bench_pairs._summary(eight)["pass_s"]["rule_met"] is False
    # every pair won, but the median gap 0.02 sits inside the parent's IQR 0.4
    spread = [_pair(p, p - 0.01) for p in (0.3, 0.3, 0.5, 0.7, 0.7)]
    s = bench_pairs._summary(spread)["pass_s"]
    assert s["change_won"] == 5 and s["parent_iqr"] == pytest.approx(0.4)
    assert s["rule_met"] is False
    # higher is better for items_per_s: a lower change never meets the rule
    assert bench_pairs._summary(wide)["items_per_s"]["rule_met"] is True
    assert bench_pairs._summary([_pair(0.4, 0.5)] * 10)["items_per_s"]["rule_met"] is False


def test_pass_min_median_is_the_median_of_each_runs_fastest_pass():
    out = bench_pairs._summary([_pair(p, c, samples=True) for p, c in ((0.5, 0.4), (0.3, 0.33), (0.7, 0.35))])
    mins = out["pass_s"]["pass_min_median"]
    assert mins["parent"] == pytest.approx(0.9 * 0.5) and mins["change"] == pytest.approx(0.9 * 0.35)
    assert "pass_min_median" not in out["setup_s"]
