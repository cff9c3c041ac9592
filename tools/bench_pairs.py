"""Write a BENCH_<pr>.json from alternating parent/change runs of perfbench.

    python3 tools/bench_pairs.py --parent DIR --out BENCH_<pr>.json [--pairs 10]

DIR holds the parent commit's files (``git archive`` or ``git clone``);
the change is the checkout this script lives in. Both sides run their
own, unmodified ``perfbench/run.py``. For each workload, pair i runs both
sides with ``--trace 0`` on the same seed, the parent first in even pairs
and the change first in odd ones, so a drifting host loads both alike.
Then each side makes one ``--trace 1`` run of every workload (per-layer
seconds and exact counts; a stacked LAPACK call counts once) and one
Tier-1 run. The file keeps every sample next to its summary: per metric,
both medians, the pairs the change won, the parent's interquartile range
and the median over the pairs of change/parent, which a host that
drifts between pairs moves less than it moves either median. Next to
these, ``rule_met`` says whether the change won at least nine tenths of
the pairs with a median gain wider than the parent's interquartile
range, and ``pass_s`` gets ``pass_min_median``, per side the median over
runs of each run's fastest pass. Both are informational. The file also
keeps each side's perfbench ``env`` line (BLAS build and thread count).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("verify-small", "calculus-large", "metric-large")
LOWER_IS_BETTER = {"setup_s": True, "pass_s": True, "items_per_s": False, "peak_mb": True}
CHANGE = Path(__file__).resolve().parent.parent


def _perfbench(side: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True, check=False).stdout.splitlines()
    result = json.loads(out[-1])
    info = next((json.loads(line.split(" info ", 1)[1]) for line in out if " info " in line), {})
    env = next((json.loads(line[len("env "):]) for line in out if line.startswith("env ")), {})
    return {
        "env": env,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "setup_samples_s": info.get("setup_samples_s"),
        "pass_samples_s": info.get("pass_samples_s"),
    }


def _tier1(side: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"],
                          cwd=side, env=env, capture_output=True, text=True, check=False)
    return {"wall_s": time.perf_counter() - t0, "summary": proc.stdout.strip().splitlines()[-1]}


def _src_lines(side: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((side / "src" / "dst").glob("*.py")))


def _paired_ratio_median(pairs: list[dict], name: str) -> float:
    return statistics.median(p["change"]["metrics"][name] / p["parent"]["metrics"][name] for p in pairs)


def _pass_min_median(pairs: list[dict], side: str) -> float | None:
    """The median over runs of each run's fastest timed pass (None without samples)."""
    mins = [min(p[side]["pass_samples_s"]) for p in pairs if p[side].get("pass_samples_s")]
    return statistics.median(mins) if mins else None


def _summary(pairs: list[dict]) -> dict:
    out = {}
    for name, lower in LOWER_IS_BETTER.items():
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        q = statistics.quantiles(par, n=4) if len(par) > 1 else (0.0, 0.0, 0.0)  # one pair has no spread
        par_med, chg_med = statistics.median(par), statistics.median(chg)
        won = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        gain = (par_med - chg_med) if lower else (chg_med - par_med)
        out[name] = {
            "parent_median": par_med,
            "change_median": chg_med,
            "change_won": won,
            "pairs": len(pairs),
            "parent_iqr": q[2] - q[0],
            "paired_ratio_median": _paired_ratio_median(pairs, name),
            # informational: the gain rule, nine tenths of the pairs won and
            # a median gain wider than the parent's interquartile range
            "rule_met": won >= 0.9 * len(pairs) and gain > q[2] - q[0],
        }
    # informational: each side's median over runs of the run's fastest pass
    out["pass_s"]["pass_min_median"] = {side: _pass_min_median(pairs, side) for side in ("parent", "change")}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": CHANGE}

    command = f"tools/bench_pairs.py --parent PARENT --out {args.out.name} --pairs {args.pairs} --seed {args.seed}"
    bench: dict = {"command": command, "seed": args.seed, "workloads": {}}
    for workload in WORKLOADS:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pairs.append({side: _perfbench(sides[side], workload, args.seed, 0) for side in order})
            shown = ("setup_s", "pass_s", "peak_mb")
            values = {s: {m: round(r["metrics"][m], 3) for m in shown} for s, r in pairs[-1].items()}
            ratios = {m: round(_paired_ratio_median(pairs, m), 3) for m in shown}
            print(workload, i, values, "paired ratio median", ratios, flush=True)
        for pair in pairs:
            for side, run in pair.items():
                bench.setdefault("env", {})[side] = run.pop("env")
        bench["workloads"][workload] = {"summary": _summary(pairs), "pairs": pairs}
    bench["traced"] = {w: {s: _perfbench(d, w, args.seed, 1) for s, d in sides.items()} for w in WORKLOADS}
    bench["tier1"] = {s: _tier1(d) for s, d in sides.items()}
    bench["src_dst_lines"] = {s: _src_lines(d) for s, d in sides.items()}
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
