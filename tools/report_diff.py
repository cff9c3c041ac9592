"""Compare two ``dst verify`` reports case by case.

    python3 tools/report_diff.py A.json B.json

Prints the case ids found in one report only, the cases whose pass flag
flipped, each row of the ``checks`` table whose op or limit differs
(``None`` on the side that lacks it), and, for every metric, how many of
the cases in both reports moved, with the largest absolute change
|b - a| and relative change |b - a| / |a| (inf when a is 0).
``summary.max_metrics`` gets the same line per metric, and every other
summary field that differs is printed as ``A -> B``. Exits 0 when the two
reports hold the same cases, flags, checks and values, and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _moves(pairs: list[tuple[float, float]]) -> tuple[int, float, float]:
    """Cases moved, largest absolute and largest relative change."""
    moved = [(a, b) for a, b in pairs if not _same(a, b)]
    big_abs = max((abs(b - a) if math.isfinite(b - a) else math.inf for a, b in moved), default=0.0)
    big_rel = max((abs(b - a) / abs(a) if a != 0.0 else math.inf for a, b in moved), default=0.0)
    return len(moved), big_abs, big_rel


def _metric_lines(label: str, a: list[dict], b: list[dict]) -> tuple[list[str], bool]:
    """One line per metric name over paired {name: value} records, and
    whether no value moved and no name was found on one side only."""
    pairs: dict[str, list] = {}
    one_sided: dict[str, str] = {}
    for ma, mb in zip(a, b):
        for name in ma.keys() | mb.keys():
            if name in ma and name in mb:
                pairs.setdefault(name, []).append((ma[name], mb[name]))
            else:
                one_sided[name] = "A" if name in ma else "B"
    lines, same = [], not one_sided
    for name in sorted(pairs.keys() | one_sided.keys()):
        if name in one_sided:
            lines.append(f"{label} {name}: in some cases of {one_sided[name]} only")
        if name in pairs:
            moved, big_abs, big_rel = _moves(pairs[name])
            lines.append(
                f"{label} {name}: {moved}/{len(pairs[name])} moved, max abs {big_abs:.3g}, max rel {big_rel:.3g}"
            )
            same = same and moved == 0
    return lines, same


def diff(rep_a: dict, rep_b: dict) -> tuple[list[str], bool]:
    """The lines the tool prints for two report objects, and whether they match."""
    cases_a = {c["id"]: c for c in rep_a["cases"]}
    cases_b = {c["id"]: c for c in rep_b["cases"]}
    only_a = [k for k in cases_a if k not in cases_b]
    only_b = [k for k in cases_b if k not in cases_a]
    both = [k for k in cases_a if k in cases_b]
    flips = [k for k in both if cases_a[k]["pass"] != cases_b[k]["pass"]]
    lines = [f"only in A: {len(only_a)} cases", *(f"  {k}" for k in only_a)]
    lines += [f"only in B: {len(only_b)} cases", *(f"  {k}" for k in only_b)]
    lines += [f"pass flips: {len(flips)}"]
    lines += [f"  {k}: {cases_a[k]['pass']} -> {cases_b[k]['pass']}" for k in flips]
    checks_a, checks_b = rep_a.get("checks", {}), rep_b.get("checks", {})
    rows = sorted({(s, m) for table in (checks_a, checks_b) for s in table for m in table[s]})
    changed = [
        f"  {s} {m}: {checks_a.get(s, {}).get(m)} -> {checks_b.get(s, {}).get(m)}"
        for s, m in rows
        if checks_a.get(s, {}).get(m) != checks_b.get(s, {}).get(m)
    ]
    lines += [f"check changes: {len(changed)}", *changed]

    metric_lines, same_metrics = _metric_lines(
        "metric", [cases_a[k]["metrics"] for k in both], [cases_b[k]["metrics"] for k in both]
    )
    sum_a, sum_b = rep_a["summary"], rep_b["summary"]
    max_lines, same_max = _metric_lines("max_metrics", [sum_a["max_metrics"]], [sum_b["max_metrics"]])
    other = [
        f"summary {key}: {sum_a.get(key)!r} -> {sum_b.get(key)!r}"
        for key in sorted((sum_a.keys() | sum_b.keys()) - {"max_metrics"})
        if sum_a.get(key) != sum_b.get(key)
    ]
    lines += metric_lines + max_lines + other
    return lines, not (only_a or only_b or flips or changed or other) and same_metrics and same_max


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    reports = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args]
    lines, matched = diff(*reports)
    print("\n".join(lines))
    return 0 if matched else 1


if __name__ == "__main__":
    raise SystemExit(main())
