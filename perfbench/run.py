#!/usr/bin/env python3
"""Benchmark of the ``dst`` package in ``src/`` of this checkout.

    python3 perfbench/run.py --workload verify-small --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seed 42] [--trace 1]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see perfbench/README.md). The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every correctness gate held. ``--all`` runs every workload in this one
process and rewrites BENCHMARK.json from perfbench/spec.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))
import spec  # noqa: E402

MIN_TRACED = 2  # traced passes per run: exact counts are compared between them
SETUP_REPS = 3  # setup_s is the median of this many set-ups

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import dst.cli; print(time.perf_counter() - t)"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_blas_threads() -> int:
    """Fix the BLAS thread count before numpy loads; at most 2 keeps runs steady."""
    threads = min(2, nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def load_dst():
    """Import ``dst`` from this checkout's src/, never from anywhere else."""
    if not (SRC / "dst" / "__init__.py").is_file():
        raise SystemExit(f"error: no dst package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import dst
    import dst.cli  # noqa: F401  (loads every dst module)

    if Path(dst.__file__).resolve().parent != (SRC / "dst").resolve():
        raise SystemExit(f"error: imported dst from {dst.__file__}, expected {SRC / 'dst'}")
    return dst


def import_seconds() -> float:
    """Time of ``import dst.cli`` (numpy included) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def environment(dst, seed: int, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": nproc(),
        "seed": seed,
        "dst": dst.__version__,
        # informational, not gated: net size of the library under test
        "src_dst_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "dst").rglob("*.py"))),
    }


def _peak_bytes(dst, wl, inputs) -> int:
    """Peak traced allocation over one unchecked pass."""
    import workloads

    tracemalloc.start()
    try:
        wl.run_pass(dst, inputs, workloads.Clock(), None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _timed(dst, wl, seed, seconds, gate, workdir) -> tuple[dict, dict]:
    import workloads

    setups = []
    for _ in range(SETUP_REPS):
        imp = import_seconds()
        t0 = time.perf_counter()
        inputs = wl.setup(dst, seed, workdir)
        setups.append(imp + time.perf_counter() - t0)
    passes = []
    peak = None
    while len(passes) < wl.min_passes or sum(passes) < seconds:
        if peak is None and len(passes) == wl.min_passes // 2:
            # the untimed memory pass sits between timed ones, so the timed
            # passes sample a longer stretch of a machine whose speed drifts
            peak = _peak_bytes(dst, wl, inputs)
        gc.collect()  # every pass starts from the same collector state
        clock = workloads.Clock()
        wl.run_pass(dst, inputs, clock, gate)
        passes.append(clock.total)
    pass_s = statistics.median(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "items_per_s": wl.items / pass_s,
        "peak_mb": peak / 1e6,
    }
    # With fewer than 11 samples no percentile has ten samples beyond it;
    # the largest sample is the tail that the count supports.
    info = {"pass_samples": len(passes), "pass_max_s": max(passes), "items_per_pass": wl.items,
            "setup_samples_s": setups, "pass_samples_s": passes}
    return metrics, info


def _traced(dst, wl, name, size, seed, seconds, gate, workdir) -> tuple[dict, dict]:
    import tracer
    import workloads

    inputs = wl.setup(dst, seed, workdir)
    base = workloads.Clock()
    wl.run_pass(dst, inputs, base, gate)
    del inputs
    tr = tracer.Tracer(dst).install()
    rounds = []
    try:
        start = time.perf_counter()
        while len(rounds) < MIN_TRACED or time.perf_counter() - start < seconds:
            tr.reset()
            clock = workloads.Clock()
            with tr.span("setup"):
                inputs = wl.setup(dst, seed, workdir)
            with tr.span("pass"):
                wl.run_pass(dst, inputs, clock, gate)
            snap = tr.snapshot()
            snap["pass_s"] = clock.total
            values = {k: fn(snap) for k, (_, _, fn) in spec.PER_LAYER.items() if fn is not None}
            values["trace.pass_s"] = clock.total
            rounds.append(values)
        spans = tr.spans()
    finally:
        tr.uninstall()
    for k in spec.EXACT:
        seen = [r[k] for r in rounds]
        gate.run_check(f"repeatable count {k}", len(set(seen)) == 1, f"differs between traced passes: {seen}")
    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - base.total
    span_file = OUT / f"spans-{name}-{size}.json"
    span_file.write_text(json.dumps({"fields": ["key", "parent", "start", "end"], "spans": spans}), encoding="utf-8")
    info = {"traced_passes": len(rounds), "untraced_pass_s": base.total, "spans_file": str(span_file.relative_to(ROOT))}
    return metrics, info


def run_workload(dst, name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    import workloads

    gate = workloads.Gate()
    wl = workloads.WORKLOADS[name](size)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        # a smoke-size pass first, so lazy initialisation is not timed
        smoke = workloads.WORKLOADS[name]("smoke")
        smoke.run_pass(dst, smoke.setup(dst, seed, workdir), workloads.Clock(), gate)
        if trace:
            metrics, info = _traced(dst, wl, name, size, seed, seconds, gate, workdir)
        else:
            metrics, info = _timed(dst, wl, seed, seconds, gate, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if name == "verify-small":
        info["report_sha256"] = wl.sha256
    units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    units.update({k: u for k, (u, _, _) in spec.PER_LAYER.items()})
    return {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "info": info,
        "messages": gate.messages,
    }


def _print_result(name: str, res: dict) -> None:
    ratio = res["failed"] / res["attempted"] if res["attempted"] else float("nan")
    print(f"[{name}] correct={res['correct']} attempted={res['attempted']} failed={res['failed']} failed_ratio={ratio:g}")
    for msg in res["messages"][:20]:
        print(f"[{name}] FAILED {msg}")
    for k, m in res["metrics"].items():
        print(f"[{name}] {k} = {m['value']:.6g} {m['unit']}")
    print(f"[{name}] info {json.dumps(res['info'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(spec.WORKLOADS))
    which.add_argument("--all", action="store_true", help="every workload in one process; rewrites BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny n, for tests")
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    dst = load_dst()
    env = environment(dst, args.seed, threads)
    print(f"env {json.dumps(env)}")
    names = list(spec.WORKLOADS) if args.all else [args.workload]
    results = {n: run_workload(dst, n, args.seed, args.seconds, bool(args.trace), args.size) for n in names}
    for n, res in results.items():
        _print_result(n, res)
    if args.all:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n", encoding="utf-8")
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
        (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"env": env, "results": results}, indent=2) + "\n", encoding="utf-8"
        )
    else:
        res = results[args.workload]
        summary = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
