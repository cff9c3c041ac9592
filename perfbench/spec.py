"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is this module's ``manifest()``;
``python3 perfbench/run.py --all`` rewrites it, and a test checks that the
committed file matches.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 10

WORKLOADS = {
    "verify-small": (
        "dst verify --suite all at dims 2,4,8,16, 20 trials (896 cases): the harness run on every change; "
        "interpreter-bound (SplitMix64, vnorm, lp norm search)"
    ),
    "calculus-large": (
        "n=256 general and rank-n/2 matrices: deformed_of, 5 integrals against one measure, banach spectral "
        "measure; O(n^4) spectral/deform path"
    ),
    "metric-large": (
        "n=256 p=3 Gram metric (cond 2.6e5), 4 operators: adjoints, axioms, h_polar, Baire sweep, Lax check; "
        "no spectral measure, LAPACK-bound lp norm"
    ),
}

# bound: share of the parent's median by which the metric may worsen.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def _stat(index, *keys):
    return lambda snap: sum(snap["stats"].get(k, (0, 0.0, 0.0))[index] for k in keys)


def _calls(*keys):
    return _stat(0, *keys)


def _self_s(*keys):
    return _stat(1, *keys)


def _counter(key):
    return lambda snap: snap["counters"][key]


def _cli_overhead(snap):
    calls, _, incl = snap["stats"].get("suites.run_suite", (0, 0.0, 0.0))
    return snap["pass_s"] - incl if calls else 0.0


LAPACK_KEYS = tuple(f"lapack.{n}" for n in ("svd", "eigh", "eigvalsh", "cholesky", "inv", "solve"))
SUITES = ("deformed", "funcalc", "kuelbs", "adjoint", "baire", "banach-spectral", "laplacian")

# name -> (unit, better, value from one traced setup + pass). Names ending in
# _s are self time; the others are exact counts, checked for repeatability.
PER_LAYER = {
    "rng.entries": ("count", "lower", _counter("rng.entries")),
    "rng.s": ("s", "lower", _self_s("rng.matrix", "rng.vector")),
    "ensembles.generate_s": ("s", "lower", _self_s("ensembles.generate")),
    "linalg.vnorm_calls": ("count", "lower", _calls("linalg.vnorm")),
    "linalg.vnorm_s": ("s", "lower", _self_s("linalg.vnorm")),
    "linalg.validate_calls": ("count", "lower", _calls("linalg.validate")),
    "linalg.validate_s": ("s", "lower", _self_s("linalg.validate")),
    **{f"linalg.{k}": ("count", "lower", _calls(k)) for k in LAPACK_KEYS},
    "linalg.lapack_s": ("s", "lower", _self_s(*LAPACK_KEYS)),
    "polar.calls": ("count", "lower", _calls("polar")),
    "polar.s": ("s", "lower", _self_s("polar")),
    "spectral.measure_s": ("s", "lower", _self_s("spectral.measure")),
    "spectral.deform_s": ("s", "lower", _self_s("spectral.deform")),
    "spectral.integrate_s": ("s", "lower", _self_s("spectral.integrate")),
    "spectral.integrate_calls": ("count", "lower", _calls("spectral.integrate")),
    "spectral.atoms": ("count", "lower", _counter("spectral.atoms")),
    "spectral.atom_bytes": ("bytes", "lower", _counter("spectral.atom_bytes")),
    "gexpr.parse_calls": ("count", "lower", _calls("gexpr.parse")),
    "gexpr.evaluate_calls": ("count", "lower", _calls("gexpr.evaluate")),
    "gexpr.s": ("s", "lower", _self_s("gexpr.parse", "gexpr.evaluate")),
    "kuelbs.build_s": ("s", "lower", _self_s("kuelbs.build")),
    "kuelbs.lp_norm_calls": ("count", "lower", _calls("kuelbs.lp_norm")),
    "kuelbs.lp_norm_s": ("s", "lower", _self_s("kuelbs.lp_norm")),
    "kuelbs.lax_s": ("s", "lower", _self_s("kuelbs.lax")),
    "kuelbs.steadman_calls": ("count", "lower", _calls("kuelbs.steadman")),
    "adjoint.adjoint_s": ("s", "lower", _self_s("adjoint.adjoint")),
    "adjoint.axioms_s": ("s", "lower", _self_s("adjoint.axioms")),
    "adjoint.h_polar_s": ("s", "lower", _self_s("adjoint.h_polar")),
    "adjoint.baire_s": ("s", "lower", _self_s("adjoint.baire")),
    "adjoint.banach_spectral_s": ("s", "lower", _self_s("adjoint.banach_spectral")),
    "fileio.digest_calls": ("count", "lower", _calls("fileio.digest")),
    "fileio.digest_s": ("s", "lower", _self_s("fileio.digest")),
    "fileio.dump_s": ("s", "lower", _self_s("fileio.dump")),
    "fileio.report_bytes": ("bytes", "lower", _counter("fileio.report_bytes")),
    **{f"suites.{s}_s": ("s", "lower", _self_s(f"suites.{s}")) for s in SUITES},
    "suites.cases": ("count", "higher", _counter("suites.cases")),
    "cli.overhead_s": ("s", "lower", _cli_overhead),
    # filled in by the runner: median traced pass, and it minus the untraced one
    "trace.pass_s": ("s", "lower", None),
    "trace.overhead_s": ("s", "lower", None),
}

# Counts that must repeat exactly between two traced passes of one seed.
EXACT = tuple(name for name, (unit, _, fn) in PER_LAYER.items() if unit != "s")


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b, _) in PER_LAYER.items()],
    }
