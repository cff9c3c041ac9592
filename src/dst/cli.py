"""Command-line surface.

Subcommands mirror the library: polar / deformed / funcalc on a matrix
file, kuelbs / adjoint / baire for the embedded-metric machinery,
``verify`` for the suite harness, and ``demo laplacian``. All output is
canonical JSON (sorted keys) on stdout or to ``--out``; ``verify`` exits 0
iff every check passed and names each failed one on stderr. ``deformed``
and ``funcalc`` take ``--tol rank=/cluster=`` for the library thresholds
and ``polar`` takes ``--tol rank=``, the one threshold it reaches; ``verify``
takes ``--tol KEY=VALUE`` for its pass/fail limits; ``kuelbs``,
``adjoint``, ``baire`` and ``demo laplacian`` reach no threshold and take
no ``--tol``. The DST_TOL_SCALE environment variable multiplies every
tolerance, both the library thresholds and the suite pass/fail limits.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .adjoint import (
    adjoint, adjoint_metrics, baire_convergence_study, banach_operator, dirichlet_laplacian_demo, lambda_schedule,
)
from .config import Tolerances, from_env
from .errors import ConfigError, InvalidInput, ToolkitError
from .fileio import load_matrix, matrix_to_obj, measure_to_obj, save_report, write_json
from .kuelbs import GramMetric, LpSpace, build_kuelbs
from .linalg import herm
from .polar import intertwining_check, polar_decompose
from .rng import Rng, substream
from .spectral import deformed_of, integrate
from .suites import SUITE_NAMES, TOL_DEFAULTS, SuiteConfig, kuelbs_probe_metrics, run_suite

def _emit(obj, out_path: str | None) -> None:
    if out_path:
        save_report(obj, out_path)
    else:
        write_json(obj, sys.stdout)


def _parse_tol_items(items) -> dict[str, float]:
    table: dict[str, float] = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError(f"--tol expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        try:  # the value rule lives in Tolerances and SuiteConfig
            table[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigError(f"--tol {key}: not a number: {val!r}") from exc
    return table


# hermitian_rel and support_rel are not settable here: no command
# diagonalizes a matrix (the measure of T is read off the polar SVD) or
# deforms a classical measure, so neither check runs
_LIBRARY_TOL_FIELDS = {"rank": "rank_rel", "cluster": "cluster_rel"}


def _library_tols(args, keys=tuple(_LIBRARY_TOL_FIELDS)) -> Tolerances:
    """The environment's tolerances with ``--tol`` overrides of ``keys``,
    the thresholds the command actually reaches."""
    tols = from_env()
    table = _parse_tol_items(args.tol)
    unknown = sorted(set(table) - set(keys))
    if unknown:
        raise ConfigError(f"tolerance keys {unknown} do not apply here; valid: {sorted(keys)}")
    if table:
        tols = replace(tols, **{_LIBRARY_TOL_FIELDS[k]: v for k, v in table.items()})
    return tols


def _floats_csv(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _lambdas_csv(text: str) -> tuple[float, ...]:
    try:
        return lambda_schedule(_floats_csv(text))
    except ValueError as exc:
        raise ConfigError(f"--lambdas {text!r}: {exc}") from exc


def _ints_csv(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _refuse_huge(a: np.ndarray, metric: GramMetric | None = None) -> np.ndarray:
    """``a`` itself, refused (InvalidInput) when an entry is so large that a
    command's largest product overflows.

    That product is a squared norm of two n x n factors built from A: of
    A A* U in polar's intertwining check, of A*A in the adjoint axioms, and
    of Tbar A phi in the Baire bound, whose probe has |phi|^2 <= 2n. With
    |a_ij| <= M, each factor has Frobenius norm at most n M, times
    sqrt(cond G) in a Gram metric, so the squared norm is at most
    2n (n M)^4 cond(G)^2; the limit keeps twice that below the largest double.
    """
    n, cond = max(a.shape), 1.0 if metric is None else metric.eig_max / metric.eig_min
    limit = (np.finfo(np.float64).max / (4 * n)) ** 0.25 / (n * math.sqrt(cond))
    with np.errstate(over="ignore"):  # |a_ij| itself may overflow, and is then refused
        top = float(np.abs(a).max())
    if not top <= limit:
        raise InvalidInput(
            f"max |a_ij| = {top:.6g} exceeds the limit {limit:.6g} for this command at n = {n}:"
            " a squared norm of a product of two such matrices would overflow"
        )
    return a


# --------------------------------------------------------------------------


def _cmd_polar(args) -> int:
    tols = _library_tols(args, keys=("rank",))
    a = _refuse_huge(load_matrix(args.input))
    p = polar_decompose(a, tols=tols)
    t = p.T  # formed on each read
    scale = 1.0 + float(np.linalg.norm(a))
    obj = {
        "rank": p.rank,
        "tol": p.tol,
        "threshold": p.threshold,
        "residual_ut": float(np.linalg.norm(a - p.U @ t)) / scale,
        "residual_tbaru": float(np.linalg.norm(a - p.Tbar @ p.U)) / scale,
        "projector_trace": float(np.trace(herm(p.U) @ p.U).real),
        "intertwining": intertwining_check(p, a),
        "u": matrix_to_obj(p.U),
        "t": matrix_to_obj(t),
        "tbar": matrix_to_obj(p.Tbar),
    }
    _emit(obj, args.out)
    return 0


def _cmd_deformed(args) -> int:
    tols = _library_tols(args)
    a = _refuse_huge(load_matrix(args.input))
    p = polar_decompose(a, tols=tols)
    f = p.measure
    recon = float(np.linalg.norm(f.reconstruct() - a)) / (1.0 + float(np.linalg.norm(a)))
    obj = measure_to_obj(p, f)
    obj["reconstruction_residual"] = recon
    _emit(obj, args.out)
    return 0


def _cmd_funcalc(args) -> int:
    tols = _library_tols(args)
    a = _refuse_huge(load_matrix(args.input))
    f = deformed_of(a, tols=tols)
    result = integrate(args.g, f)
    obj = {
        "g": args.g,
        "support": list(f.support),
        "result": matrix_to_obj(result),
    }
    _emit(obj, args.out)
    return 0


def _cmd_kuelbs(args) -> int:
    emb = build_kuelbs(LpSpace(dim=args.dim, p=args.p))
    probes = kuelbs_probe_metrics(emb, emb.gram, Rng(substream(args.seed, 1)), args.trials)
    obj = {
        "p": args.p,
        "dim": args.dim,
        "seed": args.seed,
        "weights": [float(w) for w in emb.weights],
        "gram_min_eig": emb.metric.eig_min,
        "gram_max_eig": emb.metric.eig_max,
        **probes,
    }
    _emit(obj, args.out)
    return 0


def _cmd_adjoint(args) -> int:
    a = load_matrix(args.input)
    emb = build_kuelbs(LpSpace(dim=args.dim, p=args.p))
    pair = adjoint(banach_operator(_refuse_huge(a, emb.metric), emb))
    obj = {
        "p": args.p,
        "dim": args.dim,
        "astar": matrix_to_obj(pair.astar),
        **adjoint_metrics(pair, Rng(substream(args.seed, 2)).matrix(16, args.dim)),
    }
    _emit(obj, args.out)
    return 0


def _cmd_baire(args) -> int:
    a = load_matrix(args.input)
    dim = a.shape[0]
    emb = build_kuelbs(LpSpace(dim=dim, p=args.p))
    op = banach_operator(_refuse_huge(a, emb.metric), emb)
    rows = baire_convergence_study(op, Rng(substream(args.seed, 3)).matrix(4, dim), args.lambdas)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("lambda,max_error,bound\n")
            for row in rows:
                fh.write(f"{row.lam!r},{row.max_error!r},{row.bound!r}\n")
    obj = {
        "p": args.p,
        "dim": dim,
        "rows": [
            {"lambda": row.lam, "max_error": row.max_error, "bound": row.bound} for row in rows
        ],
        "all_below_bound": all(row.max_error <= row.bound for row in rows),
    }
    _emit(obj, args.out)
    return 0


def _cmd_verify(args) -> int:
    tols = from_env()
    scale = tols.scale
    # widen the rate window under scaling instead of shifting it one-sided
    table = {
        k: (v / scale if k.endswith("rate_low") else v * scale)
        for k, v in TOL_DEFAULTS.items()
    }
    table.update(_parse_tol_items(args.tol))  # SuiteConfig refuses an unknown key
    cfg = SuiteConfig(
        dims=args.dims,
        trials=args.trials,
        seed=args.seed,
        ps=args.p,
        lambdas=args.lambdas,
        laplacian_ns=args.laplacian_ns,
        tol=table,
        corrupt_gram=args.corrupt_gram,
    )
    stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    report = run_suite(args.suite, cfg, tols=tols, timestamp=stamp)
    obj = report.to_obj()
    _emit(obj, args.report)  # the report file, or stdout
    for c in report.cases:
        for k in c.failed:
            op, limit = c.checks[k]
            print(f"FAIL {c.case_id}: {k} = {c.metrics[k]!r}, not {op} {limit!r}", file=sys.stderr)
    for suite in sorted(obj["checks"]):
        ok = [c.passed for c in report.cases if c.case_id.startswith(f"{suite}/")]
        print(f"suite {suite}: {sum(ok)}/{len(ok)} passed", file=sys.stderr)
    print(f"total: {obj['summary']['passed']}/{obj['summary']['total']} passed", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_demo_laplacian(args) -> int:
    _, m = dirichlet_laplacian_demo(args.n, r=args.r, rng=Rng(substream(args.seed, 4)))
    obj = {"n": args.n, "r": args.r, **m}
    _emit(obj, args.out)
    return 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dst", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dst {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, input_file=True, tol=True):
        if input_file:
            sp.add_argument("--input", required=True, help="matrix file (JSON or Matrix Market)")
        sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
        if tol:  # only where a library threshold is reached
            sp.add_argument("--tol", action="append", metavar="KEY=VAL", help="library tolerance override")

    sp = sub.add_parser("polar", help="polar decomposition report")
    add_common(sp)
    sp.set_defaults(func=_cmd_polar)

    sp = sub.add_parser("deformed", help="deformed spectral measure of a matrix")
    add_common(sp)
    sp.set_defaults(func=_cmd_deformed)

    sp = sub.add_parser("funcalc", help="functional calculus through the deformed measure")
    add_common(sp)
    sp.add_argument("--g", required=True, help="scalar expression in lambda, e.g. 'exp(-lambda)'")
    sp.set_defaults(func=_cmd_funcalc)

    sp = sub.add_parser("kuelbs", help="embedded inner-product diagnostics")
    add_common(sp, input_file=False, tol=False)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--trials", type=int, default=100)
    sp.set_defaults(func=_cmd_kuelbs)

    sp = sub.add_parser("adjoint", help="metric adjoint of a matrix on lp")
    add_common(sp, tol=False)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--seed", type=int, default=7)
    sp.set_defaults(func=_cmd_adjoint)

    sp = sub.add_parser("baire", help="resolvent approximant convergence study")
    add_common(sp, tol=False)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--lambdas", type=_lambdas_csv, default=(1e1, 1e2, 1e3, 1e4, 1e5, 1e6))
    sp.add_argument("--csv", default=None, help="also write lambda,max_error,bound rows here")
    sp.add_argument("--seed", type=int, default=7)
    sp.set_defaults(func=_cmd_baire)

    sp = sub.add_parser("verify", help="run verification suites")
    cfg = SuiteConfig()  # the run defaults
    sp.add_argument("--suite", default="all", choices=list(SUITE_NAMES) + ["all"])
    sp.add_argument("--dims", type=_ints_csv, default=cfg.dims)
    sp.add_argument("--trials", type=int, default=cfg.trials)
    sp.add_argument("--seed", type=int, default=cfg.seed)
    sp.add_argument("--p", type=_floats_csv, default=cfg.ps)
    sp.add_argument("--lambdas", type=_lambdas_csv, default=cfg.lambdas)
    sp.add_argument("--laplacian-ns", type=_ints_csv, default=cfg.laplacian_ns)
    sp.add_argument("--report", default=None, help="write the JSON report here")
    sp.add_argument("--tol", action="append", metavar="KEY=VAL", help="suite tolerance override")
    sp.add_argument("--no-timestamp", action="store_true", help="omit the timestamp (CI byte-comparison)")
    sp.add_argument(
        "--corrupt-gram",
        action="store_true",
        help="negative control: inject a negative eigenvalue into the kuelbs gram",
    )
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("demo", help="worked demonstrations")
    demo_sub = sp.add_subparsers(dest="demo", required=True)
    dl = demo_sub.add_parser("laplacian", help="Dirichlet-Laplacian adjoint demo")
    dl.add_argument("--n", type=int, default=32)
    dl.add_argument("--r", type=float, default=3.0)
    dl.add_argument("--seed", type=int, default=7)
    dl.add_argument("--out", default=None)
    dl.set_defaults(func=_cmd_demo_laplacian)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # the list types (--dims, --lambdas, ...) raise ConfigError while parsing
        args = parser.parse_args(argv)
        return args.func(args)
    except (ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
