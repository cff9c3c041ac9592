"""Verification suites binding every representation identity to a
pass/fail report.

Each suite runs a battery of randomized checks over deterministic
ensembles; the case list depends only on the configuration (dims, trials,
seed, tolerances), never on wall clock or evaluation order, so two runs
with the same arguments produce byte-identical reports. Each suite states
its gates once, as named checks ``metric -> (op, limit)``, and ``_case``
derives the pass flag from them alone.

The trials of one configuration run as one stack, one LAPACK call per
step, with probes from each trial's own substream; every metric equals
bit for bit what the trial alone gives.

Tolerance keys (see ``TOL_DEFAULTS``) can be overridden one at a time;
the CLI exposes them as ``--tol KEY=VALUE`` and multiplies every default
by ``DST_TOL_SCALE`` when set.
"""

from __future__ import annotations

import math
import operator
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .adjoint import (
    adjoint,
    adjoint_metrics,
    baire_approximant,
    banach_operator,
    dirichlet_laplacian,
    dirichlet_laplacian_demo,
    h_polar,
    intertwining_residual,
    lambda_schedule,
)
from .config import DEFAULT, Tolerances
from .ensembles import Ensemble, generate
from .errors import ConfigError, InvalidInput
from .fileio import digest
from .gexpr import compile_expr
from .gexpr import parse as parse_g
from .kuelbs import KuelbsEmbedding, LpSpace, build_kuelbs, canonical_duality_map, lax_diagnostic, steadman
from .linalg import EigenSystem, fro, gram_norm_rows, herm, hermitian_eigen
from .polar import polar_decompose
from .rng import Rng, substream
from .spectral import deformed_of, integrate, spectral_measure, variation

__all__ = [
    "SuiteConfig", "CaseResult", "Report", "run_suite", "SUITE_NAMES", "TOL_DEFAULTS", "G_CORPUS",
    "kuelbs_probe_metrics",
]

SUITE_NAMES = ("deformed", "funcalc", "kuelbs", "adjoint", "baire", "banach-spectral", "laplacian")

G_CORPUS = ("lambda", "lambda^2", "exp(-lambda)", "sin(lambda)", "sqrt(lambda)")

_OPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}  # a check's op, by its report name

TOL_DEFAULTS: dict[str, float] = {
    "deformed.reconstruction": 1e-10,
    "deformed.support": 1e-10,
    "deformed.variation": 1e-12,
    "deformed.commutation": 1e-13,
    "deformed.distinctness": 1e-10,
    "funcalc.identity": 1e-9,
    "funcalc.classical": 1e-9,
    "kuelbs.continuity": 1e-12,
    "kuelbs.duality": 1e-10,
    "kuelbs.steadman": 1e-10,
    "kuelbs.gram_consistency": 1e-12,
    "kuelbs.dual_gram": 1e-12,
    "kuelbs.lax_margin": 0.0,
    "adjoint.contract": 1e-10,
    "adjoint.involution": 1e-10,
    "adjoint.accretive": 1e-10,
    "adjoint.natural": 1e-10,
    "adjoint.inverse": 1e-10,
    "baire.bound_slack": 1e-6,
    "baire.identity": 1e-10,
    "baire.intertwine": 1e-10,
    "baire.rate_low": 0.02,
    "baire.rate_high": 0.5,
    "banach.reconstruction": 1e-8,
    "banach.funcalc": 1e-8,
    "laplacian.contract": 1e-9,
    "laplacian.involution": 1e-9,
    "laplacian.accretive": 1e-9,
    "laplacian.natural": 1e-9,
    "laplacian.inverse": 1e-9,
}


@dataclass(frozen=True)
class SuiteConfig:
    dims: tuple[int, ...] = (2, 4, 8)
    trials: int = 5
    seed: int = 42
    ps: tuple[float, ...] = (1.5, 3.0)
    lambdas: tuple[float, ...] = (1e1, 1e2, 1e3, 1e4)
    laplacian_ns: tuple[int, ...] = (8, 32)
    tol: dict[str, float] = field(default_factory=dict)
    corrupt_gram: bool = False  # negative-control hook: invalidates the kuelbs suite

    def __post_init__(self):
        lambda_schedule(self.lambdas)  # refused before any suite runs
        for key, value in self.tol.items():  # a mistyped override would otherwise be ignored
            self.tolerance(key)
            if not math.isfinite(value):  # an infinite limit switches its gate off
                raise ConfigError(f"tolerance {key!r} must be finite, got {value!r}")

    def tolerance(self, key: str) -> float:
        if key not in TOL_DEFAULTS:
            raise ConfigError(f"unknown tolerance key {key!r}")
        return self.tol.get(key, TOL_DEFAULTS[key])

    def to_obj(self) -> dict:
        return {
            "dims": list(self.dims),
            "trials": self.trials,
            "ps": list(self.ps),
            "lambdas": list(self.lambdas),
            "laplacian_ns": list(self.laplacian_ns),
            "tol_overrides": {k: self.tol[k] for k in sorted(self.tol)},
            "corrupt_gram": self.corrupt_gram,
        }


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    inputs_digest: str
    metrics: dict[str, float]
    checks: dict[str, tuple[str, float]]  # the suite's table, shared by its cases
    failed: tuple[str, ...] = ()  # the metrics whose check does not hold

    @property
    def passed(self) -> bool:
        return not self.failed

    def to_obj(self) -> dict:
        obj = {
            "id": self.case_id,
            "inputs_digest": self.inputs_digest,
            "metrics": self.metrics,  # the encoder sorts keys
            "pass": self.passed,
        }
        if self.failed:
            obj["failed"] = list(self.failed)
        return obj


@dataclass(frozen=True)
class Report:
    suite: str
    seed: int
    config: dict
    cases: tuple[CaseResult, ...]
    timestamp: str | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_obj(self) -> dict:
        max_metrics: dict[str, float] = {}
        nonfinite: list[str] = []
        checks: dict[str, dict] = {}
        failed: dict[str, dict[str, int]] = {}
        for c in self.cases:
            suite = c.case_id.split("/", 1)[0]
            checks[suite] = c.checks
            for k, v in c.metrics.items():
                if math.isfinite(v):
                    max_metrics[k] = max(max_metrics.get(k, -math.inf), v)
                else:
                    nonfinite.append(f"{c.case_id}:{k}")
            for k in c.failed:
                counts = failed.setdefault(suite, {})
                counts[k] = counts.get(k, 0) + 1
        summary = {
            "total": len(self.cases),
            "passed": sum(1 for c in self.cases if c.passed),
            "all_pass": self.passed,
            "max_metrics": max_metrics,
        }
        if nonfinite:  # named here because max_metrics leaves them out
            summary["nonfinite"] = sorted(nonfinite)
        if failed:
            summary["failed_checks"] = failed
        obj = {
            "suite": self.suite,
            "version": __version__,
            "seed": self.seed,
            "config": self.config,
            "checks": checks,
            "cases": [c.to_obj() for c in self.cases],
            "summary": summary,
        }
        if self.timestamp is not None:
            obj["timestamp"] = self.timestamp
        return obj


def _stream(cfg: SuiteConfig, label: str) -> int:
    """Deterministic substream id for a labelled part of a run."""
    return substream(cfg.seed, zlib.crc32(label.encode("utf-8")))


def _case(case_id: str, inputs_digest: str, metrics: dict[str, float], checks: dict) -> CaseResult:
    """One case, failing each check ``metric -> (op, limit)`` whose metric
    it reports and for which ``value op limit`` does not hold (NaN fails)."""
    failed = tuple(k for k, (op, limit) in checks.items() if k in metrics and not _OPS[op](metrics[k], limit))
    return CaseResult(case_id, inputs_digest, metrics, checks, failed)


def _cases(prefix: str, stack: np.ndarray, metrics: dict, checks: dict) -> list[CaseResult]:
    """The case ``prefix/t<idx>`` of each matrix of a stack, from metrics
    that hold one entry per matrix."""
    rows = [dict(zip(metrics, vals)) for vals in zip(*(np.asarray(v).tolist() for v in metrics.values()))]
    return [_case(f"{prefix}/t{i}", d, m, checks) for i, (d, m) in enumerate(zip(digest(stack), rows))]


def _draws(ens: Ensemble, offset: int, rows: int) -> np.ndarray:
    """The rows×dim probe block of each trial, from substream offset + idx."""
    return Rng(substream(ens.seed, offset + np.arange(ens.count))).matrix(rows, ens.dim)


def _support_match(support, sigma_nonzero) -> float | np.ndarray:
    """Two-sided nearest-value distance between a support and a sigma
    list; of two stacks of rows, whose absent entries are NaN, one
    distance per row."""
    sup = np.asarray(support, dtype=np.float64)
    sig = np.asarray(sigma_nonzero, dtype=np.float64)
    dist = np.abs(sup[..., :, None] - sig[..., None, :])  # NaN where either side is absent
    out = np.fmax(
        np.fmax.reduce(np.fmin.reduce(dist, axis=-2, initial=np.nan), axis=-1, initial=np.nan),
        np.fmax.reduce(np.fmin.reduce(dist, axis=-1, initial=np.nan), axis=-1, initial=np.nan),
    )
    # NaN: a side is empty, at distance inf from the other, or both are, at 0
    empty = np.isnan(sup).all(axis=-1) & np.isnan(sig).all(axis=-1)
    out = np.where(np.isnan(out), np.where(empty, 0.0, math.inf), out)
    return float(out) if out.ndim == 0 else out


def _g_of_psd(es: EigenSystem, ast) -> np.ndarray:
    """g(T) through an eigendecomposition (of each matrix of a stack),
    clamping roundoff negatives."""
    psd = np.where(es.values < 0.0, 0.0, es.values)
    g = compile_expr(ast)
    vals = np.array([g(v) for v in psd.ravel().tolist()], dtype=np.complex128).reshape(psd.shape)
    return (es.vectors * vals[..., None, :]) @ herm(es.vectors)


def _rel(delta, scale):
    return delta / (1.0 + scale)


class _Embeddings(dict):
    """The default embedding of each (p, dim), built on first use. One
    is made per :func:`run_suite` call and shared by the suites it runs."""

    def __missing__(self, key: tuple[float, int]) -> KuelbsEmbedding:
        p, dim = key
        emb = self[key] = build_kuelbs(LpSpace(dim=dim, p=p))
        return emb


# --------------------------------------------------------------------------
# deformed: reconstruction, support, variation, distinctness, commutation


def _suite_deformed(cfg: SuiteConfig, tols: Tolerances, embs: _Embeddings) -> list[CaseResult]:
    cases: list[CaseResult] = []
    checks = {
        "reconstruction": ("<=", cfg.tolerance("deformed.reconstruction")),
        "support": ("<=", cfg.tolerance("deformed.support")),
        "variation_excess": ("<=", cfg.tolerance("deformed.variation")),
        "commutation": ("<=", cfg.tolerance("deformed.commutation")),
        "distinctness_flip": ("<=", cfg.tolerance("deformed.distinctness")),  # negdef only, as the next two
        "classical_max_atom": ("<", 0.0),
        "deformed_min_support": (">", 0.0),
    }
    g = parse_g("exp(-lambda)")
    for dim in cfg.dims:
        for kind in ("general", "hermitian", "negdef", "rankdef"):
            rank = max(1, dim // 2) if kind == "rankdef" else None
            ens = Ensemble(kind, dim, cfg.trials, _stream(cfg, f"deformed/{kind}/{dim}"), rank=rank)
            a = generate(ens)
            p = polar_decompose(a, tols=tols)
            f, e = p.measure, p.source
            recon = _rel(fro(f.reconstruct() - a), fro(a))

            # the support (NaN off it) against an independent singular-value solve
            support = np.where(f.values > f.support_tol[:, None], f.values, np.nan)
            sigma = np.linalg.svd(a, compute_uv=False)
            cut = tols.rank_threshold_rel(dim) * sigma[:, :1]
            support_err = _support_match(support, np.where(sigma > cut, sigma, np.nan))

            draws = _draws(ens, 10_000, 4)
            var_excess = 0.0
            for v_phi in draws.swapaxes(0, 1)[:3]:
                var_excess = np.maximum(var_excess, variation(f, v_phi) - variation(e, v_phi))

            # summation-order independence: U (sum g dE) phi vs sum g d(UE) phi
            phi = draws[:, 3]
            via_deformed = integrate(g, f, phi)
            via_source = (p.U @ integrate(g, e, phi)[..., None])[..., 0]
            comm = _rel(fro((via_deformed - via_source)[:, None]), fro(via_source[:, None]))

            metrics = {
                "reconstruction": recon,
                "support": support_err,
                "variation_excess": var_excess,
                "commutation": comm,
            }
            if kind == "negdef":
                classical = spectral_measure(a, tols=tols).values
                metrics["distinctness_flip"] = _support_match(support, np.abs(classical))
                metrics["classical_max_atom"] = classical[:, -1]
                metrics["deformed_min_support"] = np.nan_to_num(np.fmin.reduce(support, axis=1), nan=0.0)
            cases += _cases(f"deformed/{kind}/n{dim}", a, metrics, checks)
    return cases


# --------------------------------------------------------------------------
# funcalc: parsed-g calculus identity and classical agreement on PD inputs


def _suite_funcalc(cfg: SuiteConfig, tols: Tolerances, embs: _Embeddings) -> list[CaseResult]:
    cases: list[CaseResult] = []
    checks = {
        "identity": ("<=", cfg.tolerance("funcalc.identity")),
        "classical_agreement": ("<=", cfg.tolerance("funcalc.classical")),
    }
    asts = [parse_g(gsrc) for gsrc in G_CORPUS]
    for dim in cfg.dims:
        ens = Ensemble("general", dim, cfg.trials, _stream(cfg, f"funcalc/{dim}"))
        a = generate(ens)
        # the measure and the oracle's U and T from one polar decomposition
        p = polar_decompose(a, tols=tols)
        et = hermitian_eigen(p.T, tols=tols)
        f, u = p.measure, p.U
        del p  # a group's stacks set the run's peak memory: hold few at once
        worst = classical_worst = 0.0
        for ast in asts:
            rhs = u @ _g_of_psd(et, ast)
            worst = np.maximum(worst, _rel(fro(integrate(ast, f) - rhs), fro(rhs)))
        del et, f, u

        # positive-definite input: deformed and classical calculi agree
        pd = a @ herm(a) + 0.5 * np.eye(dim)
        fd = deformed_of(pd, tols=tols)
        ec = spectral_measure(pd, tols=tols)
        for ast in asts:
            rhs = integrate(ast, ec)
            classical_worst = np.maximum(classical_worst, _rel(fro(integrate(ast, fd) - rhs), fro(rhs)))
        metrics = {"identity": worst, "classical_agreement": classical_worst}
        cases += _cases(f"funcalc/n{dim}", a, metrics, checks)
    return cases


# --------------------------------------------------------------------------
# kuelbs: embedding positivity, continuity, duality identities, Lax bound


def kuelbs_probe_metrics(emb: KuelbsEmbedding, gram: np.ndarray, rng: Rng, trials: int) -> dict[str, float]:
    """Worst defects over ``trials`` random probe pairs (u, v) of the
    embedding: continuity ``||u||_H - ||u||_B`` (with ``||u||_H`` read from
    ``gram``), the duality pairing and dual norm, the Steadman identity, and
    ``(u, v)_H`` against the atomwise weighted sum over the functionals.
    """
    if trials < 1:
        raise ConfigError(f"trials must be at least 1 (a run without probes checks nothing), got {trials}")
    space = emb.space
    draws = rng.matrix(2 * trials, space.dim)
    us, vs = draws[0::2], draws[1::2]
    nbs = space.norm_rows(us)
    nb2 = nbs**2
    continuity = float((gram_norm_rows(gram, us) - nbs).max())

    # the duality maps are what is under test: f(u) for each probe u and its functional row f
    def on_probes(fs: np.ndarray) -> np.ndarray:
        return (fs[:, None, :] @ us[:, :, None])[:, 0, 0]

    fus = canonical_duality_map(us, space)
    pairing = float((np.abs(on_probes(fus) - nb2) / (1.0 + nb2)).max())
    dual_norm = float((np.abs(LpSpace(space.dim, space.q).norm_rows(fus) - nbs) / (1.0 + nbs)).max())
    steadman_rel = float((np.abs(on_probes(steadman(emb, us)) - nb2) / (1.0 + nb2)).max())

    # (u, v)_H against the atomwise sum over the functionals f_k: sum_k w_k f_k(u) conj(f_k(v))
    c = emb.functionals
    atomwise = ((us @ c.T) * (vs @ c.T).conj()) @ emb.weights
    consistency = float(np.abs(atomwise - emb.metric.inner_rows(us, vs)).max())
    return {
        "continuity_excess": continuity,
        "duality_pairing": pairing,
        "duality_norm": dual_norm,
        "steadman_identity": steadman_rel,
        "gram_consistency": consistency,
    }


def _suite_kuelbs(cfg: SuiteConfig, tols: Tolerances, embs: _Embeddings) -> list[CaseResult]:
    cases: list[CaseResult] = []
    checks = {
        "continuity_excess": ("<=", cfg.tolerance("kuelbs.continuity")),
        "duality_pairing": ("<=", cfg.tolerance("kuelbs.duality")),
        "duality_norm": ("<=", cfg.tolerance("kuelbs.duality")),
        "steadman_identity": ("<=", cfg.tolerance("kuelbs.steadman")),
        "gram_consistency": ("<=", cfg.tolerance("kuelbs.gram_consistency")),
        "dual_gram": ("<=", cfg.tolerance("kuelbs.dual_gram")),
        "lax_margin": ("<=", cfg.tolerance("kuelbs.lax_margin")),
        "gram_min_eig": (">", 0.0),
        "lax_not_h_selfadjoint": ("<=", 0),  # the Lax operators lax_diagnostic does not call H-selfadjoint
    }
    for p in cfg.ps:
        for dim in cfg.dims:
            emb = embs[p, dim]
            gram, gram_min = emb.gram, emb.metric.eig_min
            if cfg.corrupt_gram:
                gram = gram.copy()
                gram[0, 0] -= 2.0 * emb.metric.eig_max  # inject a negative eigenvalue
                gram_min = float(np.linalg.eigvalsh(gram)[0])

            rng = Rng(_stream(cfg, f"kuelbs/{p}/{dim}"))
            metrics = kuelbs_probe_metrics(emb, gram, rng, max(cfg.trials * 4, 8))

            # (f_a, f_b)_H' against sum_n w_n f_a(u_n) conj(f_b(u_n)) for the first four functionals
            fs = emb.functionals[:4]
            on_seeds = emb.seeds @ fs.T  # [n, a] = f_a(u_n)
            direct = (on_seeds.conj().T * emb.weights) @ on_seeds  # [b, a]
            dual_gram_err = float(np.abs(direct - fs.conj() @ emb.dual_gram @ fs.T).max())

            # Lax diagnostic on metric-selfadjoint operators
            ens = Ensemble(
                "h_selfadjoint", dim, max(2, cfg.trials // 2),
                _stream(cfg, f"kuelbs/lax/{p}/{dim}"), gram=emb.gram,
            )
            diag = lax_diagnostic(emb, generate(ens), tols=tols)
            lax_margin = float((diag.ratio - diag.bound).max())

            metrics.update(gram_min_eig=gram_min, dual_gram=dual_gram_err, lax_margin=lax_margin,
                           lax_not_h_selfadjoint=int((~diag.is_h_selfadjoint).sum()))
            cases.append(_case(f"kuelbs/p{p}/n{dim}", digest(gram), metrics, checks))
    return cases


# --------------------------------------------------------------------------
# adjoint: defining contract, involution, axioms


def _adjoint_checks(cfg: SuiteConfig, suite: str) -> dict[str, tuple[str, float]]:
    """The checks on :func:`adjoint_metrics`, under the suite's tolerance keys."""
    return {
        "contract": ("<=", cfg.tolerance(f"{suite}.contract")),
        "involution": ("<=", cfg.tolerance(f"{suite}.involution")),
        "natural_selfadjoint": ("<=", cfg.tolerance(f"{suite}.natural")),
        "accretive_min": (">=", -cfg.tolerance(f"{suite}.accretive")),
        "inverse_norm": ("<=", 1.0 + cfg.tolerance(f"{suite}.inverse")),
    }


def _suite_adjoint(cfg: SuiteConfig, tols: Tolerances, embs: _Embeddings) -> list[CaseResult]:
    cases: list[CaseResult] = []
    checks = _adjoint_checks(cfg, "adjoint")
    for p in cfg.ps:
        for dim in cfg.dims:
            ens = Ensemble("general", dim, cfg.trials, _stream(cfg, f"adjoint/{p}/{dim}"))
            a = generate(ens)
            metrics = adjoint_metrics(adjoint(banach_operator(a, embs[p, dim])), _draws(ens, 20_000, 16))
            cases += _cases(f"adjoint/p{p}/n{dim}", a, metrics, checks)
    return cases


# --------------------------------------------------------------------------
# baire: resolvent approximant error bound, rate window, identities

# sigma_min > _FULL_RANK_CUT * sigma_max selects the cases whose decade
# rates are gated; it sorts cases rather than bounding a residual
_FULL_RANK_CUT = 1e-6


def _suite_baire(cfg: SuiteConfig, tols: Tolerances, embs: _Embeddings) -> list[CaseResult]:
    cases: list[CaseResult] = []
    checks = {
        "identity": ("<=", cfg.tolerance("baire.identity")),
        "intertwine": ("<=", cfg.tolerance("baire.intertwine")),
        "bound_excess": ("<=", 0.0),
        "rate_outside": ("<=", 0),  # gated decade ratios outside [rate_low, rate_high]
    }
    lams = lambda_schedule(cfg.lambdas)  # ascending, as for `dst baire`
    slack = 1.0 + cfg.tolerance("baire.bound_slack")
    low, high = cfg.tolerance("baire.rate_low"), cfg.tolerance("baire.rate_high")
    for p in cfg.ps:
        for dim in cfg.dims:
            m = embs[p, dim].metric
            ens = Ensemble("general", dim, cfg.trials, _stream(cfg, f"baire/{p}/{dim}"))
            a = generate(ens)
            op = banach_operator(a, embs[p, dim])
            gp = h_polar(op, tols=tols)
            t_h_norm = gp.sigma[..., 0]  # ||T||_H, the frame's largest singular value
            sigma = np.linalg.svd(a, compute_uv=False)
            full_rank = sigma[:, -1] > _FULL_RANK_CUT * sigma[:, 0]
            phis = _draws(ens, 30_000, 4)  # rows are the phi
            a_phi = phis @ a.mT
            bnd = m.norm_rows(a_phi @ gp.Tbar.mT)  # times 1/lam
            with np.errstate(over="ignore"):  # an infinite bound holds for any error, so it is refused
                overflow = ~np.isfinite(bnd.max(axis=1) / lams[0] * slack)
            if overflow.any():
                raise InvalidInput(
                    f"baire/p{p}/n{dim}/t{int(np.argmax(overflow))}: error bound / lambda overflows"
                    f" at lambda {lams[0]!r}"
                )

            bound_excess = -math.inf
            identity_worst = intertwine_worst = 0.0
            errors = []
            for lam in lams:
                probe = baire_approximant(op, lam, tols=tols)
                identity_worst = np.maximum(identity_worst, probe.identity_residual())
                intertwine_worst = np.maximum(intertwine_worst, intertwining_residual(op, probe))
                err = m.norm_rows(phis @ probe.a_lambda.mT - a_phi)
                errors.append(err.max(axis=1))
                bound_excess = np.maximum(bound_excess, (err - bnd / lam * slack).max(axis=1))

            # the decade window describes the resolvent-dominated regime,
            # so rate ratios are asserted only once lambda clears ||T||_H
            outside = np.zeros(ens.count, dtype=int)
            rate_min, rate_max = np.full(ens.count, math.inf), np.full(ens.count, -math.inf)
            for e_prev, e_next, l_prev, l_next in zip(errors, errors[1:], lams, lams[1:]):
                if abs(l_next / l_prev - 10.0) < 1e-9:
                    gated = full_rank & (e_prev > 0.0) & (l_prev >= t_h_norm)
                    ratio = e_next / np.where(gated, e_prev, 1.0)
                    rate_min = np.where(gated, np.minimum(rate_min, ratio), rate_min)
                    rate_max = np.where(gated, np.maximum(rate_max, ratio), rate_max)
                    outside += gated & ~((low <= ratio) & (ratio <= high))

            metrics = {
                "bound_excess": bound_excess,
                "identity": identity_worst,
                "intertwine": intertwine_worst,
                "rate_min": np.where(np.isfinite(rate_min), rate_min, 0.0),
                "rate_max": np.where(np.isfinite(rate_max), rate_max, 0.0),
                "rate_outside": outside,
            }
            cases += _cases(f"baire/p{p}/n{dim}", a, metrics, checks)
    return cases


# --------------------------------------------------------------------------
# banach-spectral: metric deformed measure, lp reconstruction, calculus


def _suite_banach_spectral(cfg: SuiteConfig, tols: Tolerances, embs: _Embeddings) -> list[CaseResult]:
    cases: list[CaseResult] = []
    checks = {
        "reconstruction_lp": ("<=", cfg.tolerance("banach.reconstruction")),
        "funcalc_identity": ("<=", cfg.tolerance("banach.funcalc")),
    }
    square = parse_g("lambda^2")
    for p in cfg.ps:
        for dim in cfg.dims:
            space = embs[p, dim].space
            ens = Ensemble("general", dim, cfg.trials, _stream(cfg, f"banach-spectral/{p}/{dim}"))
            op = banach_operator(generate(ens), embs[p, dim])
            a = op.matrix
            # the oracle U T^2 and the measure from one H-polar, then drop it:
            # a group's stacks set the run's peak memory, so hold few at once
            gp = h_polar(op, tols=tols)
            t = gp.T
            rhs = gp.U @ (t @ t)
            del t
            measure = gp.measure
            del op, gp
            # the canonical basis and three random probes, as rows
            basis = np.broadcast_to(np.eye(dim, dtype=np.complex128), a.shape)
            probes = np.concatenate([basis, _draws(ens, 40_000, 3)], axis=1)
            a_phi = probes @ a.mT
            num = space.norm_rows(probes @ measure.reconstruct().mT - a_phi)
            recon = (num / (1.0 + space.norm_rows(a_phi))).max(axis=1)
            lhs = integrate(square, measure)
            del measure, probes, a_phi
            metrics = {"reconstruction_lp": recon, "funcalc_identity": _rel(fro(lhs - rhs), fro(rhs))}
            cases += _cases(f"banach-spectral/p{p}/n{dim}", a, metrics, checks)
    return cases


# --------------------------------------------------------------------------
# laplacian: adjoint demo on the discrete Dirichlet grid


def _suite_laplacian(cfg: SuiteConfig, tols: Tolerances, embs: _Embeddings) -> list[CaseResult]:
    cases: list[CaseResult] = []
    checks = {**_adjoint_checks(cfg, "laplacian"), "closed_form": ("<=", cfg.tolerance("laplacian.contract"))}
    for n in cfg.laplacian_ns:
        rng = Rng(_stream(cfg, f"laplacian/{n}"))
        shift = np.zeros((n, n), dtype=np.complex128)
        shift[np.arange(n - 1), np.arange(1, n)] = 1.0  # upper shift
        operators = [
            ("identity", np.eye(n, dtype=np.complex128)),
            ("laplacian", dirichlet_laplacian(n)),
            ("shift", shift),
            ("random", rng.matrix(n, n)),
        ]
        for name, a in operators:
            _, metrics = dirichlet_laplacian_demo(n, r=3.0, a=a, rng=rng)
            cases.append(_case(f"laplacian/n{n}/{name}", digest(a), metrics, checks))
    return cases


# every suite takes (cfg, tols, embs); adjoint and laplacian reach no library
# threshold, and deformed, funcalc and laplacian build no embedding
_SUITE_FNS = {
    "deformed": _suite_deformed,
    "funcalc": _suite_funcalc,
    "kuelbs": _suite_kuelbs,
    "adjoint": _suite_adjoint,
    "baire": _suite_baire,
    "banach-spectral": _suite_banach_spectral,
    "laplacian": _suite_laplacian,
}


def run_suite(
    name: str,
    cfg: SuiteConfig,
    *,
    tols: Tolerances = DEFAULT,
    timestamp: str | None = None,
) -> Report:
    """Run one suite (or "all") and assemble its report."""
    embs = _Embeddings()
    if name == "all":
        cases: list[CaseResult] = []
        for suite in SUITE_NAMES:
            cases.extend(_SUITE_FNS[suite](cfg, tols, embs))
    elif name in _SUITE_FNS:
        cases = _SUITE_FNS[name](cfg, tols, embs)
    else:
        raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    if not cases:  # a run that checks nothing must not pass
        raise ConfigError(f"suite {name!r} has no cases under this configuration")
    return Report(suite=name, seed=cfg.seed, config=cfg.to_obj(), cases=tuple(cases), timestamp=timestamp)
