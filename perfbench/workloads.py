"""The benchmark's workloads and their correctness gates.

Each workload builds its inputs from a seed (``setup``), then runs one
pass over them (``run_pass``). Only the calls into ``dst`` sit inside the
``clock`` segments; the gates that check each output run between them,
outside the timed region, and report to a ``Gate``. ``dst`` is reached
through module attributes at call time (``dst.spectral.integrate``), so
wrappers installed by the tracer are seen.

Sizes: ``full`` is what the benchmark measures; ``smoke`` is a tiny-n
version of the same code path for warm-up and tests.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Limits of the suites' TOL_DEFAULTS entries named alongside.
RECONSTRUCTION = 1e-10  # deformed.reconstruction
FUNCALC = 1e-9  # funcalc.identity
BANACH = 1e-8  # banach.reconstruction
ADJOINT = 1e-10  # adjoint.contract / involution / natural / accretive / inverse

# The suites' G_CORPUS, with numpy references for U g(T).
EXPRS = {
    "lambda": lambda x: x,
    "lambda^2": lambda x: x**2,
    "exp(-lambda)": lambda x: np.exp(-x),
    "sin(lambda)": np.sin,
    "sqrt(lambda)": np.sqrt,
}

LAMBDAS = (1e1, 1e2, 1e3, 1e4)


class Clock:
    """Sums the wall time of the ``with clock:`` segments of one pass."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._t0


class Gate:
    """Items attempted and failed, and a message per failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.run_ok = True
        self.messages: list[str] = []

    def item(self, label: str, checks: dict[str, tuple[float, bool]]) -> None:
        self.attempted += 1
        bad = [f"{k}={v!r}" for k, (v, ok) in checks.items() if not ok]
        if bad:
            self.failed += 1
            self.messages.append(f"{label}: " + ", ".join(bad))

    def run_check(self, label: str, ok: bool, detail: str = "") -> None:
        """A check on the run as a whole (repeatability), not on one item."""
        if not ok:
            self.run_ok = False
            self.messages.append(f"{label}: {detail}")

    @property
    def correct(self) -> bool:
        return self.run_ok and self.failed == 0


def _rel(delta, scale) -> float:
    return float(np.linalg.norm(delta)) / (1.0 + float(np.linalg.norm(scale)))


def capped_weights(n: int) -> np.ndarray:
    """The suites' capped geometric schedule 2^-min(k+1, 19), normalized."""
    w = np.array([2.0 ** -min(k + 1, 19) for k in range(n)])
    return w / w.sum()


def _embedding(dst, n: int):
    return dst.kuelbs.build_kuelbs(dst.kuelbs.LpSpace(n, 3.0), weights=capped_weights(n))


# --------------------------------------------------------------------------


class VerifySmall:
    """In-process ``dst verify --suite all``; one item is one verify case."""

    min_passes = 6  # timed passes per run, even when they outlast --seconds

    SIZES = {
        "full": {"dims": "2,4,8,16", "trials": 20, "extra": [], "cases": 896},
        "smoke": {"dims": "4", "trials": 1, "extra": ["--laplacian-ns", "8"], "cases": 17},
    }

    def __init__(self, size: str):
        self.cfg = self.SIZES[size]
        self.size = size
        self.items = self.cfg["cases"]
        self.sha256 = None  # of the first report; every later pass must match it

    def setup(self, dst, seed: int, workdir: str) -> dict:
        report = str(Path(workdir) / f"report-{self.size}.json")
        argv = [
            "verify", "--suite", "all", "--dims", self.cfg["dims"], "--trials", str(self.cfg["trials"]),
            "--seed", str(seed), "--no-timestamp", "--report", report, *self.cfg["extra"],
        ]
        dst.cli.build_parser().parse_args(argv)
        return {"argv": argv, "report": report}

    def run_pass(self, dst, inp: dict, clock: Clock, gate: Gate | None) -> None:
        log = io.StringIO()
        with clock, redirect_stderr(log):
            rc = dst.cli.main(inp["argv"])
        if gate is None:
            return
        data = Path(inp["report"]).read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        cases = json.loads(data)["cases"]
        gate.run_check("verify exit code", rc == 0, f"{rc}; {log.getvalue().strip()}")
        gate.run_check("verify case count", len(cases) == self.items, f"{len(cases)} != {self.items}")
        self.sha256 = self.sha256 or sha
        gate.run_check("verify report bytes", sha == self.sha256, f"{sha} != {self.sha256}")
        for case in cases:
            gate.item(case["id"], {"pass": (case["pass"], case["pass"] is True)})


class CalculusLarge:
    """Deformed measure, its calculus and the banach spectral measure; one item is one matrix."""

    SIZES = {"full": 256, "smoke": 8}
    min_passes = 3

    def __init__(self, size: str):
        self.n = self.SIZES[size]
        self.items = 2

    def setup(self, dst, seed: int, workdir: str) -> dict:
        n = self.n
        ens = dst.ensembles
        mats = [
            ("general", n, ens.generate(ens.Ensemble("general", n, 1, seed))[0]),
            ("rankdef", n // 2, ens.generate(ens.Ensemble("rankdef", n, 1, seed + 1, rank=n // 2))[0]),
        ]
        return {"mats": mats, "emb": _embedding(dst, n)}

    def run_pass(self, dst, inp: dict, clock: Clock, gate: Gate | None) -> None:
        spectral, adjoint = dst.spectral, dst.adjoint
        for kind, rank, a in inp["mats"]:
            with clock:
                f = spectral.deformed_of(a)
                outs = [spectral.integrate(g, f) for g in EXPRS]
            checks = self._check_measure(a, rank, f, outs) if gate else {}
            del f, outs
            with clock:
                res = adjoint.banach_deformed_spectral(adjoint.banach_operator(a, inp["emb"]))
            if gate:
                recon = _rel(sum(lam * df for lam, df in res.measure.atoms) - a, a)
                checks["banach_residual"] = (res.reconstruction_residual, res.reconstruction_residual <= BANACH)
                checks["banach_reconstruction"] = (recon, recon <= BANACH)
                gate.item(f"calculus/{kind}/n{self.n}", checks)
            del res

    @staticmethod
    def _check_measure(a, rank, f, outs) -> dict:
        n = a.shape[0]
        w, s, vh = np.linalg.svd(a)
        keep = s > n * EPS * s[0]  # the polar rank cut at the default tolerance
        checks = {
            "reconstruction": (r := _rel(sum(lam * df for lam, df in f.atoms) - a, a), r <= RECONSTRUCTION),
            "support_count": (len(f.support), len(f.support) == int(keep.sum()) == rank),
        }
        for (g, ref), out in zip(EXPRS.items(), outs):
            expect = (w[:, keep] * ref(s[keep])) @ vh[keep]  # U g(T) from the SVD
            err = _rel(out - expect, expect)
            checks[f"funcalc[{g}]"] = (err, err <= FUNCALC)
        return checks


class MetricLarge:
    """Gram-metric adjoint machinery; one item is one operator."""

    SIZES = {"full": 256, "smoke": 8}
    OPERATORS = 4
    min_passes = 6

    def __init__(self, size: str):
        self.n = self.SIZES[size]
        self.items = self.OPERATORS

    def setup(self, dst, seed: int, workdir: str) -> dict:
        n, ens = self.n, dst.ensembles
        emb = _embedding(dst, n)
        ops = ens.generate(ens.Ensemble("general", n, self.OPERATORS, seed))
        hs = ens.generate(ens.Ensemble("h_selfadjoint", n, self.OPERATORS, seed + 1, gram=emb.gram))
        rng = np.random.default_rng(seed)
        vecs = rng.standard_normal((10, n)) + 1j * rng.standard_normal((10, n))
        return {"emb": emb, "ops": ops, "hs": hs, "probes": list(vecs[:4]), "pairs": list(zip(vecs[4:7], vecs[7:]))}

    def run_pass(self, dst, inp: dict, clock: Clock, gate: Gate | None) -> None:
        adj, kuelbs = dst.adjoint, dst.kuelbs
        emb, probes = inp["emb"], inp["probes"]
        for idx, (a, h) in enumerate(zip(inp["ops"], inp["hs"])):
            with clock:
                op = adj.banach_operator(a, emb)
                pair = adj.adjoint(op)
                second = adj.adjoint(adj.banach_operator(pair.astar, emb))
                ax = adj.adjoint_axioms(pair, probes=probes)
                gp = adj.h_polar(op)
                rows = adj.baire_convergence_study(op, probes, LAMBDAS)
                lax = kuelbs.lax_diagnostic(emb, h)
            if gate:
                gate.item(f"metric/op{idx}/n{self.n}", self._checks(a, emb.gram, inp["pairs"], pair, second, ax, gp, rows, lax))

    @staticmethod
    def _checks(a, g, pairs, pair, second, ax, gp, rows, lax) -> dict:
        na = float(np.linalg.norm(a))
        contract = max(
            abs(np.vdot(v, g @ (a @ u)) - np.vdot(pair.astar @ v, g @ u))
            / (1.0 + na * float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
            for u, v in pairs
        )
        involution = _rel(second.astar - a, a)
        polar = _rel(gp.U @ gp.T - a, a)
        baire = max(r.max_error - r.bound for r in rows)
        return {
            "contract": (contract, contract <= ADJOINT),
            "involution": (involution, involution <= ADJOINT),
            "accretive_min": (ax.accretive_min, ax.accretive_min >= -ADJOINT),
            "natural_selfadjoint": (ax.natural_selfadjoint_residual, ax.natural_selfadjoint_residual <= ADJOINT),
            "inverse_norm": (ax.inverse_norm, ax.inverse_norm <= 1.0 + ADJOINT),
            "h_polar_product": (polar, polar <= ADJOINT),
            "baire_rows": (len(rows), len(rows) == len(LAMBDAS)),
            "baire_error_minus_bound": (baire, baire <= 0.0),
            "lax_ratio_minus_bound": (lax.ratio - lax.bound, lax.ratio <= lax.bound),
            "lax_h_selfadjoint": (lax.is_h_selfadjoint, lax.is_h_selfadjoint is True),
        }


WORKLOADS = {"verify-small": VerifySmall, "calculus-large": CalculusLarge, "metric-large": MetricLarge}
