"""Adjoints, polar decompositions, resolvent approximants, and spectral
measures on an lp space carrying an embedded Hilbert inner product.

Everything here reduces to one trick: factor the Gram as G = L L*, move to
the frame A~ = L* A inv(L*), where the constructed inner product becomes
the Euclidean one, run the Euclidean machinery, and pull back. In
coordinates the adjoint is

    A* = inv(G) A^H G

which is the unique matrix satisfying the defining contract
(A u, v)_H = (u, A* v)_H; all the axioms (A*A accretive, (A*A)* = A*A,
||inv(I + A*A)||_H <= 1) follow from it.

The resolvent approximant A_lam = lam A inv(lam I + T), built from the
positive polar factor T in the embedded metric, converges to A at rate
1/lam and satisfies the algebraic identity

    A_lam = lam U - lam^2 U inv(lam I + T)

together with the intertwining A inv(lam I + T) = inv(lam I + Tbar) A.

The Dirichlet-Laplacian demo instantiates the same machinery with the
Gram taken as the inverse of the discrete 1-D Laplacian J0 (the metric of
the dual Sobolev pairing), for which the adjoint takes the closed form
A* = J0 A^H inv(J0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import BadGrid, DimensionMismatch
from .kuelbs import GramMetric, KuelbsEmbedding, LpSpace
from .linalg import as_matrix, as_vector, herm, vnorm
from .polar import polar_decompose
from .spectral import SpectralMeasure, deform, spectral_measure

__all__ = [
    "BanachOperator",
    "AdjointPair",
    "AdjointAxioms",
    "GramPolar",
    "ResolventProbe",
    "ConvergenceRow",
    "BanachDeformedResult",
    "LaplacianDemoReport",
    "adjoint",
    "adjoint_axioms",
    "h_polar",
    "baire_approximant",
    "baire_convergence_study",
    "banach_deformed_spectral",
    "dirichlet_laplacian",
    "dirichlet_laplacian_demo",
]


@dataclass(frozen=True)
class BanachOperator:
    """A coordinate operator on the lp space of an embedding."""

    matrix: np.ndarray
    embedding: KuelbsEmbedding

    def __post_init__(self):
        m = self.matrix
        if m.shape[0] != m.shape[1] or m.shape[0] != self.embedding.space.dim:
            raise DimensionMismatch(
                f"operator {m.shape} does not act on a space of dim {self.embedding.space.dim}"
            )
        m.setflags(write=False)

    @property
    def space(self):
        return self.embedding.space


def banach_operator(matrix, embedding: KuelbsEmbedding) -> BanachOperator:
    return BanachOperator(matrix=as_matrix(matrix, square=True), embedding=embedding)


@dataclass(frozen=True)
class AdjointPair:
    """An operator together with its metric adjoint."""

    operator: BanachOperator
    astar: np.ndarray

    def __post_init__(self):
        self.astar.setflags(write=False)

    def contract_residual(self, u, v) -> float:
        """| (A u, v)_H - (u, A* v)_H | for one pair of vectors."""
        k = self.operator.embedding
        lhs = k.h_inner(self.operator.matrix @ as_vector(u), v)
        rhs = k.h_inner(u, self.astar @ as_vector(v))
        return abs(lhs - rhs)


def adjoint(op: BanachOperator) -> AdjointPair:
    """Metric adjoint A* = inv(G) A^H G of a coordinate operator."""
    g = op.embedding.gram
    astar = np.linalg.solve(g, herm(op.matrix) @ g)
    return AdjointPair(operator=op, astar=astar)


@dataclass(frozen=True)
class AdjointAxioms:
    """Measured adjoint axioms.

    accretive_min                 -- min of Re(A*A u, u)_H / (u, u)_H
    natural_selfadjoint_residual  -- ||(A*A)* - A*A||_F / (1 + ||A*A||_F)
    inverse_norm                  -- H-operator norm of inv(I + A*A)
    """

    accretive_min: float
    natural_selfadjoint_residual: float
    inverse_norm: float


def _axioms_for_gram(astar_a: np.ndarray, metric: GramMetric, probes: Sequence[np.ndarray]) -> AdjointAxioms:
    n = astar_a.shape[0]
    gram = metric.gram
    basis = metric.frame_inv  # columns are H-orthonormal

    def inner(x, y):
        return complex(np.vdot(y, gram @ x))

    vals = []
    probe_list = [basis[:, j] for j in range(n)] + [as_vector(u) for u in probes]
    for u in probe_list:
        den = inner(u, u).real
        if den <= 0.0:
            continue
        vals.append(inner(astar_a @ u, u).real / den)
    accretive_min = min(vals) if vals else 0.0

    second = np.linalg.solve(gram, herm(astar_a) @ gram)
    ns_resid = float(np.linalg.norm(second - astar_a)) / (1.0 + float(np.linalg.norm(astar_a)))

    inv_op = np.linalg.solve(np.eye(n) + astar_a, np.eye(n, dtype=np.complex128))
    inverse_norm = float(np.linalg.norm(metric.chol_h @ inv_op @ basis, 2))
    return AdjointAxioms(
        accretive_min=float(accretive_min),
        natural_selfadjoint_residual=ns_resid,
        inverse_norm=inverse_norm,
    )


def adjoint_axioms(pair: AdjointPair, *, probes: Sequence[np.ndarray] = ()) -> AdjointAxioms:
    """Check accretivity, natural selfadjointness, and the inverse bound.

    The accretive minimum sweeps an H-orthonormal basis (the columns of
    inv(L*)) plus any supplied probe vectors.
    """
    return _axioms_for_gram(pair.astar @ pair.operator.matrix, pair.operator.embedding.metric, probes)


@dataclass(frozen=True)
class GramPolar:
    """Polar decomposition A = U T = Tbar U in the embedded metric.

    T and Tbar are H-selfadjoint H-PSD, U an H-partial-isometry. The
    Gram factor used for the frame transform is the embedding's metric.
    """

    U: np.ndarray
    T: np.ndarray
    Tbar: np.ndarray
    rank: int
    tol: float
    threshold: float

    def __post_init__(self):
        for a in (self.U, self.T, self.Tbar):
            a.setflags(write=False)


def h_polar(op: BanachOperator, *, tols: Tolerances = DEFAULT) -> GramPolar:
    """Polar-decompose in the embedded metric via the Cholesky frame."""
    m = op.embedding.metric
    p = polar_decompose(m.chol_h @ op.matrix @ m.frame_inv, tols=tols)
    pull = lambda x: m.frame_inv @ x @ m.chol_h
    return GramPolar(
        U=pull(p.U),
        T=pull(p.T),
        Tbar=pull(p.Tbar),
        rank=p.rank,
        tol=p.tol,
        threshold=p.threshold,
    )


@dataclass(frozen=True)
class ResolventProbe:
    """One resolvent approximant A_lam = lam A inv(lam I + T)."""

    lam: float
    resolvent: np.ndarray  # inv(lam I + T)
    a_lambda: np.ndarray
    polar: GramPolar

    def __post_init__(self):
        self.resolvent.setflags(write=False)
        self.a_lambda.setflags(write=False)

    def identity_residual(self) -> float:
        """Scaled residual of A_lam = lam U - lam^2 U inv(lam I + T)."""
        u = self.polar.U
        ur = u @ self.resolvent
        algebraic = self.lam * u - self.lam**2 * ur
        scale = 1.0 + float(np.linalg.norm(self.a_lambda)) + self.lam * float(np.linalg.norm(u)) + self.lam**2 * float(np.linalg.norm(ur))
        return float(np.linalg.norm(self.a_lambda - algebraic)) / scale


def baire_approximant(
    op: BanachOperator,
    lam: float,
    *,
    gp: GramPolar | None = None,
    tols: Tolerances = DEFAULT,
) -> ResolventProbe:
    """Bounded approximant of A at a finite resolvent parameter lam > 0."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if gp is None:
        gp = h_polar(op, tols=tols)
    n = op.space.dim
    resolvent = np.linalg.solve(lam * np.eye(n) + gp.T, np.eye(n, dtype=np.complex128))
    a_lambda = lam * (op.matrix @ resolvent)
    return ResolventProbe(lam=lam, resolvent=resolvent, a_lambda=a_lambda, polar=gp)


def intertwining_residual(op: BanachOperator, probe: ResolventProbe) -> float:
    """Scaled residual of A inv(lam I + T) = inv(lam I + Tbar) A."""
    n = op.space.dim
    r_bar = np.linalg.solve(probe.lam * np.eye(n) + probe.polar.Tbar, np.eye(n, dtype=np.complex128))
    lhs = op.matrix @ probe.resolvent
    rhs = r_bar @ op.matrix
    return float(np.linalg.norm(lhs - rhs)) / (1.0 + float(np.linalg.norm(lhs)))


@dataclass(frozen=True)
class ConvergenceRow:
    lam: float
    max_error: float
    bound: float


def baire_convergence_study(
    op: BanachOperator,
    phis: Sequence[np.ndarray],
    lambdas: Sequence[float],
) -> list[ConvergenceRow]:
    """Error table of the approximant against A over a lambda schedule.

    Errors are lp norms; the bound column is the H-metric estimate
    (1/lam) ||Tbar A phi||_H scaled by the H -> lp equivalence constant
    of the Gram factorization, so every row satisfies error <= bound.
    Rows come back in schedule order regardless of evaluation order.
    The rows depend on T and Tbar alone, which no threshold cuts, so the
    study takes no tolerances.
    """
    lams = [float(x) for x in lambdas]
    if not all(x > 0 for x in lams):  # also rejects NaN
        raise ValueError("lambda schedule must be positive")
    if sorted(lams) != lams:
        raise ValueError("lambda schedule must be ascending")
    if lams and lams[-1] > 1e8:
        # beyond this the subtraction lam*U - lam^2*U*R floors at eps*lam
        raise ValueError("lambda schedule capped at 1e8")
    k = op.embedding
    gp = h_polar(op)
    n = k.space.dim
    # ||x||_p <= n^max(0, 1/p - 1/2) ||x||_2 and ||x||_2 <= ||x||_H / sqrt(min eig G)
    h_to_b = n ** max(0.0, 1.0 / k.space.p - 0.5) / math.sqrt(k.metric.eig_min)
    phi_list = [as_vector(phi) for phi in phis]
    rows = []
    for lam in lams:
        probe = baire_approximant(op, lam, gp=gp)
        worst_err = 0.0
        worst_bound = 0.0
        for phi in phi_list:
            err = vnorm(probe.a_lambda @ phi - op.matrix @ phi, k.space.p)
            bnd = h_to_b * k.h_norm(gp.Tbar @ (op.matrix @ phi)) / lam
            worst_err = max(worst_err, err)
            worst_bound = max(worst_bound, bnd)
        rows.append(ConvergenceRow(lam=lam, max_error=worst_err, bound=worst_bound))
    return rows


@dataclass(frozen=True)
class BanachDeformedResult:
    measure: SpectralMeasure
    polar: GramPolar
    reconstruction_residual: float


def banach_deformed_spectral(op: BanachOperator, *, tols: Tolerances = DEFAULT) -> BanachDeformedResult:
    """Deformed spectral measure of an operator in the embedded metric.

    The measure of the positive factor T is computed in the Euclidean
    frame and pulled back, so its projectors are H-orthogonal (idempotent
    and selfadjoint for the Gram inner product, not the Euclidean one).
    The pull-back transforms the factors once: left by inv(L*), right by L*.
    """
    gp = h_polar(op, tols=tols)
    m = op.embedding.metric
    t_frame = m.chol_h @ gp.T @ m.frame_inv
    e_frame = spectral_measure((t_frame + herm(t_frame)) / 2.0, tols=tols)
    e_pulled = replace(e_frame, left=m.frame_inv @ e_frame.left, right=e_frame.right @ m.chol_h)
    measure = deform(gp.U, e_pulled, support_tol=gp.threshold, tols=tols)
    resid = float(np.linalg.norm(measure.reconstruct() - op.matrix)) / (
        1.0 + float(np.linalg.norm(op.matrix))
    )
    return BanachDeformedResult(measure=measure, polar=gp, reconstruction_residual=resid)


def dirichlet_laplacian(n: int) -> np.ndarray:
    """Second-difference matrix with homogeneous Dirichlet ends.

    Uniform mesh h = 1/(n+1) on the unit interval; the matrix is the
    classic tridiagonal (-1, 2, -1)/h^2 acting on the n interior nodes.
    """
    if n < 2:
        raise BadGrid(f"grid needs at least 2 interior points, got {n}")
    h = 1.0 / (n + 1)
    j0 = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(j0, 2.0)
    idx = np.arange(n - 1)
    j0[idx, idx + 1] = -1.0
    j0[idx + 1, idx] = -1.0
    return j0 / h**2


@dataclass(frozen=True)
class LaplacianDemoReport:
    n: int
    r: float
    contract_residual: float
    involution_residual: float
    accretive_min: float
    natural_selfadjoint_residual: float
    inverse_norm: float
    astar: np.ndarray
    residual_r_norm: float


def dirichlet_laplacian_demo(
    n: int,
    r: float = 2.0,
    a=None,
    *,
    probes: Sequence[np.ndarray] = (),
) -> LaplacianDemoReport:
    """Adjoint demo on the discrete Dirichlet Laplacian J0.

    The Hilbert metric is the dual pairing with Gram G = inv(J0); in that
    metric the adjoint has the closed form A* = J0 A^H inv(J0), which is
    what gets verified here (contract, involution, and the axioms),
    together with the same quantities computed through the generic
    machinery. ``r`` only selects the lr norm used for the reported
    residual; the adjoint formula itself is r-independent.
    """
    j0 = dirichlet_laplacian(n)
    eye = np.eye(n, dtype=np.complex128)
    if a is None:
        a = eye.copy()
    a = as_matrix(a, square=True)
    if a.shape[0] != n:
        raise BadGrid(f"operator is {a.shape[0]}x{a.shape[1]}, grid has {n} interior points")
    j0_inv = np.linalg.solve(j0, eye)
    metric = GramMetric((j0_inv + herm(j0_inv)) / 2.0)

    astar = j0 @ herm(a) @ j0_inv  # closed form of the metric adjoint

    def g_inner(x, y):
        return complex(np.vdot(y, metric.gram @ x))

    worst = 0.0
    scale = 1.0 + float(np.linalg.norm(a))
    pairs = [(eye[:, i], eye[:, j]) for i in range(min(n, 6)) for j in range(min(n, 6))]
    pairs += [(u, v) for u, v in zip(probes, list(probes[1:]) + [eye[:, 0]])]
    for u, v in pairs:
        worst = max(worst, abs(g_inner(a @ u, v) - g_inner(u, astar @ v)) / scale)

    astar2 = j0 @ herm(astar) @ j0_inv
    involution = float(np.linalg.norm(astar2 - a)) / scale

    LpSpace(dim=n, p=r)  # validates r in (1, inf)
    axioms = _axioms_for_gram(astar @ a, metric, probes)

    residual_r = max(vnorm(astar2[:, j] - a[:, j], r) for j in range(n)) / scale
    return LaplacianDemoReport(
        n=n,
        r=r,
        contract_residual=worst,
        involution_residual=involution,
        accretive_min=axioms.accretive_min,
        natural_selfadjoint_residual=axioms.natural_selfadjoint_residual,
        inverse_norm=axioms.inverse_norm,
        astar=astar,
        residual_r_norm=residual_r,
    )
