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

An operator holds only what this needs: its matrix, the GramMetric of G
and the lp space. A KuelbsEmbedding is one way to build that metric
(``banach_operator`` reads both off it); the Dirichlet-Laplacian demo
uses another, the Gram inv(J0) of the discrete 1-D Laplacian J0 (the
metric of the dual Sobolev pairing), for which the adjoint takes the
closed form A* = J0 A^H inv(J0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import BadGrid, DimensionMismatch
from .kuelbs import GramMetric, KuelbsEmbedding, LpSpace
from .linalg import (
    SvdResult, abs_norm, as_matrix, as_vector, gram_inner_rows, gram_norm_rows, herm, svd, vnorm,
)
from .polar import PolarDecomposition, polar_from_svd
from .spectral import SpectralMeasure, deform, measure_from_svd

__all__ = [
    "BanachOperator",
    "AdjointPair",
    "AdjointAxioms",
    "ResolventProbe",
    "ConvergenceRow",
    "BanachDeformedResult",
    "LaplacianDemoReport",
    "adjoint",
    "adjoint_axioms",
    "h_polar",
    "baire_approximant",
    "lambda_schedule",
    "baire_convergence_study",
    "banach_deformed_spectral",
    "dirichlet_laplacian",
    "dirichlet_laplacian_demo",
]


@dataclass(frozen=True)
class BanachOperator:
    """A coordinate operator on an lp space carrying the Hilbert metric
    (u, v)_H = v* G u of a :class:`GramMetric`.

    The operator holds its H-polar per tolerance set once
    :func:`h_polar` has computed it; matrix, metric and space are frozen,
    so the stored result never goes stale.
    """

    matrix: np.ndarray
    metric: GramMetric
    space: LpSpace
    _polars: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n = self.matrix, self.space.dim
        if m.shape[0] != m.shape[1] or m.shape[0] != n:
            raise DimensionMismatch(f"operator {m.shape} does not act on a space of dim {n}")
        if self.metric.gram.shape[0] != n:
            raise DimensionMismatch(f"metric of dim {self.metric.gram.shape[0]} on a space of dim {n}")
        m.setflags(write=False)


def banach_operator(matrix, embedding: KuelbsEmbedding) -> BanachOperator:
    """The operator ``matrix`` on the embedding's lp space and metric."""
    return BanachOperator(as_matrix(matrix, square=True), embedding.metric, embedding.space)


@dataclass(frozen=True)
class AdjointPair:
    """An operator together with its metric adjoint."""

    operator: BanachOperator
    astar: np.ndarray

    def __post_init__(self):
        self.astar.setflags(write=False)

    def contract_rows(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Unchecked | (A u, v)_H - (u, A* v)_H | for each row pair of two k×n blocks."""
        g = self.operator.metric.gram
        return np.abs(
            gram_inner_rows(g, us @ self.operator.matrix.T, vs) - gram_inner_rows(g, us, vs @ self.astar.T)
        )

    def contract_residual(self, u, v) -> float:
        """:meth:`contract_rows` for one pair of vectors of the space."""
        u, v = as_vector(u), as_vector(v)
        if u.shape != v.shape or u.shape[0] != self.operator.space.dim:
            raise DimensionMismatch("vector dimension does not match the operator")
        return float(self.contract_rows(u[None], v[None])[0])


def adjoint(op: BanachOperator) -> AdjointPair:
    """Metric adjoint A* = inv(G) A^H G of a coordinate operator."""
    g = op.metric.gram
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


def adjoint_axioms(pair: AdjointPair, *, probes: Sequence[np.ndarray] = ()) -> AdjointAxioms:
    """Check accretivity, natural selfadjointness, and the inverse bound.

    The accretive minimum sweeps an H-orthonormal basis (the columns of
    inv(L*)) plus any supplied probe vectors, as one block.
    """
    astar_a = pair.astar @ pair.operator.matrix
    metric = pair.operator.metric
    n = astar_a.shape[0]
    gram = metric.gram
    basis = metric.frame_inv  # columns are H-orthonormal

    # one block: the basis columns, then the probes, as rows
    us = np.vstack([basis.T, as_matrix(probes)]) if len(probes) else basis.T
    den = gram_inner_rows(gram, us, us).real
    num = gram_inner_rows(gram, us @ astar_a.T, us).real
    pos = den > 0.0
    accretive_min = float((num[pos] / den[pos]).min()) if pos.any() else 0.0

    second = np.linalg.solve(gram, herm(astar_a) @ gram)
    ns_resid = float(np.linalg.norm(second - astar_a)) / (1.0 + float(np.linalg.norm(astar_a)))

    inv_op = np.linalg.solve(np.eye(n) + astar_a, np.eye(n, dtype=np.complex128))
    inverse_norm = float(np.linalg.norm(metric.chol_h @ inv_op @ basis, 2))
    return AdjointAxioms(
        accretive_min=accretive_min,
        natural_selfadjoint_residual=ns_resid,
        inverse_norm=inverse_norm,
    )


def _frame_svd(op: BanachOperator) -> SvdResult:
    """SVD of the frame matrix L* A inv(L*), whose Euclidean geometry is
    the operator's metric."""
    m = op.metric
    return svd(m.chol_h @ op.matrix @ m.frame_inv)


def _store_h_polar(op: BanachOperator, p: PolarDecomposition, tols: Tolerances) -> PolarDecomposition:
    """Pull the frame polar ``p`` back to the lp coordinates and store it
    on the operator as its H-polar for ``tols``."""
    m = op.metric
    pull = lambda x: m.frame_inv @ x @ m.chol_h
    gp = op._polars[tols] = replace(p, U=pull(p.U), T=pull(p.T), Tbar=pull(p.Tbar))
    return gp


def h_polar(op: BanachOperator, *, tols: Tolerances = DEFAULT) -> PolarDecomposition:
    """Polar decomposition A = U T = Tbar U in the operator's metric, via
    the Cholesky frame: T and Tbar are H-selfadjoint H-PSD, U an
    H-partial-isometry; rank, tol and threshold are the frame's.

    Computed once per operator and tolerance set: later calls with equal
    ``tols`` return the same read-only :class:`PolarDecomposition`, which
    every caller (the Baire study and approximant, the banach spectral
    measure) shares.
    """
    gp = op._polars.get(tols)
    return gp if gp is not None else _store_h_polar(op, polar_from_svd(_frame_svd(op), tols=tols), tols)


def lambda_schedule(lambdas: Sequence[float]) -> tuple[float, ...]:
    """The resolvent parameters as floats, refused (ValueError) unless the
    schedule is non-empty, ascending, and every lam is positive and finite
    with a finite 1/lam: an empty schedule checks nothing, a lam whose
    1/lam overflows turns the 1/lam error bound into inf, which anything
    meets, and the rate checks read the rows in schedule order.
    """
    lams = tuple(float(x) for x in lambdas)
    if not lams:
        raise ValueError("lambda schedule is empty, so it would check nothing")
    for lam in lams:
        if not (0.0 < lam < math.inf and math.isfinite(1.0 / lam)):  # also rejects NaN
            raise ValueError(f"lambda must be positive and finite with a finite 1/lambda, got {lam!r}")
    if sorted(lams) != list(lams):
        raise ValueError("lambda schedule must be ascending")
    return lams


@dataclass(frozen=True)
class ResolventProbe:
    """One resolvent approximant A_lam = lam A inv(lam I + T)."""

    lam: float
    resolvent: np.ndarray  # inv(lam I + T)
    a_lambda: np.ndarray
    polar: PolarDecomposition

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


def baire_approximant(op: BanachOperator, lam: float, *, tols: Tolerances = DEFAULT) -> ResolventProbe:
    """Bounded approximant of A at a resolvent parameter lam that
    :func:`lambda_schedule` accepts (positive, lam and 1/lam finite)."""
    (lam,) = lambda_schedule((lam,))
    gp = h_polar(op, tols=tols)
    n = op.space.dim
    resolvent = np.linalg.solve(lam * np.eye(n) + gp.T, np.eye(n, dtype=np.complex128))
    a_lambda = lam * (op.matrix @ resolvent)
    return ResolventProbe(lam=lam, resolvent=resolvent, a_lambda=a_lambda, polar=gp)


def intertwining_residual(op: BanachOperator, probe: ResolventProbe) -> float:
    """Scaled residual of A inv(lam I + T) = inv(lam I + Tbar) A."""
    n = op.space.dim
    lhs = op.matrix @ probe.resolvent
    rhs = np.linalg.solve(probe.lam * np.eye(n) + probe.polar.Tbar, op.matrix)
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
    Rows come back in schedule order, which must be valid for
    :func:`lambda_schedule` (non-empty and ascending). Each lambda costs
    one LU of lam I + T, solved against the phi columns only (at least
    one phi), and one product with A; no n x n resolvent is formed. The rows
    depend on T and Tbar alone, which no threshold cuts, so the study
    takes no tolerances and shares the operator's default H-polar. A
    bound that overflows at the smallest lambda is refused (ValueError),
    since an infinite bound holds for any error.
    """
    lams = lambda_schedule(lambdas)
    if lams[-1] > 1e8:
        # beyond this the subtraction lam*A*R*phi - A*phi floors at eps*lam
        raise ValueError("lambda schedule capped at 1e8")
    m, p = op.metric, op.space.p
    gp = h_polar(op)
    n = op.space.dim
    # ||x||_p <= n^max(0, 1/p - 1/2) ||x||_2 and ||x||_2 <= ||x||_H / sqrt(min eig G)
    h_to_b = n ** max(0.0, 1.0 / p - 0.5) / math.sqrt(m.eig_min)
    phi_block = as_matrix(phis)  # rows are the phi
    a_phi = phi_block @ op.matrix.T
    bound = float((h_to_b * gram_norm_rows(m.gram, a_phi @ gp.Tbar.T)).max())  # times 1/lam
    if not math.isfinite(bound / lams[0]):  # an infinite bound holds for any error
        raise ValueError(f"error bound {bound!r} / lambda overflows at lambda {lams[0]!r}")
    rows = []
    for lam in lams:
        r_phi = np.linalg.solve(lam * np.eye(n) + gp.T, phi_block.T)  # columns are R phi
        err = abs_norm(np.abs(lam * (op.matrix @ r_phi).T - a_phi), p)
        rows.append(ConvergenceRow(lam=lam, max_error=float(err.max()), bound=bound / lam))
    return rows


@dataclass(frozen=True)
class BanachDeformedResult:
    measure: SpectralMeasure
    polar: PolarDecomposition
    reconstruction_residual: float


def banach_deformed_spectral(op: BanachOperator, *, tols: Tolerances = DEFAULT) -> BanachDeformedResult:
    """Deformed spectral measure of an operator in its Gram metric.

    The measure of the positive factor T is read off the SVD of the frame
    matrix L* A inv(L*) and pulled back, so its projectors are
    H-orthogonal (idempotent and selfadjoint for the Gram inner product,
    not the Euclidean one). The pull-back transforms the factors once:
    left by inv(L*), right by L*. The frame SVD is taken once: it also
    seeds the operator's :func:`h_polar` when none is stored for ``tols``,
    and an H-polar already stored is reused as it is.
    """
    dec = _frame_svd(op)
    gp = op._polars.get(tols)
    p = polar_from_svd(dec, tols=tols) if gp is None else None
    rank = gp.rank if p is None else p.rank
    e_frame = measure_from_svd(dec.sigma, dec.right, rank, tols=tols)
    del dec  # released before the pull-back products
    if p is not None:
        gp = _store_h_polar(op, p, tols)
        del p
    m = op.metric
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

    The operator A acts on lr with the Hilbert metric of the dual pairing,
    Gram G = inv(J0). In that metric the adjoint has the closed form
    A* = J0 A^H inv(J0); the demo pairs A with it and runs the generic
    contract and axiom checks on that pair, then applies the closed form
    twice for the involution. ``r`` selects the space (it must lie in
    (1, inf)) and the lr norm of the reported residual; the adjoint
    formula itself is r-independent.
    """
    j0 = dirichlet_laplacian(n)
    eye = np.eye(n, dtype=np.complex128)
    if a is None:
        a = eye.copy()
    a = as_matrix(a, square=True)
    if a.shape[0] != n:
        raise BadGrid(f"operator is {a.shape[0]}x{a.shape[1]}, grid has {n} interior points")
    j0_inv = np.linalg.solve(j0, eye)
    op = BanachOperator(a, GramMetric((j0_inv + herm(j0_inv)) / 2.0), LpSpace(n, r))
    pair = AdjointPair(op, j0 @ herm(a) @ j0_inv)  # closed form of the metric adjoint

    # contract pairs as two row blocks: basis pairs (e_i, e_j), i, j < 6,
    # then each probe against the next (the last against e_0)
    basis = eye[: min(n, 6)]
    us = np.repeat(basis, len(basis), axis=0)
    vs = np.tile(basis, (len(basis), 1))
    if len(probes):
        block = as_matrix(probes)
        us = np.vstack([us, block])
        vs = np.vstack([vs, block[1:], eye[:1]])
    scale = 1.0 + float(np.linalg.norm(a))
    worst = float(pair.contract_rows(us, vs).max()) / scale

    astar2 = j0 @ herm(pair.astar) @ j0_inv
    involution = float(np.linalg.norm(astar2 - a)) / scale

    axioms = adjoint_axioms(pair, probes=probes)

    residual_r = max(vnorm(astar2[:, j] - a[:, j], r) for j in range(n)) / scale
    return LaplacianDemoReport(
        n=n,
        r=r,
        contract_residual=worst,
        involution_residual=involution,
        accretive_min=axioms.accretive_min,
        natural_selfadjoint_residual=axioms.natural_selfadjoint_residual,
        inverse_norm=axioms.inverse_norm,
        astar=pair.astar,
        residual_r_norm=residual_r,
    )
