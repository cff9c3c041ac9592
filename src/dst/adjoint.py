"""Adjoints, polar decompositions, resolvent approximants, and spectral
measures on an lp space carrying an embedded Hilbert inner product.

Everything here reduces to one trick: factor the Gram as G = L L*, move to
the frame A~ = L* A inv(L*), where the constructed inner product becomes
the Euclidean one, run the Euclidean machinery, and pull back. In
coordinates the adjoint is

    A* = inv(G) A^H G

which is the unique matrix satisfying the defining contract
(A u, v)_H = (u, A* v)_H; all the axioms (A*A accretive, (A*A)* = A*A,
||inv(I + A*A)||_H <= 1) follow from it. Only the :class:`GramMetric`
applies G, L*, inv(L*) or inv(G) (``to_frame``, ``from_frame``,
``adjoint_of``, ``inner_rows``, ...); a diagonal Gram, such as that of the
canonical-seed embedding, applies them as O(n^2) scalings rather than
O(n^3) products and solves, with bit-identical results.

The resolvent approximant A_lam = lam A inv(lam I + T), built from the
positive polar factor T in the embedded metric, converges to A at rate
1/lam and satisfies the algebraic identity

    A_lam = lam U - lam^2 U inv(lam I + T)

together with the intertwining A inv(lam I + T) = inv(lam I + Tbar) A.

An operator holds only what this needs: its matrix, the GramMetric of G
and the lp space, which answers every norm question. A KuelbsEmbedding
is one way to build that metric (``banach_operator`` reads both off it);
the Dirichlet-Laplacian demo uses another, the Gram inv(J0) of the
discrete 1-D Laplacian J0 (the metric of the dual Sobolev pairing). The
demo takes the same generic ``adjoint`` and ``adjoint_metrics`` as any
other operator; the closed form A* = J0 A^H inv(J0) of that metric is
kept only as a cross-check against the generic A*.

An operator's matrix may be a stack of matrices; every operator function
but ``baire_convergence_study`` then takes one LAPACK call per step for
the stack and gives each residual or norm as an array over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import BadGrid, DimensionMismatch, InvalidInput
from .kuelbs import GramMetric, KuelbsEmbedding, LpSpace
from .linalg import as_matrix, as_stack, fro, herm, svd
from .rng import Rng
from .spectral import PolarDecomposition, SpectralMeasure

__all__ = [
    "BanachOperator",
    "AdjointPair",
    "AdjointAxioms",
    "ResolventProbe",
    "ConvergenceRow",
    "BanachDeformedResult",
    "adjoint",
    "adjoint_axioms",
    "adjoint_metrics",
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
    :func:`h_polar` has computed it, and only :func:`h_polar` writes or
    reads that memo; matrix, metric and space are frozen, so the stored
    result never goes stale.
    """

    matrix: np.ndarray
    metric: GramMetric
    space: LpSpace
    _polars: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m, n = self.matrix, self.space.dim
        if m.shape[-2] != m.shape[-1] or m.shape[-1] != n:
            raise DimensionMismatch(f"operator {m.shape} does not act on a space of dim {n}")
        if self.metric.gram.shape[0] != n:
            raise DimensionMismatch(f"metric of dim {self.metric.gram.shape[0]} on a space of dim {n}")
        m.setflags(write=False)


def banach_operator(matrix, embedding: KuelbsEmbedding) -> BanachOperator:
    """The operator ``matrix`` (or stack of them) on the embedding's lp space and metric."""
    return BanachOperator(as_stack(matrix, square=True), embedding.metric, embedding.space)


@dataclass(frozen=True)
class AdjointPair:
    """An operator together with its metric adjoint."""

    operator: BanachOperator
    astar: np.ndarray

    def __post_init__(self):
        self.astar.setflags(write=False)

    def contract_rows(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Unchecked | (A u, v)_H - (u, A* v)_H | for each row pair of two k×n blocks."""
        m = self.operator.metric
        return np.abs(m.inner_rows(us @ self.operator.matrix.mT, vs) - m.inner_rows(us, vs @ self.astar.mT))


def adjoint(op: BanachOperator) -> AdjointPair:
    """Metric adjoint A* = inv(G) A^H G of a coordinate operator."""
    return AdjointPair(operator=op, astar=op.metric.adjoint_of(op.matrix))


@dataclass(frozen=True)
class AdjointAxioms:
    """Measured adjoint axioms.

    accretive_min                 -- min of Re(A*A u, u)_H / (u, u)_H
    natural_selfadjoint_residual  -- ||(A*A)* - A*A||_F / (1 + ||A*A||_F)
    inverse_norm                  -- H-operator norm of inv(I + A*A), inf
                                     when I + A*A is singular
    """

    accretive_min: float
    natural_selfadjoint_residual: float
    inverse_norm: float


def adjoint_axioms(pair: AdjointPair, *, probes: Sequence[np.ndarray] = ()) -> AdjointAxioms:
    """Check accretivity, natural selfadjointness, and the inverse bound.

    Two of the three are read off one frame matrix F = L* A*A inv(L*).
    The accretive minimum sweeps an H-orthonormal basis (the columns of
    inv(L*)), whose quotients (A*A u_i, u_i)_H are the entries Re F_ii,
    plus any supplied probe vectors; for a stack, ``probes`` holds one
    block of probe rows per matrix. The inverse bound is the H-norm of
    inv(I + A*A), which is 1 / sigma_min(I + F); a singular I + A*A has
    no bounded inverse, and its inverse_norm is inf.
    """
    astar_a = pair.astar @ pair.operator.matrix
    metric = pair.operator.metric
    frame = metric.to_frame(astar_a)

    accretive_min = np.diagonal(frame, axis1=-2, axis2=-1).real.min(axis=-1)
    if len(probes):
        us = as_stack(probes)  # the probes, as rows
        den = metric.inner_rows(us, us).real
        num = metric.inner_rows(us @ astar_a.mT, us).real
        pos = den > 0.0
        accretive_min = np.minimum(accretive_min, np.where(pos, num / np.where(pos, den, 1.0), np.inf).min(axis=-1))

    second = metric.adjoint_of(astar_a)
    ns_resid = fro(second - astar_a) / (1.0 + fro(astar_a))

    # I is added in the frame, where L* I inv(L*) = I holds exactly
    with np.errstate(divide="ignore"):
        inverse_norm = 1.0 / np.linalg.norm(np.eye(frame.shape[-1]) + frame, -2, axis=(-2, -1))
    return AdjointAxioms(
        accretive_min=accretive_min,
        natural_selfadjoint_residual=ns_resid,
        inverse_norm=inverse_norm,
    )


def adjoint_metrics(pair: AdjointPair, draws: np.ndarray) -> dict[str, float | np.ndarray]:
    """Contract, involution and axiom metrics of one metric adjoint pair.

    ``draws`` is a 16×n block of probe rows (of a stack, one block per
    matrix): six contract probe pairs (u, v), each residual scaled by
    1 + ||A||_F ||u|| ||v||, then four probes for the accretive minimum.
    The involution applies the generic :func:`adjoint` to A*.
    """
    op = pair.operator
    a = op.matrix
    scale_a = fro(a)
    us, vs = draws[..., 0:12:2, :], draws[..., 1:12:2, :]
    den = 1.0 + np.asarray(scale_a)[..., None] * np.linalg.norm(us, axis=-1) * np.linalg.norm(vs, axis=-1)
    contract = (pair.contract_rows(us, vs) / den).max(axis=-1)
    second = adjoint(BanachOperator(pair.astar, op.metric, op.space))
    ax = adjoint_axioms(pair, probes=draws[..., 12:, :])
    return {
        "contract": contract,
        "involution": fro(second.astar - a) / (1.0 + scale_a),
        "accretive_min": ax.accretive_min,
        "natural_selfadjoint": ax.natural_selfadjoint_residual,
        "inverse_norm": ax.inverse_norm,
    }


def h_polar(op: BanachOperator, *, tols: Tolerances = DEFAULT) -> PolarDecomposition:
    """Polar decomposition A = U T = Tbar U in the operator's metric, via
    the Cholesky frame: T and Tbar are H-selfadjoint H-PSD, U an
    H-partial-isometry; rank, tol and threshold are the frame's.

    One SVD of the frame matrix L* A inv(L*) builds it: ``sigma``, ``W``
    and ``V`` are the frame's, ``metric`` is the operator's, and every
    view (U, T, Tbar, the measure of T and its deformation) is formed on
    first read and pulled back to coordinates, e.g. T = inv(L*) V
    diag(sigma) V* L*.

    Computed once per operator and tolerance set: later calls with equal
    ``tols`` return the same read-only :class:`PolarDecomposition`, which
    the Baire study and approximant and :func:`banach_deformed_spectral`
    share. This is the only writer of the operator's polar memo.
    """
    gp = op._polars.get(tols)
    if gp is None:
        frame = svd(op.metric.to_frame(op.matrix))
        gp = op._polars[tols] = PolarDecomposition.from_svd(frame, tols=tols, metric=op.metric)
    return gp


def lambda_schedule(lambdas: Sequence[float]) -> tuple[float, ...]:
    """The resolvent parameters as floats, refused (InvalidInput) unless the
    schedule is non-empty, ascending, and every lam is positive and finite
    with a finite 1/lam: an empty schedule checks nothing, a lam whose
    1/lam overflows turns the 1/lam error bound into inf, which anything
    meets, and the rate checks read the rows in schedule order.
    """
    lams = tuple(float(x) for x in lambdas)
    if not lams:
        raise InvalidInput("lambda schedule is empty, so it would check nothing")
    for lam in lams:
        if not (0.0 < lam < math.inf and math.isfinite(1.0 / lam)):  # also rejects NaN
            raise InvalidInput(f"lambda must be positive and finite with a finite 1/lambda, got {lam!r}")
    if sorted(lams) != list(lams):
        raise InvalidInput("lambda schedule must be ascending")
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
        scale = 1.0 + fro(self.a_lambda) + self.lam * fro(u) + self.lam**2 * fro(ur)
        return fro(self.a_lambda - algebraic) / scale


def baire_approximant(op: BanachOperator, lam: float, *, tols: Tolerances = DEFAULT) -> ResolventProbe:
    """Bounded approximant of A at a resolvent parameter lam that
    :func:`lambda_schedule` accepts (positive, lam and 1/lam finite).

    The resolvent is inv(L*) V diag(1/(lam + sigma)) V* L*, from the
    spectral resolution of T that the H-polar keeps; nothing is solved.
    """
    (lam,) = lambda_schedule((lam,))
    gp = h_polar(op, tols=tols)
    resolvent = op.metric.from_frame((gp.V / (lam + gp.sigma)[..., None, :]) @ herm(gp.V))
    a_lambda = lam * (op.matrix @ resolvent)
    return ResolventProbe(lam=lam, resolvent=resolvent, a_lambda=a_lambda, polar=gp)


def intertwining_residual(op: BanachOperator, probe: ResolventProbe) -> float:
    """Scaled residual of A inv(lam I + T) = inv(lam I + Tbar) A."""
    n = op.space.dim
    lhs = op.matrix @ probe.resolvent
    rhs = np.linalg.solve(probe.lam * np.eye(n) + probe.polar.Tbar, op.matrix)
    return fro(lhs - rhs) / (1.0 + fro(lhs))


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
    :func:`lambda_schedule` (non-empty and ascending). The resolvent
    inv(lam I + T) = inv(L*) V diag(1/(lam + sigma)) V* L* comes from the
    H-polar's spectral resolution of T: V* L* phi is formed once, and each
    lambda costs a rescaling, a product with inv(L*) V and one with A,
    against the phi columns only (at least one phi); nothing is solved and
    no n x n resolvent is formed. The rows depend on T and Tbar alone,
    which no threshold cuts, so the study takes no tolerances and shares
    the operator's default H-polar. A
    bound that overflows at the smallest lambda is refused (InvalidInput),
    since an infinite bound holds for any error.
    """
    lams = lambda_schedule(lambdas)
    if lams[-1] > 1e8:
        # beyond this the subtraction lam*A*R*phi - A*phi floors at eps*lam
        raise InvalidInput("lambda schedule capped at 1e8")
    m, space = op.metric, op.space
    gp = h_polar(op)
    # ||x||_p <= l2_to_p ||x||_2 and ||x||_2 <= ||x||_H / sqrt(min eig G)
    h_to_b = space.l2_to_p / math.sqrt(m.eig_min)
    phi_block = as_matrix(phis)  # rows are the phi
    a_phi = phi_block @ op.matrix.T
    bound = float((h_to_b * m.norm_rows(a_phi @ gp.Tbar.T)).max())  # times 1/lam
    if not math.isfinite(bound / lams[0]):  # an infinite bound holds for any error
        raise InvalidInput(f"error bound {bound!r} / lambda overflows at lambda {lams[0]!r}")
    left, right = m.from_frame_factors(gp.V, herm(gp.V))
    v_phi = right @ phi_block.T  # columns are V* L* phi
    rows = []
    for lam in lams:
        r_phi = left @ (v_phi / (lam + gp.sigma)[:, None])  # columns are R phi
        err = space.norm_rows(lam * (op.matrix @ r_phi).T - a_phi)
        rows.append(ConvergenceRow(lam=lam, max_error=float(err.max()), bound=bound / lam))
    return rows


@dataclass(frozen=True)
class BanachDeformedResult:
    measure: SpectralMeasure
    reconstruction_residual: float | np.ndarray


def banach_deformed_spectral(op: BanachOperator, *, tols: Tolerances = DEFAULT) -> BanachDeformedResult:
    """Deformed spectral measure of an operator in its Gram metric: the
    ``measure`` of its :func:`h_polar`, so the
    :func:`~dst.spectral.deformed_of` of the frame matrix L* A inv(L*),
    pulled back.

    The frame isometry is pulled back as inv(L*) U L*, and the measure's
    factors once each, left by inv(L*) and right by L*, so its projectors
    are H-orthogonal (idempotent and selfadjoint for the Gram inner
    product, not the Euclidean one). T and Tbar are not formed. The
    H-polar comes from the operator's memo (and is stored there), so a
    caller that wants both the measure and the H-polar pays one SVD.
    """
    measure = h_polar(op, tols=tols).measure
    resid = fro(measure.reconstruct() - op.matrix) / (1.0 + fro(op.matrix))
    return BanachDeformedResult(measure=measure, reconstruction_residual=resid)


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


def dirichlet_laplacian_demo(
    n: int,
    r: float = 2.0,
    a=None,
    *,
    rng: Rng,
) -> tuple[AdjointPair, dict[str, float]]:
    """Adjoint demo on the discrete Dirichlet Laplacian J0.

    The operator A (default: the identity) acts on lr with the Hilbert
    metric of the dual pairing, Gram G = inv(J0). The demo pairs A with
    the generic :func:`adjoint` and scores the pair with
    :func:`adjoint_metrics`, drawing its probes from ``rng``. It adds
    ``closed_form``: the largest lr norm of a column of the generic A*
    minus the closed form J0 A^H inv(J0) of this metric, divided by
    1 + ||A||_F. ``r`` must lie in (1, inf).
    """
    j0 = dirichlet_laplacian(n)
    eye = np.eye(n, dtype=np.complex128)
    a = eye.copy() if a is None else as_matrix(a, square=True)
    if a.shape[0] != n:
        raise BadGrid(f"operator is {a.shape[0]}x{a.shape[1]}, grid has {n} interior points")
    j0_inv = np.linalg.solve(j0, eye)
    space = LpSpace(n, r)
    gram = (j0_inv + herm(j0_inv)) / 2.0
    gram.setflags(write=False)  # a fresh array: the metric may keep it uncopied
    pair = adjoint(BanachOperator(a, GramMetric(gram), space))
    metrics = adjoint_metrics(pair, rng.matrix(16, n))
    gap = space.norm_rows((pair.astar - j0 @ herm(a) @ j0_inv).T)  # one lr norm per column
    metrics["closed_form"] = float(gap.max()) / (1.0 + float(np.linalg.norm(a)))
    return pair, metrics
