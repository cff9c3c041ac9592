"""Polar decomposition A = U T = Tbar U with a genuine partial isometry.

``U`` is *not* forced to be unitary: singular directions whose singular
value falls at or below the rank threshold are annihilated, so ``U`` is the
canonical partial isometry with initial space range(T) and ``U* U`` is the
orthogonal projector onto it. This kernel convention is what keeps the
decomposition unique for a fixed threshold and what the deformed spectral
measure downstream relies on.

Near an exact rank boundary (sigma ~ threshold) the computed ``U`` is
tolerance-dependent; callers that care should pass
``tols=Tolerances(rank_rel=...)``.

Each function also takes a stack of matrices (or its SVD), with one
LAPACK call for the stack; ``rank`` and ``threshold`` become arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, NotSquare
from .linalg import SvdResult, as_matrix, as_stack, herm, svd

if TYPE_CHECKING:
    from .kuelbs import GramMetric

__all__ = ["PolarDecomposition", "polar_decompose", "isometry_from_svd", "polar_from_svd", "intertwining_check"]


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + herm(m)) / 2.0


@dataclass(frozen=True)
class PolarDecomposition:
    """Factors of A = U T = Tbar U.

    U:         partial isometry, zero on ker(T)
    Tbar:      Hermitian PSD factor (AA*)^(1/2)
    sigma:     singular values of A, descending
    V:         right singular vectors of A (columns), so T = V diag(sigma) V*
    rank:      number of singular values above the threshold
    tol:       relative rank tolerance actually used
    threshold: absolute singular-value cutoff, tol * sigma_max
    metric:    for an H-polar, the GramMetric whose frame sigma and V
               belong to (T is V diag(sigma) V* pulled back); else None

    T, the Hermitian PSD factor (A*A)^(1/2), is kept as its spectral
    resolution (sigma, V) and formed, read-only, on first read; later
    reads return the same array.
    """

    U: np.ndarray
    Tbar: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int | np.ndarray
    tol: float
    threshold: float | np.ndarray
    metric: GramMetric | None = None

    def __post_init__(self):
        for a in (self.U, self.Tbar, self.sigma, self.V):
            a.setflags(write=False)

    @cached_property
    def T(self) -> np.ndarray:
        t = _hermitize((self.V * self.sigma[..., None, :]) @ herm(self.V))
        if self.metric is not None:
            t = self.metric.from_frame(t)
        t.setflags(write=False)
        return t


def polar_decompose(a, *, tols: Tolerances = DEFAULT) -> PolarDecomposition:
    """Polar-decompose a square matrix via its SVD (see :func:`polar_from_svd`)."""
    return polar_from_svd(svd(as_stack(a, square=True)), tols=tols)


def isometry_from_svd(dec: SvdResult, *, tols: Tolerances = DEFAULT) -> tuple[np.ndarray, int, float, float]:
    """The partial isometry of a square matrix from its SVD A = W S V*.

    Returns (U, rank, tol, threshold) with U = W P_r V*, where P_r zeroes
    singular values sigma_i <= threshold = tol * sigma_max. The relative
    cutoff ``tol`` is ``tols.rank_threshold_rel(n)``: ``rank_rel``, or
    n*eps when that is None, times ``scale``. A stack of one rank forms
    every U in one product, any other stack each U from its own views.
    """
    if dec.left.shape != dec.right.shape:
        raise NotSquare(f"SVD of a non-square matrix: W is {dec.left.shape}, V is {dec.right.shape}")
    rel = tols.rank_threshold_rel(dec.sigma.shape[-1])
    threshold = rel * dec.sigma[..., 0]
    rank = np.count_nonzero(dec.sigma > threshold[..., None], axis=-1)  # sigma descends: the first rank columns
    if rank.ndim == 0:
        threshold, rank = float(threshold), int(rank)
    if np.all(rank == np.max(rank)):
        r = int(np.max(rank))
        u = dec.left[..., :r] @ herm(dec.right[..., :r])
    else:
        u = np.stack([w[:, :r] @ herm(v[:, :r]) for w, v, r in zip(dec.left, dec.right, rank.tolist())])
    return u, rank, rel, threshold


def polar_from_svd(dec: SvdResult, *, tols: Tolerances = DEFAULT) -> PolarDecomposition:
    """Polar factors of a square matrix from its SVD A = W S V*.

    U, rank and threshold come from :func:`isometry_from_svd`; Tbar =
    W S W*. The result keeps ``dec``'s S and V as the spectral resolution
    of T = V S V*, which it forms on first read.
    """
    u, rank, rel, threshold = isometry_from_svd(dec, tols=tols)
    tbar = _hermitize((dec.left * dec.sigma[..., None, :]) @ herm(dec.left))
    return PolarDecomposition(U=u, Tbar=tbar, sigma=dec.sigma, V=dec.right, rank=rank, tol=rel, threshold=threshold)


def intertwining_check(p: PolarDecomposition, a) -> float:
    """Relative residual of the commutation identity A A* U = U A* A.

    Returns ||A A* U - U A* A||_F / (1 + ||A||_F^2); expected at the
    rounding level whenever ``p`` was produced from ``a``.
    """
    a = as_matrix(a, square=True)
    if p.U.shape != a.shape:
        raise DimensionMismatch(
            f"decomposition is {p.U.shape[0]}x{p.U.shape[1]}, matrix is {a.shape[0]}x{a.shape[1]}"
        )
    lhs = a @ herm(a) @ p.U
    rhs = p.U @ herm(a) @ a
    scale = 1.0 + float(np.linalg.norm(a)) ** 2
    return float(np.linalg.norm(lhs - rhs)) / scale
