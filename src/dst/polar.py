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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, NotSquare
from .linalg import SvdResult, as_matrix, herm, svd

__all__ = ["PolarDecomposition", "polar_decompose", "isometry_from_svd", "polar_from_svd", "intertwining_check"]


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + herm(m)) / 2.0


@dataclass(frozen=True)
class PolarDecomposition:
    """Factors of A = U T = Tbar U.

    U:         partial isometry, zero on ker(T)
    T:         Hermitian PSD factor (A*A)^(1/2)
    Tbar:      Hermitian PSD factor (AA*)^(1/2)
    rank:      number of singular values above the threshold
    tol:       relative rank tolerance actually used
    threshold: absolute singular-value cutoff, tol * sigma_max
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


def polar_decompose(a, *, tols: Tolerances = DEFAULT) -> PolarDecomposition:
    """Polar-decompose a square matrix via its SVD (see :func:`polar_from_svd`)."""
    return polar_from_svd(svd(as_matrix(a, square=True)), tols=tols)


def isometry_from_svd(dec: SvdResult, *, tols: Tolerances = DEFAULT) -> tuple[np.ndarray, int, float, float]:
    """The partial isometry of a square matrix from its SVD A = W S V*.

    Returns (U, rank, tol, threshold) with U = W P_r V*, where P_r zeroes
    singular values sigma_i <= threshold = tol * sigma_max. The relative
    cutoff ``tol`` is ``tols.rank_threshold_rel(n)``: ``rank_rel``, or
    n*eps when that is None, times ``scale``.
    """
    if dec.left.shape != dec.right.shape:
        raise NotSquare(f"SVD of a non-square matrix: W is {dec.left.shape}, V is {dec.right.shape}")
    n = dec.sigma.shape[0]
    rel = tols.rank_threshold_rel(n)
    sigma_max = float(dec.sigma[0]) if n else 0.0
    threshold = rel * sigma_max
    rank = int(np.count_nonzero(dec.sigma > threshold))  # sigma descends: the first rank columns
    u = dec.left[:, :rank] @ herm(dec.right[:, :rank])
    return u, rank, rel, threshold


def polar_from_svd(dec: SvdResult, *, tols: Tolerances = DEFAULT) -> PolarDecomposition:
    """Polar factors of a square matrix from its SVD A = W S V*.

    U, rank and threshold come from :func:`isometry_from_svd`; T = V S V*
    and Tbar = W S W*. The result does not keep ``dec``; callers that
    also want the spectral resolution of T read it off ``dec`` itself.
    """
    u, rank, rel, threshold = isometry_from_svd(dec, tols=tols)
    t = _hermitize((dec.right * dec.sigma) @ herm(dec.right))
    tbar = _hermitize((dec.left * dec.sigma) @ herm(dec.left))
    return PolarDecomposition(U=u, T=t, Tbar=tbar, rank=rank, tol=rel, threshold=threshold)


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
