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
from .errors import DimensionMismatch
from .linalg import as_matrix, herm, svd

__all__ = ["PolarDecomposition", "polar_decompose", "intertwining_check"]


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
    """Polar-decompose a square matrix via its SVD.

    With A = W S V*: T = V S V*, Tbar = W S W*, and U = W P_r V* where
    P_r zeroes singular values sigma_i <= tol * sigma_max. The relative
    cutoff ``tol`` is ``tols.rank_threshold_rel(n)``: ``rank_rel``, or
    n*eps when that is None, times ``scale``.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    rel = tols.rank_threshold_rel(n)
    dec = svd(a)
    sigma_max = float(dec.sigma[0]) if n else 0.0
    threshold = rel * sigma_max
    keep = dec.sigma > threshold
    rank = int(np.count_nonzero(keep))
    u = dec.left[:, keep] @ herm(dec.right[:, keep])
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
