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

The :class:`~dst.spectral.PolarDecomposition` that ``polar_decompose``
returns is defined next to the spectral measures, because the one SVD it
keeps gives the deformed measure F = U E_T as well as the factors: its
``measure``, read off W and V with no U formed, is what ``deformed_of``
returns. ``polar_decompose`` also takes a stack of matrices, with one
LAPACK call for the stack; ``rank`` and ``threshold`` become arrays.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch
from .linalg import as_matrix, herm, svd
from .spectral import PolarDecomposition

__all__ = ["PolarDecomposition", "polar_decompose", "intertwining_check"]


def polar_decompose(a, *, tols: Tolerances = DEFAULT) -> PolarDecomposition:
    """Polar-decompose a square matrix (or stack) via one SVD; see
    :class:`~dst.spectral.PolarDecomposition` for the views it forms."""
    return PolarDecomposition.from_svd(svd(a), tols=tols)


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
