"""Dense complex linear-algebra kernel.

Matrices and vectors are plain ``numpy`` arrays of ``complex128``; the
validators below enforce the construction invariants (finiteness, shape)
at every entry point, and decomposition results are returned as frozen
dataclasses whose arrays are marked read-only. Factorizations are backed
by LAPACK through ``numpy.linalg``; the accuracy contracts asserted by the
test suite are what this module promises, not any particular algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidP,
    NotHermitian,
    NotSquare,
)

__all__ = [
    "EigenSystem",
    "SvdResult",
    "as_matrix",
    "as_vector",
    "hermitian_eigen",
    "svd",
    "norm",
    "vnorm",
    "abs_norm",
    "herm",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and convert to a complex128 matrix (finite entries, 2-D)."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    if square and m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got {m.shape[0]}x{m.shape[1]}")
    return m


def as_vector(v) -> np.ndarray:
    x = np.array(v, dtype=np.complex128)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ValueError("vector entries must be finite")
    return x


def herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (real, ascending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        _frozen(self.values)
        _frozen(self.vectors)

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ herm(self.vectors)


@dataclass(frozen=True)
class SvdResult:
    """A = left @ diag(sigma) @ herm(right), sigma descending and nonnegative."""

    left: np.ndarray
    sigma: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        _frozen(self.left)
        _frozen(self.sigma)
        _frozen(self.right)

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.sigma) @ herm(self.right)


def hermitian_eigen(m, tol: float | None = None, *, tols: Tolerances = DEFAULT) -> EigenSystem:
    """Diagonalize a Hermitian matrix.

    ``tol`` bounds the accepted relative Hermiticity defect
    ``||M - M*||_F <= tol * ||M||_F`` (default from ``tols``); the
    symmetrized matrix ``(M + M*)/2`` is what gets diagonalized.

    Raises NotSquare / NotHermitian.
    """
    m = as_matrix(m, square=True)
    limit = tols.hermitian_tol() if tol is None else tol
    scale = np.linalg.norm(m)
    defect = np.linalg.norm(m - herm(m))
    if defect > limit * max(scale, 1e-300):
        raise NotHermitian(
            f"Hermiticity defect {defect:.3e} exceeds {limit:.1e} * ||M|| = {limit * scale:.3e}"
        )
    w, v = np.linalg.eigh((m + herm(m)) / 2.0)
    return EigenSystem(values=np.asarray(w, dtype=np.float64), vectors=v)


def svd(m) -> SvdResult:
    """Full SVD of a rectangular matrix (thin form)."""
    m = as_matrix(m)
    try:
        w, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return SvdResult(left=w, sigma=np.asarray(s, dtype=np.float64), right=herm(vh))


def norm(m, kind: str = "frobenius") -> float:
    """Matrix norm: 'frobenius' or 'operator2' (largest singular value)."""
    m = as_matrix(m)
    if kind == "frobenius":
        return float(np.linalg.norm(m))
    if kind == "operator2":
        return float(np.linalg.norm(m, 2))
    raise ValueError(f"unknown norm kind {kind!r}")


def vnorm(v, p: float) -> float:
    """lp norm of a vector, p >= 1 or math.inf."""
    x = as_vector(v)
    if p != math.inf and p < 1:
        raise InvalidP(f"p must be >= 1 or inf, got {p}")
    return abs_norm(np.abs(x), p)


def abs_norm(a: np.ndarray, p: float) -> float:
    """Unchecked kernel of :func:`vnorm`, from the moduli ``a = |x|``.

    A non-finite entry gives a non-finite norm.
    """
    if p == math.inf:
        return float(a.max())
    if p == 1:
        return float(a.sum())
    # rescale so powers neither overflow nor underflow
    top = float(a.max())
    if top == 0.0:
        return 0.0
    b = a / top
    if p == 2:
        return float(top * math.sqrt(float((b * b).sum())))
    return float(top * (((b**p).sum()) ** (1.0 / p)))
