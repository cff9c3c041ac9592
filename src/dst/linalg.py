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
    "vnorm",
    "abs_norm",
    "gram_inner_rows",
    "gram_norm_rows",
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


def hermitian_eigen(m, *, tols: Tolerances = DEFAULT) -> EigenSystem:
    """Diagonalize a Hermitian matrix.

    The accepted relative Hermiticity defect is
    ``||M - M*||_F <= tols.hermitian_tol() * ||M||_F``; the symmetrized
    matrix ``(M + M*)/2`` is what gets diagonalized.

    Raises NotSquare / NotHermitian.
    """
    m = as_matrix(m, square=True)
    limit = tols.hermitian_tol()
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


def vnorm(v, p: float) -> float:
    """lp norm of a vector, p >= 1 or math.inf."""
    x = as_vector(v)
    if p != math.inf and p < 1:
        raise InvalidP(f"p must be >= 1 or inf, got {p}")
    return abs_norm(np.abs(x), p)


def abs_norm(a: np.ndarray, p: float) -> float | np.ndarray:
    """Unchecked kernel of :func:`vnorm`, from the moduli ``a = |x|``.

    Reduces over the last axis: a vector of moduli gives a float, a k×n
    block one norm per row (as an array), each equal bit for bit to the
    norm of that row alone. A non-finite entry gives a non-finite norm.
    """
    if p == math.inf:
        out = a.max(axis=-1)
    elif p == 1:
        out = a.sum(axis=-1)
    else:
        # rescale so powers neither overflow nor underflow; zero rows stay 0
        top = a.max(axis=-1)
        b = a / np.where(top == 0.0, 1.0, top)[..., None]
        if p == 2:
            out = top * np.sqrt((b * b).sum(axis=-1))
        else:
            # the root per row as a scalar power: the array power can round
            # differently in the last bit
            sums = (b**p).sum(axis=-1)
            root = sums ** (1.0 / p) if sums.ndim == 0 else np.array([s ** (1.0 / p) for s in sums.tolist()])
            out = top * root
    return float(out) if out.ndim == 0 else out


def gram_inner_rows(gram: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Unchecked ``v_i* G u_i`` for each row pair of two k×n blocks."""
    return (vs.conj() * (us @ gram.T)).sum(axis=-1)


def gram_norm_rows(gram: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Unchecked ``sqrt(max(Re u_i* G u_i, 0))`` for each row of a k×n block."""
    return np.sqrt(np.maximum(gram_inner_rows(gram, us, us).real, 0.0))
