"""Dense complex linear-algebra kernel.

Matrices and vectors are plain ``numpy`` arrays of ``complex128``; the
validators below enforce the construction invariants (finiteness, shape)
at every entry point, and decomposition results are returned as frozen
dataclasses whose arrays are marked read-only. Factorizations are backed
by LAPACK through ``numpy.linalg``; the accuracy contracts asserted by the
test suite are what this module promises, not any particular algorithm.
``svd``, ``hermitian_eigen``, ``fro`` and ``herm`` also take a stack of
matrices (..., m, n), with results equal bit for bit to each matrix's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidInput,
    InvalidP,
    NotHermitian,
    NotSquare,
)

__all__ = [
    "EigenSystem",
    "SvdResult",
    "as_matrix",
    "as_stack",
    "as_vector",
    "hermitian_eigen",
    "svd",
    "vnorm",
    "abs_norm",
    "fro",
    "gram_inner_rows",
    "gram_norm_rows",
    "herm",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_stack(a, square: bool = False) -> np.ndarray:
    """Validate and convert to a complex128 matrix or stack of matrices,
    shape (..., m, n), with finite entries."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim < 2 or m.shape[-2] < 1 or m.shape[-1] < 1:
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise InvalidInput("matrix entries must be finite")
    if square and m.shape[-2] != m.shape[-1]:
        raise NotSquare(f"expected a square matrix, got {m.shape[-2]}x{m.shape[-1]}")
    return m


def as_matrix(a, square: bool = False) -> np.ndarray:
    """Validate and convert to a complex128 matrix (finite entries, 2-D)."""
    if np.ndim(a) != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {np.shape(a)}")
    return as_stack(a, square)


def as_vector(v) -> np.ndarray:
    x = np.array(v, dtype=np.complex128)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x.view(np.float64))):
        raise InvalidInput("vector entries must be finite")
    return x


def herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return m.conj().swapaxes(-1, -2)


def fro(m: np.ndarray) -> float | np.ndarray:
    """Unchecked Frobenius norm of a matrix (a float) or of each of a stack:
    ``np.linalg.norm``'s two dot products, so equal to it bit for bit."""
    flat = np.ascontiguousarray(m).reshape(*m.shape[:-2], 1, -1)
    re, im = flat.real, flat.imag
    out = np.sqrt((re @ re.mT + im @ im.mT)[..., 0, 0])
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (real, ascending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        _frozen(self.values)
        _frozen(self.vectors)

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values[..., None, :]) @ herm(self.vectors)


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
        return (self.left * self.sigma[..., None, :]) @ herm(self.right)


def hermitian_eigen(m, *, tols: Tolerances = DEFAULT) -> EigenSystem:
    """Diagonalize a Hermitian matrix, or each matrix of a stack in one call.

    The accepted relative Hermiticity defect is
    ``||M - M*||_F <= tols.hermitian_tol() * ||M||_F``; the symmetrized
    matrix ``(M + M*)/2`` is what gets diagonalized.

    Raises NotSquare / NotHermitian.
    """
    m = as_stack(m, square=True)
    limit = tols.hermitian_tol()
    scale, defect = np.asarray(fro(m)), np.asarray(fro(m - herm(m)))
    bad = defect > limit * np.maximum(scale, 1e-300)
    if bad.any():
        k = np.argmax(bad)  # the first matrix of a stack that fails
        raise NotHermitian(
            f"Hermiticity defect {defect.flat[k]:.3e} exceeds {limit:.1e} * ||M|| = {limit * scale.flat[k]:.3e}"
        )
    w, v = np.linalg.eigh((m + herm(m)) / 2.0)
    return EigenSystem(values=np.asarray(w, dtype=np.float64), vectors=v)


def svd(m) -> SvdResult:
    """Full SVD of a rectangular matrix, or of a stack in one call (thin form)."""
    m = as_stack(m)
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
    block (or a stack of them) one norm per row (as an array), each equal
    bit for bit to the norm of that row alone. A non-finite entry gives a
    non-finite norm.
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
            root = np.fromiter(map(pow, sums.ravel().tolist(), [1.0 / p] * sums.size), float).reshape(sums.shape)
            out = top * root
    return float(out) if out.ndim == 0 else out


def gram_inner_rows(gram: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Unchecked ``v_i* G u_i`` for each row pair of two k×n blocks."""
    return (vs.conj() * (us @ gram.T)).sum(axis=-1)


def gram_norm_rows(gram: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Unchecked ``sqrt(max(Re u_i* G u_i, 0))`` for each row of a k×n block."""
    return np.sqrt(np.maximum(gram_inner_rows(gram, us, us).real, 0.0))
