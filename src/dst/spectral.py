"""Discrete spectral measures, their deformation by a partial isometry,
and the resulting functional calculus.

A Hermitian matrix H carries the atomic projection-valued measure
E = {(lambda_i, P_i)}; pushing E through the polar isometry U of an
arbitrary square A (with E taken from the positive factor T) produces the
deformed measure F = {(lambda_i, U P_i)} supported on [0, inf). Summation
against F recovers A itself from nonnegative atoms only, and

    integrate(g, F) = U g(T)

is the calculus these measures implement. Note this is *not* the
holomorphic calculus: for A = diag(-2, -1), g(lambda) = lambda^2 yields
U T^2 = diag(-4, -1), not A^2.

Every measure is stored factored, as an orthonormal basis split into
clusters: with H = V diag(lambda) V*, E keeps (V, V*) and F keeps
(U V, V*), so a sum against a measure is one (left * w) @ right
contraction, O(n^3) time and O(n^2) memory (the eigendecomposition route
to f(A), Higham, *Functions of Matrices*, ch. 4). Dense per-atom matrices
are formed only when ``atoms`` is read.

The measure of T needs no eigensolver: the SVD A = W S V* behind the polar
decomposition already is its spectral resolution T = V S V*.
``deformed_of`` reads it off that one SVD (``deformation_from_svd``);
``spectral_measure`` diagonalizes a general Hermitian matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, NegativeSupport
from .gexpr import GExpr, evaluate
from .gexpr import parse as parse_g
from .linalg import SvdResult, as_matrix, as_vector, herm, hermitian_eigen, svd
from .polar import isometry_from_svd

__all__ = [
    "SpectralMeasure",
    "QuadraticFormResult",
    "spectral_measure",
    "deformation_from_svd",
    "deform",
    "deformed_of",
    "integrate",
    "quadratic_form",
    "variation",
]


@dataclass(frozen=True)
class SpectralMeasure:
    """Atoms (lambda_i, M_i), lambdas strictly increasing, stored factored.

    Columns ``bounds[i]:bounds[i+1]`` of ``left`` (and the same rows of
    ``right``) belong to atom i, so M_i = left[:, c_i] @ right[c_i, :].

    A plain measure has left = V and right = V*: the M_i are Hermitian
    orthogonal projectors P_i summing to the identity. Measures produced
    in a Gram metric satisfy the same identities with the Gram-adjoint in
    place of the Euclidean one (they are still idempotent and still sum
    to the identity).

    A deformed measure F = U E has left = U E.left, the same ``right``,
    lambda_i >= 0, and carries ``U`` and its ``source`` E. All atoms of
    the source are kept, including a numerically-zero cluster when A is
    rank deficient; ``support`` excludes atoms at or below ``support_tol``
    because U annihilates ker(T) and those atoms carry no mass. The
    measure makes no uniqueness claim beyond this canonical construction.
    """

    lambdas: tuple[float, ...]
    bounds: tuple[int, ...]
    left: np.ndarray
    right: np.ndarray
    support_tol: float = 0.0
    U: np.ndarray | None = None
    source: SpectralMeasure | None = None

    def __post_init__(self):
        for a in (self.left, self.right, self.U):
            if a is not None:
                a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.left.shape[0]

    @property
    def support(self) -> tuple[float, ...]:
        return tuple(lam for lam in self.lambdas if lam > self.support_tol)

    @property
    def atoms(self) -> tuple[tuple[float, np.ndarray], ...]:
        """(lambda_i, M_i) with every M_i a new dense matrix.

        This costs O(n^3) memory; sums against the measure should go
        through ``integrate`` or ``reconstruct`` instead.
        """
        b = self.bounds
        return tuple(
            (lam, self.left[:, lo:hi] @ self.right[lo:hi]) for lam, lo, hi in zip(self.lambdas, b, b[1:])
        )

    def _contract(self, values, phi=None) -> np.ndarray:
        """Sum_i values[i] M_i, or that sum applied to the vector phi."""
        w = np.repeat(values, np.diff(self.bounds))
        if phi is None:
            return (self.left * w) @ self.right
        return self.left @ (w * (self.right @ phi))

    def atom_vectors(self, phi) -> np.ndarray:
        """Rows M_i phi, one per atom, without forming any M_i."""
        return np.add.reduceat(self.left * (self.right @ phi), self.bounds[:-1], axis=1).T

    def reconstruct(self) -> np.ndarray:
        return self._contract(self.lambdas)


def _cluster(vals: np.ndarray, rel: float, cut: int = 0) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Cluster bounds and atoms of ascending values.

    Neighbours within ``rel * (1 + |lambda|)`` of each other merge into
    one cluster whose atom is their mean; ``0 < cut < n`` forces a bound
    before index ``cut``.
    """
    n = vals.shape[0]
    split = np.diff(vals) > rel * (1.0 + np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])))
    if 0 < cut < n:
        split[cut - 1] = True
    bounds = (0, *(np.flatnonzero(split) + 1).tolist(), n)
    return bounds, tuple(float(np.mean(vals[lo:hi])) for lo, hi in zip(bounds, bounds[1:]))


def spectral_measure(h, *, tols: Tolerances = DEFAULT) -> SpectralMeasure:
    """Atomic spectral measure of a Hermitian matrix.

    Adjacent eigenvalues within ``tols.cluster_tol() * (1 + |lambda|)`` of
    each other merge into a single projector whose atom is their mean. The
    default keeps each projector well conditioned (the eigenvector basis
    inside a merged cluster is arbitrary); the price is that genuinely
    distinct eigenvalues closer than the tolerance are represented by one
    atom, so reconstruction degrades to the cluster width on such
    spectra. Pass ``tols=Tolerances(cluster_rel=...)`` with a smaller
    value when eigenvalue gaps below 1e-8 are meaningful.
    """
    es = hermitian_eigen(h, tols=tols)
    bounds, lambdas = _cluster(es.values, tols.cluster_tol())
    return SpectralMeasure(lambdas=lambdas, bounds=bounds, left=es.vectors, right=herm(es.vectors))


def deformation_from_svd(dec: SvdResult, *, tols: Tolerances = DEFAULT) -> tuple[np.ndarray, SpectralMeasure, float]:
    """What :func:`deform` takes, read off the SVD A = W S V* of a square
    matrix: the polar isometry U (``isometry_from_svd``), the spectral
    measure E of T = V S V*, and the rank threshold.

    E ascends and clusters by the rule of :func:`spectral_measure`, except
    that a cluster bound is forced at the rank cut: the columns of V past
    the rank span ker(T), which is its own atom (or atoms), and no atom
    straddles it.
    """
    u, rank, _, threshold = isometry_from_svd(dec, tols=tols)
    n = dec.sigma.shape[0]
    vecs = np.ascontiguousarray(dec.right[:, ::-1])
    bounds, lambdas = _cluster(dec.sigma[::-1], tols.cluster_tol(), cut=n - rank)
    return u, SpectralMeasure(lambdas=lambdas, bounds=bounds, left=vecs, right=herm(vecs)), threshold


def deform(u, e: SpectralMeasure, *, support_tol: float = 0.0, tols: Tolerances = DEFAULT) -> SpectralMeasure:
    """Push a nonnegative measure through a partial isometry: F = U E.

    ``e`` must be supported in [0, inf) up to roundoff (it normally comes
    from a PSD matrix); an atom below ``-support_rel * (1 + lambda_max)``
    raises NegativeSupport. Slightly negative atoms are clamped to 0.
    """
    u = as_matrix(u, square=True)
    if u.shape[0] != e.dim:
        raise DimensionMismatch(f"U is {u.shape[0]}x{u.shape[1]}, measure dim is {e.dim}")
    lam_min = e.lambdas[0]  # lambdas ascend
    if lam_min < -tols.support_tol() * (1.0 + max(abs(lam_min), abs(e.lambdas[-1]))):
        raise NegativeSupport(f"atom at lambda = {lam_min:.6e} is below zero")
    return SpectralMeasure(
        lambdas=tuple(max(lam, 0.0) for lam in e.lambdas),
        bounds=e.bounds,
        left=u @ e.left,
        right=e.right,
        support_tol=support_tol,
        U=u,
        source=e,
    )


def deformed_of(a, *, tols: Tolerances = DEFAULT) -> SpectralMeasure:
    """Canonical deformed measure of an arbitrary square matrix.

    One SVD A = W S V* gives the polar isometry U and the spectral
    measure E of the positive factor T = V S V* (``deformation_from_svd``);
    the result is ``deform(U, E)``, with no eigensolver on the way and T
    itself never formed. The support threshold is the polar rank cutoff,
    and the singular directions at or below it, which span ker(T), form
    their own atoms: a singular A keeps its zero cluster in ``source`` but
    reports only the nonzero spectrum of T as support.
    """
    u, e, threshold = deformation_from_svd(svd(as_matrix(a, square=True)), tols=tols)
    return deform(u, e, support_tol=threshold, tols=tols)


def _as_scalar_function(g) -> Callable[[float], complex]:
    if isinstance(g, str):
        ast = parse_g(g)
        return lambda lam: evaluate(ast, lam)
    if isinstance(g, GExpr):
        return lambda lam: evaluate(g, lam)
    if callable(g):
        return lambda lam: complex(g(lam))
    raise TypeError(f"g must be text, a parsed expression, or a callable; got {type(g)!r}")


def _phi_for(measure: SpectralMeasure, phi) -> np.ndarray:
    phi = as_vector(phi)
    if phi.shape[0] != measure.dim:
        raise DimensionMismatch(f"phi has dim {phi.shape[0]}, measure dim is {measure.dim}")
    return phi


def integrate(g, measure: SpectralMeasure, phi=None):
    """Sum g against a measure: Sum_i g(lambda_i) dM_i (optionally applied to phi).

    Works on plain and deformed measures. On a deformed measure this
    equals U g(T). Raises EvalError when g is undefined at an atom (for
    example log at lambda = 0 on a singular input).
    """
    fn = _as_scalar_function(g)
    values = np.array([fn(lam) for lam in measure.lambdas], dtype=np.complex128)
    return measure._contract(values, None if phi is None else _phi_for(measure, phi))


@dataclass(frozen=True)
class QuadraticFormResult:
    """Atom-wise terms lambda_i^2 * f(dM_i phi) and their sum.

    Terms are reported as complex numbers: against a deformed measure the
    atom-wise pairing need not be real or sign-definite.
    """

    lambdas: tuple[float, ...]
    terms: tuple[complex, ...]
    total: complex


def quadratic_form(measure: SpectralMeasure, phi, functional=None) -> QuadraticFormResult:
    """Quadratic form Sum_i lambda_i^2 * f(dM_i phi) of a measure, for a
    functional given as its coefficient row c, f(x) = c @ x.

    The default c = conj(phi) is the Euclidean pairing (dM_i phi, phi); the
    row conj(G phi) pairs in the inner product (x, y) = y* G x, and the row
    that ``steadman`` returns is the Steadman pairing.
    """
    phi = _phi_for(measure, phi)
    c = phi.conj() if functional is None else as_vector(functional)
    if c.shape[0] != measure.dim:
        raise DimensionMismatch(f"functional has dim {c.shape[0]}, measure dim is {measure.dim}")
    pairs = measure.atom_vectors(phi) @ c
    terms = tuple((lam**2) * complex(v) for lam, v in zip(measure.lambdas, pairs))
    return QuadraticFormResult(lambdas=measure.lambdas, terms=terms, total=complex(sum(terms)))


def variation(measure: SpectralMeasure, phi) -> float:
    """Total variation Sum_i ||dM_i phi||_2 of the atomized vector measure."""
    return float(np.linalg.norm(measure.atom_vectors(_phi_for(measure, phi)), axis=1).sum())
