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

Every measure is four arrays, an orthonormal basis split into clusters
(``left``, ``right``), the atom of each column and ``support_tol``: with
H = V diag(lambda) V*, E keeps (V, V*) and F keeps (U V, V*), so a sum
against a measure is one (left * w) @ right contraction, O(n^3) time and
O(n^2) memory (Higham, *Functions of Matrices*, ch. 4). Dense per-atom
matrices are formed only when ``atoms`` is read.

The SVD A = W S V* behind the polar decomposition already is the spectral
resolution T = V S V*, and U V = [W_r, 0]. So the one object that SVD
builds, :class:`PolarDecomposition`, lives here and carries the polar
factors U, T and Tbar, E_T (``source``) and F = U E_T (``measure``), each
formed from W, S and V on read, F with no U. ``deformed_of`` is its
``measure``; ``spectral_measure`` diagonalizes a Hermitian matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, NegativeSupport, NotSquare
from .gexpr import GExpr, compile_expr
from .gexpr import parse as parse_g
from .linalg import SvdResult, as_stack, as_vector, herm, hermitian_eigen, svd

if TYPE_CHECKING:
    from .kuelbs import GramMetric

__all__ = [
    "SpectralMeasure",
    "PolarDecomposition",
    "QuadraticFormResult",
    "spectral_measure",
    "deform",
    "deformed_of",
    "integrate",
    "quadratic_form",
    "variation",
]


@dataclass(frozen=True)
class SpectralMeasure:
    """Atoms (lambda_i, M_i), lambdas strictly increasing, stored factored.

    ``values[j]`` is the atom of column j of ``left`` (and row j of
    ``right``); the columns ``bounds[i]:bounds[i+1]`` of atom i are those
    sharing its value, so M_i = left[:, c_i] @ right[c_i, :].

    A plain measure has left = V and right = V*: the M_i are Hermitian
    orthogonal projectors P_i summing to the identity. Measures produced
    in a Gram metric satisfy the same identities with the Gram-adjoint in
    place of the Euclidean one (they are still idempotent and still sum
    to the identity).

    A deformed measure F = U E has left = U E.left, the same ``right``
    and lambda_i >= 0. All atoms of E are kept, including a numerically-
    zero cluster when A is rank deficient; ``support`` excludes atoms at
    or below ``support_tol`` because U annihilates ker(T) and those atoms
    carry no mass. The measure makes no uniqueness claim beyond this
    canonical construction.

    A stack of measures has leading axes on every array and on
    ``support_tol``; its atoms, ``bounds`` and ``support`` run over each
    measure in turn, the support of each above that measure's own
    ``support_tol``.
    """

    values: np.ndarray
    left: np.ndarray
    right: np.ndarray
    support_tol: float | np.ndarray = 0.0

    def __post_init__(self):
        for a in (self.values, self.left, self.right):
            a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.left.shape[-2]

    @property
    def bounds(self) -> tuple[int, ...]:
        return (*np.flatnonzero(self._starts()).tolist(), self.values.size)

    @property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(self.values[self._starts()].tolist())

    @property
    def support(self) -> tuple[float, ...]:
        above = self.values > np.asarray(self.support_tol)[..., None]
        return tuple(self.values[self._starts() & above].tolist())

    @property
    def atoms(self) -> tuple[tuple[float, np.ndarray], ...]:
        """(lambda_i, M_i) with every M_i a new dense matrix.

        This costs O(n^3) memory; sums against the measure should go
        through ``integrate`` or ``reconstruct`` instead.
        """
        b, n = self.bounds, self.dim
        left, right = np.moveaxis(self.left, -2, 0).reshape(n, -1), self.right.reshape(-1, n)
        return tuple((lam, left[:, lo:hi] @ right[lo:hi]) for lam, lo, hi in zip(self.lambdas, b, b[1:]))

    def _starts(self) -> np.ndarray:
        """Whether each column begins an atom (distinct floats never differ by 0)."""
        return np.diff(self.values, axis=-1, prepend=np.nan) != 0.0

    def _contract(self, w, phi=None) -> np.ndarray:
        """Sum_j w[j] left[:, j] right[j, :] for per-column weights w, or
        that sum applied to phi."""
        if phi is None:
            return (self.left * w[..., None, :]) @ self.right
        return _matvec(self.left, w * _matvec(self.right, phi))

    def atom_vectors(self, phi) -> np.ndarray:
        """Rows M_i phi, one per atom, without forming any M_i."""
        cols = self.left * _matvec(self.right, phi)[..., None, :]  # then the columns of each measure in turn
        return np.add.reduceat(np.moveaxis(cols, -2, 0).reshape(self.dim, -1), self.bounds[:-1], axis=1).T

    def reconstruct(self) -> np.ndarray:
        return self._contract(self.values)


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a matrix and a vector, or for each pair of two stacks."""
    return (m @ x[..., None])[..., 0]


def _cluster(vals: np.ndarray, rel: float, cut=None) -> np.ndarray:
    """The atom of each of the ascending values (..., n).

    Neighbours within ``rel * (1 + |lambda|)`` of each other merge into
    one cluster whose atom is their mean; a bound is forced before index
    ``cut`` (one per row of a stack) when 0 < cut < n.
    """
    n = vals.shape[-1]
    split = np.diff(vals, axis=-1) > rel * (1.0 + np.maximum(np.abs(vals[..., :-1]), np.abs(vals[..., 1:])))
    if cut is not None:
        split |= np.arange(1, n) == np.asarray(cut)[..., None]
    atoms = np.array(vals)  # a cluster of one value is its own mean
    first = np.flatnonzero(np.insert(split, 0, True, axis=-1))
    sizes = np.diff(first, append=atoms.size)
    rows, merged = vals.reshape(-1, n), atoms.reshape(-1, n)
    for start, size in zip(first[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        row, lo = divmod(start, n)
        merged[row, lo : lo + size] = np.mean(rows[row, lo : lo + size])
    return atoms


def spectral_measure(h, *, tols: Tolerances = DEFAULT) -> SpectralMeasure:
    """Atomic spectral measure of a Hermitian matrix (or a stack of them).

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
    return SpectralMeasure(values=_cluster(es.values, tols.cluster_tol()), left=es.vectors, right=herm(es.vectors))


def deform(u, e: SpectralMeasure, *, support_tol=0.0, tols: Tolerances = DEFAULT) -> SpectralMeasure:
    """Push a nonnegative measure through a partial isometry: F = U E
    (of a stack, each U through its measure).

    ``e`` must be supported in [0, inf) up to roundoff (it normally comes
    from a PSD matrix); an atom below ``-support_rel * (1 + lambda_max)``
    raises NegativeSupport. Slightly negative atoms are clamped to 0.
    """
    u = as_stack(u, square=True)
    if u.shape != e.left.shape:
        raise DimensionMismatch(f"U has shape {u.shape}, the measure's basis {e.left.shape}")
    v = e.values
    lam_min, lam_max = v[..., 0], v[..., -1]  # values ascend
    low = lam_min < -tols.support_tol() * (1.0 + np.maximum(np.abs(lam_min), np.abs(lam_max)))
    if np.any(low):
        raise NegativeSupport(f"atom at lambda = {np.min(lam_min):.6e} is below zero")
    return SpectralMeasure(values=np.where(v < 0.0, 0.0, v), left=u @ e.left, right=e.right, support_tol=support_tol)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + herm(m)) / 2.0


@dataclass(frozen=True)
class PolarDecomposition:
    """A = U T = Tbar U and the deformed measure F = U E_T, all read off
    one SVD A = W S V* of a square matrix (or of each matrix of a stack).

    It stores the SVD (W, sigma descending, V), the rank cut (``rank``,
    the relative ``tol`` and ``threshold`` = tol * sigma_max), the
    ``tols`` it was built with and, for an H-polar, the GramMetric whose
    frame the SVD is of (else None), which pulls every view back.

    The views are formed read-only from the SVD: U = W_r V_r*, zero on
    ker(T) (a mixed-rank stack forms each U from its own views), Tbar =
    W S W*, T = V S V*, ``source`` = E_T = (V, V*) ascending, and
    ``measure`` = F = (W, V*), zero on ker(T), supported above
    ``threshold``: deform(U, E_T) up to roundoff, with no U formed. U and
    Tbar, which the resolvent checks read once per lambda, are cached.
    Each read of T, ``source`` or ``measure`` forms a new one that lives
    as long as its reader keeps it, since an operator keeps its H-polar
    as long as it lives.
    """

    W: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rank: int | np.ndarray
    tol: float
    threshold: float | np.ndarray
    tols: Tolerances = DEFAULT
    metric: GramMetric | None = None

    @classmethod
    def from_svd(cls, dec: SvdResult, *, tols: Tolerances = DEFAULT, metric: GramMetric | None = None):
        """The decomposition of a square matrix (or stack) from its SVD.
        Singular values at or below tol * sigma_max are cut, with ``tol``
        = ``tols.rank_threshold_rel(n)``: ``rank_rel`` (n*eps when None)
        times ``scale``."""
        if dec.left.shape != dec.right.shape:
            raise NotSquare(f"SVD of a non-square matrix: W is {dec.left.shape}, V is {dec.right.shape}")
        rel = tols.rank_threshold_rel(dec.sigma.shape[-1])
        threshold = rel * dec.sigma[..., 0]
        rank = np.count_nonzero(dec.sigma > threshold[..., None], axis=-1)  # sigma descends: the first rank columns
        if rank.ndim == 0:
            threshold, rank = float(threshold), int(rank)
        return cls(dec.left, dec.sigma, dec.right, rank, rel, threshold, tols, metric)

    def _pulled(self, x: np.ndarray) -> np.ndarray:
        """x pulled back to coordinates (for an H-polar), read-only."""
        if self.metric is not None:
            x = self.metric.from_frame(x)
        x.setflags(write=False)
        return x

    @cached_property
    def U(self) -> np.ndarray:
        w, v, rank = self.W, self.V, self.rank
        if np.all(rank == np.max(rank)):
            r = int(np.max(rank))
            return self._pulled(w[..., :r] @ herm(v[..., :r]))
        return self._pulled(np.stack([wk[:, :r] @ herm(vk[:, :r]) for wk, vk, r in zip(w, v, rank.tolist())]))

    @cached_property
    def Tbar(self) -> np.ndarray:
        return self._pulled(_hermitize((self.W * self.sigma[..., None, :]) @ herm(self.W)))

    @property
    def T(self) -> np.ndarray:
        return self._pulled(_hermitize((self.V * self.sigma[..., None, :]) @ herm(self.V)))

    def _ascending(self, left=None, support_tol=0.0) -> SpectralMeasure:
        """E_T, or F when ``left`` is F's left factor: the atoms clustered as
        by :func:`spectral_measure` but split at the rank cut (ker(T) is its
        own atoms), the right factor V*, the columns in ascending order."""
        values = _cluster(self.sigma[..., ::-1], self.tols.cluster_tol(), cut=self.sigma.shape[-1] - self.rank)
        vecs = np.ascontiguousarray(self.V[..., ::-1])
        left, right = vecs if left is None else left, herm(vecs)
        if self.metric is not None:
            left, right = self.metric.from_frame_factors(left, right)
        return SpectralMeasure(values=values, left=left, right=right, support_tol=support_tol)

    @property
    def source(self) -> SpectralMeasure:
        return self._ascending()

    @property
    def measure(self) -> SpectralMeasure:
        n = self.sigma.shape[-1]
        kept = np.arange(n) >= n - np.asarray(self.rank)[..., None, None]  # U V = [W_r, 0]: the last rank columns
        return self._ascending(np.where(kept, self.W[..., ::-1], 0.0), self.threshold)


def deformed_of(a, *, tols: Tolerances = DEFAULT) -> SpectralMeasure:
    """Canonical deformed measure of an arbitrary square matrix, or the
    stack of those of a stack of matrices: ``polar_decompose(a).measure``.

    One SVD gives it, with no eigensolver and neither U nor T formed. The
    support threshold is the polar rank cutoff, and the singular
    directions at or below it, which span ker(T), form their own atoms
    with exactly zero left factors: a singular A keeps its zero cluster
    but reports only the nonzero spectrum of T as support.
    """
    return PolarDecomposition.from_svd(svd(a), tols=tols).measure


def _as_scalar_function(g) -> Callable[[float], complex]:
    if isinstance(g, str):
        return compile_expr(parse_g(g))
    if isinstance(g, GExpr):
        return compile_expr(g)
    if callable(g):
        return lambda lam: complex(g(lam))
    raise TypeError(f"g must be text, a parsed expression, or a callable; got {type(g)!r}")


def _phi_for(measure: SpectralMeasure, phi) -> np.ndarray:
    """A checked vector, or one row per measure of a stack."""
    phi = as_vector(phi) if np.ndim(phi) == 1 else as_stack(phi)
    if phi.shape != measure.values.shape:
        raise DimensionMismatch(f"phi has shape {phi.shape}, the measure takes {measure.values.shape}")
    return phi


def integrate(g, measure: SpectralMeasure, phi=None):
    """Sum g against a measure: Sum_i g(lambda_i) dM_i (optionally applied to phi).

    Works on plain and deformed measures, and on stacks of them (with one
    phi per measure). On a deformed measure this equals U g(T). Raises
    EvalError when g is undefined at an atom (for example log at
    lambda = 0 on a singular input).
    """
    fn = _as_scalar_function(g)
    starts = measure._starts()
    at_atoms = np.array([fn(lam) for lam in measure.values[starts].tolist()], dtype=np.complex128)
    w = at_atoms[np.cumsum(starts) - 1].reshape(starts.shape)  # each column takes its atom's value
    return measure._contract(w, None if phi is None else _phi_for(measure, phi))


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


def variation(measure: SpectralMeasure, phi) -> float | np.ndarray:
    """Total variation Sum_i ||dM_i phi||_2 of the atomized vector measure;
    of a stack, one per measure, with one phi per measure. Each measure's
    sum, alone or in a stack, is ``np.add.reduceat``'s over its atoms in lambda
    order: the first atom's norm plus numpy's pairwise sum of the rest."""
    norms = np.linalg.norm(measure.atom_vectors(_phi_for(measure, phi)), axis=1)
    counts = measure._starts().reshape(-1, measure.dim).sum(axis=1)  # every measure has an atom
    out = np.add.reduceat(norms, np.cumsum(counts) - counts)
    return float(out[0]) if measure.values.ndim == 1 else out.reshape(measure.values.shape[:-1])
