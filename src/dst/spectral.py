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

Summations run in ascending-atom order so results are reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import DimensionMismatch, NegativeSupport
from .gexpr import GExpr, evaluate
from .gexpr import parse as parse_g
from .linalg import as_matrix, as_vector, herm, hermitian_eigen
from .polar import polar_decompose

__all__ = [
    "SpectralMeasure",
    "DeformedSpectralMeasure",
    "QuadraticFormResult",
    "spectral_measure",
    "deform",
    "deformed_of",
    "integrate",
    "quadratic_form",
    "variation",
]

Atom = tuple[float, np.ndarray]


@dataclass(frozen=True)
class SpectralMeasure:
    """Atoms (lambda_i, P_i), lambdas strictly increasing.

    For the Euclidean metric the P_i are Hermitian orthogonal projectors
    summing to the identity; measures produced in a Gram metric satisfy
    the same identities with the Gram-adjoint in place of the Euclidean
    one (they are still idempotent and still sum to the identity).
    """

    atoms: tuple[Atom, ...]
    dim: int

    def __post_init__(self):
        for _, p in self.atoms:
            p.setflags(write=False)

    @property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.atoms)

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for lam, p in self.atoms:
            out += lam * p
        return out

    def projector_sum(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for _, p in self.atoms:
            out += p
        return out


@dataclass(frozen=True)
class DeformedSpectralMeasure:
    """Atoms (lambda_i, dF_i = U P_i) with lambda_i >= 0.

    All atoms of the source measure are kept, including a numerically-zero
    cluster when A is rank deficient; ``support`` excludes atoms at or
    below ``support_tol`` because U annihilates ker(T) and those atoms
    carry no mass. The measure makes no uniqueness claim beyond this
    canonical construction.
    """

    atoms: tuple[Atom, ...]
    U: np.ndarray
    source: SpectralMeasure
    support_tol: float

    def __post_init__(self):
        self.U.setflags(write=False)
        for _, p in self.atoms:
            p.setflags(write=False)

    @property
    def lambdas(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.atoms)

    @property
    def support(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.atoms if lam > self.support_tol)

    @property
    def dim(self) -> int:
        return self.source.dim

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for lam, df in self.atoms:
            out += lam * df
        return out


def spectral_measure(h, cluster_tol: float | None = None, *, tols: Tolerances = DEFAULT) -> SpectralMeasure:
    """Atomic spectral measure of a Hermitian matrix.

    Adjacent eigenvalues within ``cluster_tol * (1 + |lambda|)`` of each
    other merge into a single projector whose atom is their mean. The
    default keeps each projector well conditioned (the eigenvector basis
    inside a merged cluster is arbitrary); the price is that genuinely
    distinct eigenvalues closer than the tolerance are represented by one
    atom, so reconstruction degrades to the cluster width on such
    spectra. Pass a smaller ``cluster_tol`` when eigenvalue gaps below
    1e-8 are meaningful.
    """
    es = hermitian_eigen(h, tols=tols)
    rel = tols.cluster_tol() if cluster_tol is None else cluster_tol
    n = es.values.shape[0]
    clusters: list[list[int]] = [[0]]
    for i in range(1, n):
        gap_limit = rel * (1.0 + max(abs(es.values[i - 1]), abs(es.values[i])))
        if es.values[i] - es.values[i - 1] <= gap_limit:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    atoms: list[Atom] = []
    for idx in clusters:
        vecs = es.vectors[:, idx]
        proj = vecs @ herm(vecs)
        proj = (proj + herm(proj)) / 2.0
        atoms.append((float(np.mean(es.values[idx])), proj))
    return SpectralMeasure(atoms=tuple(atoms), dim=n)


def deform(u, e: SpectralMeasure, *, support_tol: float = 0.0, tols: Tolerances = DEFAULT) -> DeformedSpectralMeasure:
    """Push a nonnegative measure through a partial isometry: F = U E.

    ``e`` must be supported in [0, inf) up to roundoff (it normally comes
    from a PSD matrix); an atom below ``-support_rel * (1 + lambda_max)``
    raises NegativeSupport. Slightly negative atoms are clamped to 0.
    """
    u = as_matrix(u, square=True)
    if u.shape[0] != e.dim:
        raise DimensionMismatch(f"U is {u.shape[0]}x{u.shape[1]}, measure dim is {e.dim}")
    lam_max = max((abs(lam) for lam, _ in e.atoms), default=0.0)
    floor = -tols.support_tol() * (1.0 + lam_max)
    atoms: list[Atom] = []
    for lam, p in e.atoms:
        if lam < floor:
            raise NegativeSupport(f"atom at lambda = {lam:.6e} is below zero")
        atoms.append((max(lam, 0.0), u @ p))
    return DeformedSpectralMeasure(atoms=tuple(atoms), U=u, source=e, support_tol=support_tol)


def deformed_of(a, tol: float | None = None, *, tols: Tolerances = DEFAULT) -> DeformedSpectralMeasure:
    """Canonical deformed measure of an arbitrary square matrix.

    Pipeline: polar decomposition of A, spectral measure of the positive
    factor T, deformation by the partial isometry U. The support threshold
    is the polar rank cutoff, raised where needed over the atoms of the
    lowest n - rank eigen-directions of T: those span ker(T), whose
    eigenvalues can round to just above the cutoff. A singular A thus
    keeps its zero cluster in ``source`` but reports only the nonzero
    spectrum of T as support.
    """
    p = polar_decompose(a, tol, tols=tols)
    e = spectral_measure(p.T, tols=tols)
    cut, seen = p.threshold, 0
    for lam, proj in e.atoms:  # ascending; stop at the first atom with range outside ker(T)
        seen += round(float(np.trace(proj).real))
        if seen > e.dim - p.rank:
            break
        cut = max(cut, lam)
    return deform(p.U, e, support_tol=cut, tols=tols)


def _as_scalar_function(g) -> Callable[[float], complex]:
    if isinstance(g, str):
        ast = parse_g(g)
        return lambda lam: evaluate(ast, lam)
    if isinstance(g, GExpr):
        return lambda lam: evaluate(g, lam)
    if callable(g):
        return lambda lam: complex(g(lam))
    raise TypeError(f"g must be text, a parsed expression, or a callable; got {type(g)!r}")


def integrate(g, measure, phi=None):
    """Sum g against a measure: Sum_i g(lambda_i) dM_i (optionally applied to phi).

    Works on plain and deformed measures. On a deformed measure this
    equals U g(T). Raises EvalError when g is undefined at an atom (for
    example log at lambda = 0 on a singular input).
    """
    fn = _as_scalar_function(g)
    atoms = measure.atoms
    dim = measure.dim
    if phi is not None:
        phi = as_vector(phi)
        if phi.shape[0] != dim:
            raise DimensionMismatch(f"phi has dim {phi.shape[0]}, measure dim is {dim}")
        out_v = np.zeros(dim, dtype=np.complex128)
        for lam, dm in atoms:
            out_v += fn(lam) * (dm @ phi)
        return out_v
    out = np.zeros((dim, dim), dtype=np.complex128)
    for lam, dm in atoms:
        out += fn(lam) * dm
    return out


@dataclass(frozen=True)
class QuadraticFormResult:
    """Atom-wise terms lambda_i^2 * <dM_i phi, psi> and their sum.

    Terms are reported as complex numbers: against a deformed measure the
    atom-wise pairing need not be real or sign-definite.
    """

    lambdas: tuple[float, ...]
    terms: tuple[complex, ...]
    total: complex


def quadratic_form(
    measure,
    phi,
    pairing: str = "standard",
    *,
    gram: np.ndarray | None = None,
    functional=None,
) -> QuadraticFormResult:
    """Quadratic form Sum_i lambda_i^2 * (dM_i phi, psi) of a measure.

    pairing selects psi: "standard" pairs against phi in the Euclidean
    inner product, "gram" against phi in the inner product (x, y) = y* G x,
    and "steadman" applies the supplied duality functional to dM_i phi.
    """
    phi = as_vector(phi)
    if phi.shape[0] != measure.dim:
        raise DimensionMismatch(f"phi has dim {phi.shape[0]}, measure dim is {measure.dim}")
    if pairing == "standard":
        pair = lambda x: complex(np.vdot(phi, x))
    elif pairing == "gram":
        if gram is None:
            raise ValueError("pairing='gram' requires the gram matrix")
        g = as_matrix(gram, square=True)
        if g.shape[0] != measure.dim:
            raise DimensionMismatch("gram dimension does not match the measure")
        pair = lambda x: complex(np.vdot(phi, g @ x))
    elif pairing == "steadman":
        if functional is None:
            raise ValueError("pairing='steadman' requires a duality functional")
        pair = lambda x: complex(functional(x))
    else:
        raise ValueError(f"unknown pairing {pairing!r}")
    lambdas: list[float] = []
    terms: list[complex] = []
    for lam, dm in measure.atoms:
        lambdas.append(lam)
        terms.append((lam**2) * pair(dm @ phi))
    return QuadraticFormResult(lambdas=tuple(lambdas), terms=tuple(terms), total=complex(sum(terms)))


def variation(measure, phi) -> float:
    """Total variation Sum_i ||dM_i phi||_2 of the atomized vector measure."""
    phi = as_vector(phi)
    if phi.shape[0] != measure.dim:
        raise DimensionMismatch(f"phi has dim {phi.shape[0]}, measure dim is {measure.dim}")
    return float(sum(np.linalg.norm(dm @ phi) for _, dm in measure.atoms))
