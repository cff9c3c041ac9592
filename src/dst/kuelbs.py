"""Finite-dimensional lp geometry: duality maps, the Kuelbs-style Hilbert
embedding, Steadman duality functionals, and operator-norm diagnostics.

The model Banach space is B = lp on C^n with 1 < p < inf (the reflexive
range). Functionals are stored as coefficient vectors acting bilinearly,
f(v) = sum_k c_k v_k, so the canonical duality map of u has coefficients

    c_k = ||u||_p^(2-p) * |u_k|^(p-1) * conj(u_k)/|u_k|

which satisfy f(u) = ||u||_p^2 and ||c||_q = ||u||_p with q = p/(p-1).
They are evaluated as ||u||_p conj(psi(u)) with the unit-dual-norm
psi(u) = (u/||u||_p) (|u|/||u||_p)^(p-2) (``LpSpace.duality_rows``),
which raises only ratios to a power and so holds at any finite scale.

The embedding inner product is built from normalized duality functionals
f_n of a spanning seed family {u_n} and positive weights t_n summing to 1:

    (u, v)_H = sum_n t_n * f_n(u) * conj(f_n(v))  =  v* G u

Normalizing each f_n to unit dual norm is what makes the embedding
contractive, ||u||_H <= ||u||_B, for every u: without it the weighted sum
can exceed the lp norm whenever some seed has norm above one. The dual
Gram realizes the companion inner product (f, g)_H' = sum t_n f(u_n)
conj(g(u_n)) on coefficient vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, EPS, Tolerances
from .errors import (
    BadWeights,
    ConvergenceFailure,
    DegenerateSeeds,
    DimensionMismatch,
    InvalidP,
    SingularGram,
    ZeroVector,
)
from .linalg import abs_norm, as_matrix, as_vector, gram_inner_rows, herm, vnorm
from .rng import Rng, substream

__all__ = [
    "LpSpace",
    "DualityFunctional",
    "GramMetric",
    "KuelbsEmbedding",
    "LpNormEstimate",
    "LaxDiagnostic",
    "canonical_duality_map",
    "build_kuelbs",
    "steadman",
    "lp_operator_norm",
    "lax_diagnostic",
]


@dataclass(frozen=True)
class LpSpace:
    """lp sequence space on C^dim, 1 < p < inf.

    The one place that computes with p: norms, the duality map and the
    equivalence constants against l2 are all answered here, so callers
    hold a space instead of an exponent.
    """

    dim: int
    p: float

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dim must be positive, got {self.dim}")
        if not (1.0 < self.p < math.inf) or self.q == 1.0:  # the dual space must exist too
            raise InvalidP(f"p must lie in (1, inf) with a conjugate p/(p-1) above 1, got {self.p}")

    @property
    def q(self) -> float:
        """Conjugate exponent p/(p-1)."""
        return self.p / (self.p - 1.0)

    @property
    def l2_to_p(self) -> float:
        """c with ||x||_p <= c ||x||_2 on C^dim: dim^max(0, 1/p - 1/2)."""
        return self.dim ** max(0.0, 1.0 / self.p - 0.5)

    @property
    def distortion(self) -> float:
        """dim^|1/2 - 1/p|, the product of both p <-> 2 equivalence constants."""
        return self.dim ** abs(0.5 - 1.0 / self.p)

    def norm(self, v) -> float:
        return vnorm(v, self.p)

    def dual_norm(self, coeffs) -> float:
        return vnorm(coeffs, self.q)

    def norm_rows(self, block: np.ndarray) -> float | np.ndarray:
        """Unchecked ||y||_p of each row of a block (of a vector: a float)."""
        return abs_norm(np.abs(block), self.p)

    def duality_rows(self, block: np.ndarray, norms) -> np.ndarray:
        """Unchecked psi(y) = (y/||y||_p) (|y|/||y||_p)^(p-2) of each row y,
        given the row norms ``norms`` (:meth:`norm_rows` of the block).

        Each row has unit q-norm and sum(conj(psi) y) = ||y||_p; a zero row
        maps to 0, and zero entries to 0. Only quotients by ||y||_p are
        raised to a power, never the norm itself, so the map has no scale
        limit.
        """
        ny = np.where(norms == 0.0, 1.0, norms)[..., None]
        ratio = np.abs(block) / ny
        power = np.zeros_like(ratio)
        nz = ratio > 0
        power[nz] = ratio[nz] ** (self.p - 2.0)
        return (block / ny) * power


@dataclass(frozen=True)
class DualityFunctional:
    """A functional f(v) = coeffs . v attached to its source vector u."""

    coeffs: np.ndarray
    source: np.ndarray
    space: LpSpace

    def __post_init__(self):
        self.coeffs.setflags(write=False)
        self.source.setflags(write=False)

    def __call__(self, v) -> complex:
        v = as_vector(v)
        if v.shape[0] != self.space.dim:
            raise DimensionMismatch("functional/vector dimension mismatch")
        return complex(self.coeffs @ v)

    @property
    def dual_norm(self) -> float:
        return self.space.dual_norm(self.coeffs)


def canonical_duality_map(u, space: LpSpace) -> DualityFunctional:
    """Standard lp duality functional of a nonzero vector:
    ||u||_p conj(psi(u)), with psi the space's :meth:`LpSpace.duality_rows`."""
    u = as_vector(u)
    if u.shape[0] != space.dim:
        raise DimensionMismatch(f"vector dim {u.shape[0]} != space dim {space.dim}")
    nrm = space.norm(u)
    if nrm == 0.0:
        raise ZeroVector("the duality map is undefined at 0")
    coeffs = nrm * space.duality_rows(u, nrm).conj()
    return DualityFunctional(coeffs=coeffs, source=u.copy(), space=space)


@dataclass(frozen=True)
class GramMetric:
    """A Hermitian positive definite Gram G = L L*, factored once.

    gram       -- G
    chol       -- the lower Cholesky factor L
    chol_h     -- L*, which maps coordinates into the frame where the
                  Gram inner product is the Euclidean one
    frame_inv  -- inv(L*); its columns are G-orthonormal
    eig_min, eig_max -- extreme eigenvalues of G

    Construction is the one positivity gate: a Gram whose smallest
    eigenvalue is at or below n * eps * (largest) raises SingularGram.

    The methods below are the only code that applies G, L*, inv(L*) or
    inv(G). When every off-diagonal entry of G is exactly 0.0 (the
    canonical-seed embedding), they apply the diagonals of G, L* and
    inv(L*) as O(n^2) scalings; the products and the solve they replace
    add only exact zeros to each entry, so both forms agree bit for bit.
    """

    gram: np.ndarray
    chol: np.ndarray = field(init=False)
    chol_h: np.ndarray = field(init=False)
    frame_inv: np.ndarray = field(init=False)
    eig_min: float = field(init=False)
    eig_max: float = field(init=False)
    # the diagonals of (G, L*, inv(L*)) when G is diagonal, else None
    _diagonals: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.gram
        evs = np.linalg.eigvalsh(g)
        if evs[0] <= g.shape[0] * EPS * max(evs[-1], 0.0):
            raise SingularGram(
                f"gram matrix is numerically singular (min/max eigenvalue = {evs[0]:.3e}/{evs[-1]:.3e})"
            )
        chol = np.linalg.cholesky(g)
        chol_h = herm(chol)
        frame_inv = np.linalg.inv(chol_h)
        for a in (g, chol, chol_h, frame_inv):
            a.setflags(write=False)
        diagonals = None
        if np.count_nonzero(g) == g.shape[0]:  # a positive definite G has no zero on its diagonal
            diagonals = tuple(np.diagonal(a).copy() for a in (g, chol_h, frame_inv))
            for d in diagonals:
                d.setflags(write=False)
        set_field = object.__setattr__  # frozen: fill the derived fields once
        set_field(self, "chol", chol)
        set_field(self, "chol_h", chol_h)
        set_field(self, "frame_inv", frame_inv)
        set_field(self, "eig_min", float(evs[0]))
        set_field(self, "eig_max", float(evs[-1]))
        set_field(self, "_diagonals", diagonals)

    @property
    def is_diagonal(self) -> bool:
        """Whether the methods apply G and its factors as diagonal scalings."""
        return self._diagonals is not None

    @property
    def basis(self) -> np.ndarray:
        """Rows are an H-orthonormal basis: the columns of inv(L*)."""
        return self.frame_inv.T

    def to_frame(self, a: np.ndarray) -> np.ndarray:
        """L* a inv(L*): the matrix of ``a`` in the frame where the Gram
        inner product is the Euclidean one."""
        if self._diagonals is None:
            return self.chol_h @ a @ self.frame_inv
        _, c, f = self._diagonals
        return c[:, None] * a * f

    def from_frame(self, x: np.ndarray) -> np.ndarray:
        """inv(L*) x L*: a frame matrix pulled back to coordinates."""
        if self._diagonals is None:
            return self.frame_inv @ x @ self.chol_h
        _, c, f = self._diagonals
        return f[:, None] * x * c

    def from_frame_factors(self, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(inv(L*) left, right L*): the pull-back of the frame matrix
        left @ right, applied to each factor."""
        if self._diagonals is None:
            return self.frame_inv @ left, right @ self.chol_h
        _, c, f = self._diagonals
        return f[:, None] * left, right * c

    def adjoint_of(self, a: np.ndarray) -> np.ndarray:
        """inv(G) a^H G: the adjoint of ``a`` for the inner product v* G u."""
        if self._diagonals is None:
            return np.linalg.solve(self.gram, herm(a) @ self.gram)
        g = self._diagonals[0]
        return herm(a) * g / g[:, None]

    def apply(self, a: np.ndarray) -> np.ndarray:
        """G a."""
        if self._diagonals is None:
            return self.gram @ a
        return self._diagonals[0][:, None] * a

    def inner_rows(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Unchecked ``v_i* G u_i`` for each row pair of two k×n blocks:
        :func:`~dst.linalg.gram_inner_rows` of G."""
        if self._diagonals is None:
            return gram_inner_rows(self.gram, us, vs)
        return (vs.conj() * (us * self._diagonals[0])).sum(axis=-1)

    def norm_rows(self, us: np.ndarray) -> np.ndarray:
        """Unchecked ``sqrt(max(Re u_i* G u_i, 0))`` for each row of a k×n
        block: :func:`~dst.linalg.gram_norm_rows` of G."""
        return np.sqrt(np.maximum(self.inner_rows(us, us).real, 0.0))


@dataclass(frozen=True)
class KuelbsEmbedding:
    """Hilbert inner product (u, v)_H = v* G u constructed on an lp space.

    gram       -- G, Hermitian positive definite
    dual_gram  -- Gram of the companion inner product on coefficient vectors
    weights    -- positive, sums to 1
    seeds      -- the spanning family the functionals came from
    functionals-- unit-dual-norm coefficient rows, one per seed
    metric     -- the GramMetric of G, built once at construction
    """

    space: LpSpace
    gram: np.ndarray
    dual_gram: np.ndarray
    weights: np.ndarray
    seeds: tuple[np.ndarray, ...]
    functionals: tuple[np.ndarray, ...]
    metric: GramMetric = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.dual_gram, self.weights, *self.seeds, *self.functionals):
            a.setflags(write=False)
        object.__setattr__(self, "metric", GramMetric(self.gram))  # also freezes gram

    def h_inner(self, u, v) -> complex:
        u = as_vector(u)
        v = as_vector(v)
        if u.shape[0] != self.space.dim or v.shape[0] != self.space.dim:
            raise DimensionMismatch("vector dimension does not match the embedding")
        return complex(np.vdot(v, self.gram @ u))

    def h_norm(self, u) -> float:
        val = self.h_inner(u, u)
        return math.sqrt(max(val.real, 0.0))


def _default_weights(count: int) -> np.ndarray:
    # geometric decay capped at 2^-19: below 20 seeds this is plain 2^-k;
    # beyond, the floor holds cond(G) of the canonical basis at 2^18
    w = np.array([2.0 ** -min(k + 1, 19) for k in range(count)])
    return w / w.sum()


def build_kuelbs(space: LpSpace, seeds=None, weights=None) -> KuelbsEmbedding:
    """Assemble the embedding from seed vectors and weights.

    Defaults: seeds are the canonical basis (spanning, and yielding a
    diagonal Gram), weights are 2^-min(k, 19) for k = 1..m renormalized
    to sum to 1; the cap keeps the Gram well conditioned at any dim.
    Explicit weights must be positive and sum to 1 within 1e-12. A zero
    seed raises ZeroVector; seeds whose functionals fail to span the dual,
    or whose dual Gram overflows, raise DegenerateSeeds.
    """
    n = space.dim
    if seeds is None:
        seed_list = [np.eye(n, dtype=np.complex128)[:, k] for k in range(n)]
    else:
        seed_list = [as_vector(s) for s in seeds]
        for s in seed_list:
            if s.shape[0] != n:
                raise DimensionMismatch("seed dimension does not match the space")
    m = len(seed_list)
    if m == 0:
        raise DegenerateSeeds("at least one seed is required")
    if weights is None:
        w = _default_weights(m)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (m,):
            raise BadWeights(f"{m} seeds but {w.shape} weights")
        if np.any(w <= 0.0):
            raise BadWeights("weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise BadWeights(f"weights sum to {w.sum()!r}, expected 1")

    seeds_mat = np.vstack(seed_list)  # rows are seeds
    norms = space.norm_rows(seeds_mat)
    if not norms.all():
        raise ZeroVector(f"seed {int(np.argmin(norms))} is zero, where the duality map is undefined")
    c = space.duality_rows(seeds_mat, norms).conj()  # rows are the unit-dual-norm coefficient vectors
    gram = herm(c) @ (w[:, None] * c)
    gram = (gram + herm(gram)) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        dual_gram = herm(seeds_mat) @ (w[:, None] * seeds_mat)
        dual_gram = (dual_gram + herm(dual_gram)) / 2.0
    if not np.isfinite(dual_gram.view(np.float64)).all():
        raise DegenerateSeeds(f"the dual Gram of seeds up to norm {float(norms.max()):.3e} overflows")

    try:
        return KuelbsEmbedding(
            space=space,
            gram=gram,
            dual_gram=dual_gram,
            weights=w,
            seeds=tuple(s.copy() for s in seed_list),
            functionals=tuple(c),
        )
    except SingularGram as exc:
        raise DegenerateSeeds(str(exc)) from exc


def steadman(k: KuelbsEmbedding, u) -> DualityFunctional:
    """Steadman duality functional S_u(v) = (||u||_B^2 / ||u||_H^2) (v, u)_H
    of u for the embedding's inner product.

    By construction S_u(u) = ||u||_B^2, which forces ||S_u||_B' >= ||u||_B;
    the reverse inequality is not guaranteed by this explicit global
    formula and is reported, never asserted.
    """
    u = as_vector(u)
    if u.shape[0] != k.space.dim:
        raise DimensionMismatch("vector dimension does not match the embedding")
    nb = k.space.norm(u)
    if nb == 0.0:
        raise ZeroVector("the Steadman map is undefined at 0")
    h2 = k.h_norm(u) ** 2
    coeffs = (nb**2 / h2) * (k.gram @ u).conj()
    return DualityFunctional(coeffs=coeffs, source=u.copy(), space=k.space)


@dataclass(frozen=True)
class LpNormEstimate:
    value: float
    method: str
    maximizer: np.ndarray


# the power iteration's pseudo-random starts and its iteration cap per start
_LP_NORM_SEED = 0x1B5
_LP_NORM_STARTS = 6
_LP_NORM_MAX_ITER = 100


def lp_operator_norm(a, p: float) -> LpNormEstimate:
    """Estimate (from below) the lp -> lp operator norm of a square matrix.

    p = 2 is exact via the SVD (method "svd"). Otherwise Boyd's power
    iteration (LAA 9, 1974) runs from up to 11 starts at once, iterated as
    one block in the manner of the block estimator of Higham and Tisseur
    (SIMAX 21, 2000) (method "power"): up to 3 canonical vectors, the flat
    vector, the top right singular vector and 6 pseudo-random vectors,
    as the rows of one k×n array, so each step is one matrix product. Each
    start stops on its own test (gamma = 0, or ||z||_q <= Re<z, x> (1 +
    1e-14)) or after 100 steps. ``value`` is the best gamma over all starts
    and steps and ``maximizer`` the unit vector that attained it. Both
    half steps are the duality maps of ``LpSpace(n, p)`` and its dual, which
    raise only ratios to a power, so the iteration works at any scale whose
    norms are finite; an operator whose iterates overflow raises
    ConvergenceFailure. A p that ``LpSpace`` refuses raises InvalidP.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    space = LpSpace(n, p)
    _, s, vh = np.linalg.svd(a)
    if p == 2.0:
        return LpNormEstimate(value=float(s[0]), method="svd", maximizer=vh[0].conj())
    dual = LpSpace(n, space.q)
    starts = np.vstack([
        np.eye(n, dtype=np.complex128)[: min(n, 3)],
        np.ones((1, n), dtype=np.complex128),
        vh[:1].conj(),
        Rng(substream(_LP_NORM_SEED, n)).matrix(_LP_NORM_STARTS, n),
    ])
    x = starts / space.norm_rows(starts)[:, None]

    # rows of x are the live iterates; best_* are per start, indexed by live
    at, conj_a = a.T, a.conj()
    live = np.arange(x.shape[0])
    best = np.zeros(x.shape[0])
    best_x = x.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_LP_NORM_MAX_ITER):
            y = x @ at  # rows are A x
            gamma = space.norm_rows(y)
            z = space.duality_rows(y, gamma) @ conj_a  # rows are A* psi
            zq = dual.norm_rows(z)
            if not (np.isfinite(gamma).all() and np.isfinite(zq).all()):
                raise ConvergenceFailure(
                    f"lp norm iteration left the floating-point range at p = {p}"
                    f" for an operator with max |a_ij| = {float(np.abs(a).max()):.3e}"
                )
            up = gamma > best[live]
            best[live[up]] = gamma[up]
            best_x[live[up]] = x[up]
            stalled = zq <= (z.conj() * x).sum(axis=1).real * (1.0 + 1e-14)
            going = (gamma != 0.0) & ~stalled
            if not going.any():
                break
            live = live[going]
            x = dual.duality_rows(z[going], zq[going])
    k = int(np.argmax(best))
    return LpNormEstimate(value=float(best[k]), method="power", maximizer=best_x[k])


@dataclass(frozen=True)
class LaxDiagnostic:
    """Boundedness report for an operator on the embedded Hilbert structure.

    ``bound`` is sqrt(cond(G)) * dim^|1/2 - 1/p|, derived from the Gram
    factorization and the p<->2 norm equivalence on C^n; the measured
    ``ratio = norm_h / norm_b`` always sits below it (norm_b is estimated
    from below, so the reported ratio is an upper estimate).
    """

    is_h_selfadjoint: bool
    norm_h: float
    norm_b: float
    ratio: float
    bound: float
    selfadjoint_residual: float
    method: str


def lax_diagnostic(k: KuelbsEmbedding, a, *, tols: Tolerances = DEFAULT) -> LaxDiagnostic:
    a = as_matrix(a, square=True)
    n = k.space.dim
    if a.shape[0] != n:
        raise DimensionMismatch("operator dimension does not match the embedding")
    m = k.metric
    ga = m.apply(a)
    scale = 1.0 + float(np.linalg.norm(ga))
    resid = float(np.linalg.norm(ga - herm(ga))) / scale
    is_h = resid <= 1e-10 * max(1.0, tols.scale)

    norm_h = float(np.linalg.norm(m.to_frame(a), 2))
    est = lp_operator_norm(a, k.space.p)
    bound = math.sqrt(m.eig_max / m.eig_min) * k.space.distortion
    ratio = norm_h / est.value if est.value > 0 else 0.0
    return LaxDiagnostic(
        is_h_selfadjoint=is_h,
        norm_h=norm_h,
        norm_b=est.value,
        ratio=ratio,
        bound=bound,
        selfadjoint_residual=resid,
        method=est.method,
    )
