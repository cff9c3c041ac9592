"""Finite-dimensional lp geometry: duality maps, the Kuelbs-style Hilbert
embedding, Steadman duality functionals, and operator-norm diagnostics.

The model Banach space is B = lp on C^n with 1 < p < inf (the reflexive
range). Functionals are stored as coefficient vectors acting bilinearly,
f(v) = sum_k c_k v_k, so the canonical duality map of u has coefficients

    c_k = ||u||_p^(2-p) * |u_k|^(p-1) * conj(u_k)/|u_k|

which satisfy f(u) = ||u||_p^2 and ||c||_q = ||u||_p with q = p/(p-1).

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
from .linalg import abs_norm, as_matrix, as_vector, herm, vnorm
from .rng import Rng, substream

__all__ = [
    "LpSpace",
    "DualityFunctional",
    "GramMetric",
    "KuelbsEmbedding",
    "SteadmanFunctional",
    "EmbeddingConfig",
    "LpNormEstimate",
    "LaxDiagnostic",
    "canonical_duality_map",
    "build_kuelbs",
    "build_from_config",
    "steadman",
    "lp_operator_norm",
    "lax_diagnostic",
]


@dataclass(frozen=True)
class LpSpace:
    """lp sequence space on C^dim, 1 < p < inf."""

    dim: int
    p: float

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dim must be positive, got {self.dim}")
        if not (1.0 < self.p < math.inf):
            raise InvalidP(f"p must lie in (1, inf), got {self.p}")

    @property
    def q(self) -> float:
        """Conjugate exponent p/(p-1)."""
        return self.p / (self.p - 1.0)

    def norm(self, v) -> float:
        return vnorm(v, self.p)

    def dual_norm(self, coeffs) -> float:
        return vnorm(coeffs, self.q)


@dataclass(frozen=True)
class DualityFunctional:
    """A functional f(v) = coeffs . v with f(u) = ||u||_p^2, ||f||_q = ||u||_p."""

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


def _sign_conj(u: np.ndarray) -> np.ndarray:
    # conj(u)/|u| with the convention 0 at zero entries
    a = np.abs(u)
    out = np.zeros_like(u)
    nz = a > 0
    out[nz] = u[nz].conj() / a[nz]
    return out


def canonical_duality_map(u, space: LpSpace) -> DualityFunctional:
    """Standard lp duality functional of a nonzero vector."""
    u = as_vector(u)
    if u.shape[0] != space.dim:
        raise DimensionMismatch(f"vector dim {u.shape[0]} != space dim {space.dim}")
    nrm = space.norm(u)
    if nrm == 0.0:
        raise ZeroVector("the duality map is undefined at 0")
    coeffs = (nrm ** (2.0 - space.p)) * (np.abs(u) ** (space.p - 1.0)) * _sign_conj(u)
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
    """

    gram: np.ndarray
    chol: np.ndarray = field(init=False)
    chol_h: np.ndarray = field(init=False)
    frame_inv: np.ndarray = field(init=False)
    eig_min: float = field(init=False)
    eig_max: float = field(init=False)

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
        set_field = object.__setattr__  # frozen: fill the derived fields once
        set_field(self, "chol", chol)
        set_field(self, "chol_h", chol_h)
        set_field(self, "frame_inv", frame_inv)
        set_field(self, "eig_min", float(evs[0]))
        set_field(self, "eig_max", float(evs[-1]))


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
        self.dual_gram.setflags(write=False)
        self.weights.setflags(write=False)
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

    def dual_pairing(self, f_coeffs, g_coeffs) -> complex:
        """(f, g)_H' for functionals given by coefficient vectors."""
        f = as_vector(f_coeffs)
        g = as_vector(g_coeffs)
        return complex(np.vdot(g, self.dual_gram @ f))

    def j_map(self, u) -> np.ndarray:
        """Coefficients of J(u) = (., u)_H, the Gram-induced map into the dual."""
        u = as_vector(u)
        return (self.gram @ u).conj()


def _default_weights(count: int) -> np.ndarray:
    # geometric decay capped at 2^-19: below 20 seeds this is plain 2^-k;
    # beyond, the floor holds cond(G) of the canonical basis at 2^18
    w = np.array([2.0 ** -min(k + 1, 19) for k in range(count)])
    return w / w.sum()


def build_kuelbs(
    space: LpSpace,
    seeds=None,
    weights=None,
    *,
    tols: Tolerances = DEFAULT,
) -> KuelbsEmbedding:
    """Assemble the embedding from seed vectors and weights.

    Defaults: seeds are the canonical basis (spanning, and yielding a
    diagonal Gram), weights are 2^-min(k, 19) for k = 1..m renormalized
    to sum to 1; the cap keeps the Gram well conditioned at any dim.
    Explicit weights must be positive and sum to 1 within 1e-12. Seeds
    whose functionals fail to span the dual raise DegenerateSeeds.
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

    funcs = []
    for s in seed_list:
        f = canonical_duality_map(s, space)
        funcs.append(f.coeffs / f.dual_norm)
    c = np.vstack(funcs)  # rows are the normalized coefficient vectors
    gram = herm(c) @ (w[:, None] * c)
    gram = (gram + herm(gram)) / 2.0
    seeds_mat = np.vstack(seed_list)  # rows are seeds
    dual_gram = herm(seeds_mat) @ (w[:, None] * seeds_mat)
    dual_gram = (dual_gram + herm(dual_gram)) / 2.0

    try:
        return KuelbsEmbedding(
            space=space,
            gram=gram,
            dual_gram=dual_gram,
            weights=w,
            seeds=tuple(s.copy() for s in seed_list),
            functionals=tuple(funcs),
        )
    except SingularGram as exc:
        raise DegenerateSeeds(str(exc)) from exc


@dataclass(frozen=True)
class EmbeddingConfig:
    """Serializable recipe for an embedding.

    Seeds are the canonical basis plus ``extra_seeds`` pseudo-random
    vectors drawn from the stated seed (useful for exercising
    non-diagonal Grams); ``weights = None`` selects the default of
    ``build_kuelbs``, 2^-min(k, 19) renormalized.
    """

    dim: int
    p: float
    weights: tuple[float, ...] | None = None
    extra_seeds: int = 0
    seed: int = 0

    def to_obj(self) -> dict:
        return {
            "dim": self.dim,
            "p": self.p,
            "weights": list(self.weights) if self.weights is not None else None,
            "extra_seeds": self.extra_seeds,
            "seed": self.seed,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "EmbeddingConfig":
        weights = obj.get("weights")
        return cls(
            dim=int(obj["dim"]),
            p=float(obj["p"]),
            weights=tuple(float(w) for w in weights) if weights is not None else None,
            extra_seeds=int(obj.get("extra_seeds", 0)),
            seed=int(obj.get("seed", 0)),
        )


def build_from_config(cfg: EmbeddingConfig, *, tols: Tolerances = DEFAULT) -> KuelbsEmbedding:
    space = LpSpace(dim=cfg.dim, p=cfg.p)
    seeds = None
    if cfg.extra_seeds > 0:
        rng = Rng(substream(cfg.seed, 0x5EED))
        basis = [np.eye(cfg.dim, dtype=np.complex128)[:, k] for k in range(cfg.dim)]
        seeds = basis + list(rng.matrix(cfg.extra_seeds, cfg.dim))
    weights = np.asarray(cfg.weights, dtype=np.float64) if cfg.weights is not None else None
    return build_kuelbs(space, seeds=seeds, weights=weights, tols=tols)


@dataclass(frozen=True)
class SteadmanFunctional:
    """Duality functional S_u(v) = (||u||_B^2 / ||u||_H^2) (v, u)_H.

    By construction S_u(u) = ||u||_B^2, which forces ||S_u||_B' >= ||u||_B;
    the reverse inequality is not guaranteed by this explicit global
    formula and is reported, never asserted.
    """

    u: np.ndarray
    coeffs: np.ndarray
    space: LpSpace

    def __post_init__(self):
        self.u.setflags(write=False)
        self.coeffs.setflags(write=False)

    def __call__(self, v) -> complex:
        v = as_vector(v)
        if v.shape[0] != self.space.dim:
            raise DimensionMismatch("functional/vector dimension mismatch")
        return complex(self.coeffs @ v)

    @property
    def dual_norm(self) -> float:
        return self.space.dual_norm(self.coeffs)


def steadman(k: KuelbsEmbedding, u, *, euclidean: bool = False) -> SteadmanFunctional:
    """Steadman duality functional of u for the embedding's inner product.

    ``euclidean=True`` swaps the constructed inner product for the raw
    Euclidean one (the alternative reading; kept for comparison).
    """
    u = as_vector(u)
    if u.shape[0] != k.space.dim:
        raise DimensionMismatch("vector dimension does not match the embedding")
    nb = k.space.norm(u)
    if nb == 0.0:
        raise ZeroVector("the Steadman map is undefined at 0")
    if euclidean:
        h2 = float(np.vdot(u, u).real)
        coeffs = (nb**2 / h2) * u.conj()
    else:
        h2 = k.h_norm(u) ** 2
        coeffs = (nb**2 / h2) * (k.gram @ u).conj()
    return SteadmanFunctional(u=u.copy(), coeffs=coeffs, space=k.space)


@dataclass(frozen=True)
class LpNormEstimate:
    value: float
    method: str
    maximizer: np.ndarray


def _dual_direction(y: np.ndarray, ay: np.ndarray, ny: float, r: float) -> np.ndarray:
    """psi_r(y) = y |y|^(r-2) / ||y||_r^(r-1): unit q'-norm, <psi, y> = ||y||_r.

    ``ay`` is |y| and ``ny`` is ||y||_r, both already computed by the caller.
    """
    if ny == 0.0:
        return np.zeros_like(y)
    out = np.zeros_like(y)
    nz = ay > 0
    out[nz] = y[nz] * ay[nz] ** (r - 2.0)
    return out / ny ** (r - 1.0)


def lp_operator_norm(
    a,
    p: float,
    *,
    seed: int = 0x1B5,
    starts: int = 6,
    max_iter: int = 100,
) -> LpNormEstimate:
    """Estimate (from below) the lp -> lp operator norm of a square matrix.

    p = 2 is exact via the SVD (method "svd"). Otherwise a Boyd-style
    power iteration runs from canonical, flat, singular-vector and
    pseudo-random starts (method "power"); ``maximizer`` is the unit
    vector that attained ``value``. Raises ConvergenceFailure when the
    iteration's powers of a norm leave the floating-point range, which
    happens for operators of extreme scale.
    """
    a = as_matrix(a, square=True)
    n = a.shape[0]
    _, s, vh = np.linalg.svd(a)
    if p == 2.0:
        return LpNormEstimate(value=float(s[0]), method="svd", maximizer=vh[0].conj())
    q = p / (p - 1.0)
    eye = np.eye(n, dtype=np.complex128)
    start_vectors = [*eye[: min(n, 3)], np.ones(n, dtype=np.complex128), vh[0].conj()]
    start_vectors.extend(Rng(substream(seed, n)).matrix(starts, n))

    ah = herm(a)
    best = 0.0
    best_x = start_vectors[0]
    # a norm out of the floating-point range shows as a non-finite gamma or
    # zq, or as an OverflowError from the Python float power ny ** (r - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for x0 in start_vectors:
                nx = abs_norm(np.abs(x0), p)
                if nx == 0.0:
                    continue
                x = x0 / nx
                for _ in range(max_iter):
                    y = a @ x
                    ay = np.abs(y)
                    gamma = abs_norm(ay, p)
                    if not math.isfinite(gamma):
                        raise OverflowError("||A x||_p is not finite")
                    if gamma > best:
                        best, best_x = gamma, x.copy()
                    if gamma == 0.0:
                        break
                    z = ah @ _dual_direction(y, ay, gamma, p)
                    az = np.abs(z)
                    zq = abs_norm(az, q)
                    if not math.isfinite(zq):
                        raise OverflowError("||z||_q is not finite")
                    if zq <= np.vdot(z, x).real * (1.0 + 1e-14):
                        break
                    x = _dual_direction(z, az, zq, q)
        except OverflowError as exc:
            raise ConvergenceFailure(
                f"lp norm iteration left the floating-point range ({exc}) at p = {p}"
                f" for an operator with max |a_ij| = {float(np.abs(a).max()):.3e}"
            ) from exc
    return LpNormEstimate(value=float(best), method="power", maximizer=best_x)


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
    ga = k.gram @ a
    scale = 1.0 + float(np.linalg.norm(ga))
    resid = float(np.linalg.norm(ga - herm(ga))) / scale
    is_h = resid <= 1e-10 * max(1.0, tols.scale)

    m = k.metric
    norm_h = float(np.linalg.norm(m.chol_h @ a @ m.frame_inv, 2))
    est = lp_operator_norm(a, k.space.p)
    bound = math.sqrt(m.eig_max / m.eig_min) * n ** abs(0.5 - 1.0 / k.space.p)
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
