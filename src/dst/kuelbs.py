"""Finite-dimensional lp geometry: duality maps, the Kuelbs-style Hilbert
embedding, Steadman duality functionals, and operator-norm diagnostics.

The model Banach space is B = lp on C^n with 1 < p < inf (the reflexive
range). A functional is its coefficient row c, acting bilinearly as
f(v) = c @ v; its dual norm is ``LpSpace.dual_norm(c)``. The canonical
duality map of u has coefficients

    c_k = ||u||_p^(2-p) * |u_k|^(p-1) * conj(u_k)/|u_k|

which satisfy c @ u = ||u||_p^2 and ||c||_q = ||u||_p with q = p/(p-1).
They are evaluated as ||u||_p conj(psi(u)) with the unit-dual-norm
psi(u) = (u/||u||_p) (|u|/||u||_p)^(p-2) (``LpSpace.duality_rows``),
which raises only ratios to a power and so holds at any finite scale.
``canonical_duality_map`` and ``steadman`` map a vector to one row and a
k×n block to k rows, one per row of the block.

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
from .linalg import abs_norm, as_matrix, as_stack, as_vector, fro, gram_inner_rows, herm, vnorm
from .rng import Rng, substream

__all__ = [
    "LpSpace",
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

    def duality_rows(self, block: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        """Unchecked ``(norms, psi)`` of a block: :meth:`norm_rows` and
        psi(y) = (y/||y||_p) (|y|/||y||_p)^(p-2) of each row y, both from
        one pass over the moduli.

        Each row of psi has unit q-norm and sum(conj(psi) y) = ||y||_p; a
        zero row maps to 0, and zero entries to 0. Only quotients by
        ||y||_p are raised to a power, never the norm itself, so the map has
        no scale limit.
        """
        mag = np.abs(block)
        norms = abs_norm(mag, self.p)
        ny = np.where(norms == 0.0, 1.0, norms)[..., None]
        ratio = mag / ny
        power = np.power(ratio, self.p - 2.0, out=np.zeros_like(ratio), where=ratio > 0)
        return norms, (block / ny) * power


def _rows(u, dim: int) -> np.ndarray:
    """A checked vector, or k×n block with one vector per row, of length ``dim``."""
    x = as_matrix(u) if np.ndim(u) == 2 else as_vector(u)
    if x.shape[-1] != dim:
        raise DimensionMismatch(f"vector dim {x.shape[-1]} != space dim {dim}")
    return x


def canonical_duality_map(u, space: LpSpace) -> np.ndarray:
    """Coefficient row ||u||_p conj(psi(u)) of the standard lp duality
    functional of u, with psi the space's :meth:`LpSpace.duality_rows`; of
    a k×n block, one row per row of u. A zero row raises ZeroVector."""
    u = _rows(u, space.dim)
    norms, psi = space.duality_rows(u)
    if not np.all(norms):
        raise ZeroVector("the duality map is undefined at 0")
    return np.asarray(norms)[..., None] * psi.conj()


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
    eigenvalue is at or below n * eps * (largest) raises SingularGram, and
    so does a G with a NaN or inf entry. A writeable ``gram`` is copied
    before it is frozen, so the caller's array stays writeable; a
    read-only one is kept as it is.

    The diagonal rule: when every nonzero entry of G lies on its diagonal
    (as for a canonical-seed embedding, whose ``seeds`` and ``functionals``
    are read-only (n, n) blocks of unit rows), construction reads the extreme
    eigenvalues off the real diagonal d and writes L = diag(sqrt d) and
    inv(L*) = diag(1/sqrt d) in O(n^2), with no LAPACK call; the fields
    equal what eigvalsh, cholesky and inv return for such a G. The
    methods below are the only code that applies G, L*, inv(L*) or
    inv(G), and under the same rule they apply the diagonals of G, L* and
    inv(L*) as O(n^2) scalings; the products and the solve they replace
    add only exact zeros to each entry, so both forms agree bit for bit.
    Any other G is factored by LAPACK and applied densely. The methods
    also take stacks of matrices or row blocks.
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
        g = self.gram.copy() if self.gram.flags.writeable else self.gram
        # the diagonal rule: every nonzero entry of G lies on its diagonal
        diagonal = np.count_nonzero(g) == np.count_nonzero(np.diagonal(g))
        if diagonal:
            d = np.diagonal(g).real  # the part eigvalsh and cholesky read
            lo, hi = float(d.min()), float(d.max())
        elif not np.isfinite(g).all():  # eigvalsh would fail to converge on it
            raise SingularGram("gram matrix has a NaN or inf entry")
        else:
            evs = np.linalg.eigvalsh(g)
            lo, hi = float(evs[0]), float(evs[-1])
        if not lo > g.shape[0] * EPS * max(hi, 0.0):  # NaN and inf fail it too
            raise SingularGram(f"gram matrix is numerically singular (min/max eigenvalue = {lo:.3e}/{hi:.3e})")
        if diagonal:
            # what cholesky and inv return for a diagonal G, without LAPACK
            root = np.sqrt(d)
            chol = np.zeros(g.shape, np.result_type(g, np.float64))
            frame_inv = np.zeros_like(chol)
            np.fill_diagonal(chol, root)
            np.fill_diagonal(frame_inv, 1.0 / root)
            chol_h = herm(chol)
            diagonals = tuple(np.diagonal(a).copy() for a in (g, chol_h, frame_inv))
        else:
            chol = np.linalg.cholesky(g)
            chol_h = herm(chol)
            frame_inv = np.linalg.inv(chol_h)
            diagonals = None
        for a in (g, chol, chol_h, frame_inv, *(diagonals or ())):
            a.setflags(write=False)
        set_field = object.__setattr__  # frozen: fill the derived fields once
        set_field(self, "gram", g)
        set_field(self, "chol", chol)
        set_field(self, "chol_h", chol_h)
        set_field(self, "frame_inv", frame_inv)
        set_field(self, "eig_min", lo)
        set_field(self, "eig_max", hi)
        set_field(self, "_diagonals", diagonals)

    @property
    def is_diagonal(self) -> bool:
        """Whether the methods apply G and its factors as diagonal scalings."""
        return self._diagonals is not None

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
    seeds      -- read-only (m, n) block whose rows are the spanning family
                  the functionals came from
    functionals-- read-only (m, n) block of unit-dual-norm coefficient
                  rows, one per seed
    metric     -- the GramMetric of G, built once at construction
    """

    space: LpSpace
    gram: np.ndarray
    dual_gram: np.ndarray
    weights: np.ndarray
    seeds: np.ndarray
    functionals: np.ndarray
    metric: GramMetric = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in (self.gram, self.dual_gram, self.weights, self.seeds, self.functionals):
            a.setflags(write=False)
        object.__setattr__(self, "metric", GramMetric(self.gram))  # shares the frozen gram


def _default_weights(count: int) -> np.ndarray:
    # geometric decay capped at 2^-19: below 20 seeds this is plain 2^-k;
    # beyond, the floor holds cond(G) of the canonical basis at 2^18
    w = np.array([2.0 ** -min(k + 1, 19) for k in range(count)])
    return w / w.sum()


def build_kuelbs(space: LpSpace, seeds=None, weights=None) -> KuelbsEmbedding:
    """Assemble the embedding from seed vectors and weights.

    Defaults: seeds are the canonical basis (spanning, and yielding the
    diagonal Gram diag(w), so the embedding is built in O(n^2) time and
    memory with no LAPACK call), weights are 2^-min(k, 19) for k = 1..m renormalized
    to sum to 1; the cap keeps the Gram well conditioned at any dim.
    Explicit weights must be positive and sum to 1 within 1e-12. A zero
    seed raises ZeroVector; seeds whose functionals fail to span the dual,
    or whose dual Gram overflows, raise DegenerateSeeds.
    """
    n = space.dim
    if seeds is None:
        seeds_mat = np.eye(n, dtype=np.complex128)  # rows are seeds
    else:
        seed_list = [as_vector(s) for s in seeds]
        if not seed_list:
            raise DegenerateSeeds("at least one seed is required")
        if any(s.shape[0] != n for s in seed_list):
            raise DimensionMismatch("seed dimension does not match the space")
        seeds_mat = np.vstack(seed_list)
    m = seeds_mat.shape[0]
    if weights is None:
        w = _default_weights(m)
    else:
        w = np.array(weights, dtype=np.float64)  # a copy: the embedding freezes it
        if w.shape != (m,):
            raise BadWeights(f"{m} seeds but {w.shape} weights")
        if np.any(w <= 0.0):
            raise BadWeights("weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise BadWeights(f"weights sum to {w.sum()!r}, expected 1")

    norms, psi = space.duality_rows(seeds_mat)
    if not norms.all():
        raise ZeroVector(f"seed {int(np.argmin(norms))} is zero, where the duality map is undefined")
    c = psi.conj()  # rows are the unit-dual-norm coefficient vectors
    if seeds is None:
        # psi(e_k) = e_k, so both Grams are diag(w): the products below would
        # only add exact zeros, and cost O(n^3)
        gram = np.diag(w.astype(np.complex128))
        dual_gram = gram.copy()
    else:
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
            seeds=seeds_mat,
            functionals=c,
        )
    except SingularGram as exc:
        raise DegenerateSeeds(str(exc)) from exc


def steadman(k: KuelbsEmbedding, u) -> np.ndarray:
    """Coefficient row (||u||_B^2 / ||u||_H^2) conj(G u) of the Steadman
    duality functional S_u(v) = (||u||_B^2 / ||u||_H^2) (v, u)_H of u for
    the embedding's inner product; of a k×n block, one row per row of u.
    A zero row raises ZeroVector.

    By construction S_u(u) = ||u||_B^2, which forces ||S_u||_B' >= ||u||_B;
    the reverse inequality is not guaranteed by this explicit global
    formula and is reported, never asserted.
    """
    u = _rows(u, k.space.dim)
    us = u.reshape(-1, u.shape[-1])
    nb = k.space.norm_rows(us)
    if not np.all(nb):
        raise ZeroVector("the Steadman map is undefined at 0")
    m = k.metric
    scale = nb**2 / m.norm_rows(us) ** 2
    return (scale[:, None] * m.apply(us.T).T.conj()).reshape(u.shape)


@dataclass(frozen=True)
class LpNormEstimate:
    """``value`` and the unit ``maximizer`` that attains it; of a stack, one
    entry (or row) per matrix."""

    value: float | np.ndarray
    method: str
    maximizer: np.ndarray


# the power iteration's pseudo-random starts and its iteration cap per start
_LP_NORM_SEED = 0x1B5
_LP_NORM_STARTS = 6
_LP_NORM_MAX_ITER = 100
# a start stops once 1 - |cos| between its next iterate and that of a better
# live start is at most this
_LP_NORM_MERGE = 1e-4


def _scalar(v: np.ndarray) -> float | np.ndarray:
    """A float for the 0-d result of a single matrix, else the array."""
    return float(v) if np.ndim(v) == 0 else v


def _ritz_start(a: np.ndarray, others: np.ndarray) -> np.ndarray:
    """One Rayleigh-Ritz step toward the top right singular vector of each
    matrix of a stack ``a``, in O(n^2 k) for k = len(others): Q = qr(b* b S)
    with b = a / max|a_ij| (b* b cannot overflow) and S the other starts
    as columns, then Q w for w the top right singular vector of the n×k
    matrix b Q."""
    top = np.abs(a).max(axis=(-2, -1))
    b = a / np.where(top > 0.0, top, 1.0)[:, None, None]
    q, _ = np.linalg.qr(herm(b) @ (b @ others.T))
    _, _, wh = np.linalg.svd(b @ q, full_matrices=False)
    return (q @ wh[:, 0, :, None].conj())[..., 0]


def lp_operator_norm(a, p: float) -> LpNormEstimate:
    """Estimate (from below) the lp -> lp operator norm of a square matrix,
    or of each matrix of a stack (..., n, n) in one iteration.

    p = 2 is exact via the SVD (method "svd"). Otherwise Boyd's power
    iteration (LAA 9, 1974) runs from up to 11 starts at once, iterated as
    one block in the manner of the block estimator of Higham and Tisseur
    (SIMAX 21, 2000) (method "power"): up to 3 canonical vectors, the flat
    vector, a Ritz vector for the top right singular vector (one subspace
    step from the other starts, ``_ritz_start``) and 6 pseudo-random
    vectors, as the rows of one k×n array per matrix, so each step is one
    matrix product and no n×n matrix is factored. Each start stops on its
    own test (gamma = 0, or ||z||_q <= Re<z, x> (1 + 1e-14)) or after 100
    steps, or when its next iterate is parallel to that of a better going
    start, 1 - |<x_i, x_j>| / (||x_i||_2 ||x_j||_2) <= 1e-4 for a start j
    with the larger gamma (on a tie, the lower index), as the block
    estimator drops parallel columns. A step maps e^{it} x to e^{it} F(x)
    with the same gamma, so parallel iterates share their future and
    nearly parallel ones approach the same fixed point; the stopped start
    keeps its best gamma. Against running every start to its own test,
    the estimate moved by -2.2e-13 to +1.3e-15 relative on 480 general
    draws (n <= 128, p in {1.1, 1.5, 3, 8}), and a call on one of the
    four n = 256, p = 3 Lax operators of the ``metric-large`` benchmark
    takes 194 to 365 row-steps (one block row for one step), not 690 to
    1094.

    A stack is one (count, k, n) block. Each matrix stops and merges its
    starts on its own; a start leaves the block once it has stopped in
    every matrix, and a matrix once none of its starts is going, so a
    single matrix (a stack of one) loses each start as it stops. A lone
    going row inside a wider block rounds as a row of a matrix product,
    not as a vector-matrix product, so a stack's values can differ from
    the single calls in the last bits (32 of the 80 operators of the
    benchmarked ``dst verify`` run moved, by at most 1.2e-14 relative).

    ``value`` is the best gamma over all starts and steps and ``maximizer``
    the unit vector that attained it (of a stack: arrays, one entry per
    matrix). Each half step is one ``duality_rows`` call of
    ``LpSpace(n, p)`` or its dual, which raises only ratios to a power, so
    the iteration works at any scale whose norms are finite; an operator
    whose live iterates overflow raises ConvergenceFailure. A p that
    ``LpSpace`` refuses raises InvalidP.
    """
    a = as_stack(a, square=True)
    lead, n = a.shape[:-2], a.shape[-1]
    space = LpSpace(n, p)
    if p == 2.0:
        _, s, vh = np.linalg.svd(a)
        return LpNormEstimate(value=_scalar(s[..., 0]), method="svd", maximizer=vh[..., 0, :].conj())
    dual = LpSpace(n, space.q)
    a = a.reshape(-1, n, n)
    count = a.shape[0]
    head = np.vstack([np.eye(n, dtype=np.complex128)[: min(n, 3)], np.ones((1, n), dtype=np.complex128)])
    tail = Rng(substream(_LP_NORM_SEED, n)).matrix(_LP_NORM_STARTS, n)
    others = np.vstack([head, tail])
    with np.errstate(over="ignore", invalid="ignore"):  # an |a_ij| that overflows is refused below
        ritz = _ritz_start(a, others)
    starts = np.insert(np.broadcast_to(others, (count, *others.shape)), len(head), ritz, axis=1)
    x = starts / space.norm_rows(starts)[..., None]

    # x[i, j] is an iterate for the matrix held[i], of the start whose
    # best_* entry is at flat index pos[i, j], going while live[i, j] (None
    # while every entry is going, as it always is for a single matrix)
    best = np.zeros(x.shape[:2])
    best_x = x.copy()
    pos = np.arange(best.size).reshape(best.shape)
    live = None
    held, held_conj = a, a.conj()

    def drop(keep: np.ndarray) -> None:
        """Go on with the entries ``keep`` marks; drop the starts and the
        matrices left with none."""
        nonlocal x, gamma, pos, live, held, held_conj
        row, col = keep.any(axis=1), keep.any(axis=0)
        if not row.all():  # copies the matrices, so only when one is done
            held, held_conj = held[row], held_conj[row]
            keep, x, gamma, pos = keep[row], x[row], gamma[row], pos[row]
        if not col.all():
            keep, x, gamma, pos = keep[:, col], x[:, col], gamma[:, col], pos[:, col]
        live = None if keep.all() else keep

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_LP_NORM_MAX_ITER):
            gamma, psi = space.duality_rows(x @ held.mT)  # rows are ||A x||_p and psi(A x)
            z = psi @ held_conj  # rows are A* psi
            zq, x_next = dual.duality_rows(z)
            finite = np.isfinite(gamma) & np.isfinite(zq)
            if live is not None:
                finite |= ~live
            if not finite.all():
                bad = held[np.argmax(~finite.all(axis=1))]  # the first matrix that failed
                top = float(np.abs(bad.view(np.float64)).max())  # |a_ij| itself may overflow
                raise ConvergenceFailure(
                    f"lp norm iteration left the floating-point range at p = {p}"
                    f" for an operator with max(|Re a_ij|, |Im a_ij|) = {top:.3e}"
                )
            up = gamma > np.take(best, pos)
            if live is not None:
                up &= live
            at = pos[up]
            best.flat[at] = gamma[up]
            best_x.reshape(-1, n)[at] = x[up]
            stalled = zq <= (z.conj() * x).sum(axis=-1).real * (1.0 + 1e-14)
            going = (gamma != 0.0) & ~stalled
            if live is not None:
                going &= live
            if not going.any():
                break
            x = x_next
            if live is not None or not going.all():
                drop(going)
            if x.shape[1] == 1:  # one start per matrix: nothing to merge
                continue
            # a start whose next iterate is parallel to that of a better one
            # of its matrix (larger gamma, or equal gamma and a lower index) stops
            c = x.conj() @ x.mT
            norms = np.sqrt(c.real.diagonal(axis1=-2, axis2=-1))
            parallel = np.abs(c) >= (1.0 - _LP_NORM_MERGE) * (norms[:, :, None] * norms[:, None, :])
            if live is not None:
                parallel &= live[:, :, None] & live[:, None, :]
            if np.count_nonzero(parallel) > (x.shape[0] * x.shape[1] if live is None else np.count_nonzero(live)):
                better = (gamma[:, None, :] > gamma[:, :, None]) | (
                    (gamma[:, None, :] == gamma[:, :, None]) & np.tri(x.shape[1], k=-1, dtype=bool)
                )
                keep = ~(parallel & better).any(axis=-1)
                drop(keep if live is None else keep & live)
    pick = np.arange(count), np.argmax(best, axis=1)
    return LpNormEstimate(
        value=_scalar(best[pick].reshape(lead)), method="power", maximizer=best_x[pick].reshape(*lead, n)
    )


@dataclass(frozen=True)
class LaxDiagnostic:
    """Boundedness report for an operator on the embedded Hilbert structure.

    ``bound`` is sqrt(cond(G)) * dim^|1/2 - 1/p|, derived from the Gram
    factorization and the p<->2 norm equivalence on C^n; the measured
    ``ratio = norm_h / norm_b`` always sits below it (norm_b is estimated
    from below, so the reported ratio is an upper estimate). Of a stack,
    every field but ``bound`` and ``method`` is an array, one entry per
    matrix.
    """

    is_h_selfadjoint: bool | np.ndarray
    norm_h: float | np.ndarray
    norm_b: float | np.ndarray
    ratio: float | np.ndarray
    bound: float
    selfadjoint_residual: float | np.ndarray
    method: str


# A is called H-selfadjoint when ||G A - (G A)*|| / (1 + ||G A||) is at most
# _SELFADJOINT_REL * max(1, scale): a tolerance scale only widens the test
_SELFADJOINT_REL = 1e-10


def lax_diagnostic(k: KuelbsEmbedding, a, *, tols: Tolerances = DEFAULT) -> LaxDiagnostic:
    """The Lax report of a square matrix, or of each matrix of a stack
    (..., n, n) with one ``lp_operator_norm`` call for the whole stack."""
    a = as_stack(a, square=True)
    if a.shape[-1] != k.space.dim:
        raise DimensionMismatch("operator dimension does not match the embedding")
    m = k.metric
    ga = m.apply(a)
    resid = fro(ga - herm(ga)) / (1.0 + fro(ga))
    frame = m.to_frame(a)
    # ||a||_H is the frame's top singular value, the root of the top
    # eigenvalue of its Gram, which keeps full relative accuracy
    top = np.linalg.eigvalsh(herm(frame) @ frame)[..., -1]
    norm_h = _scalar(np.sqrt(np.maximum(top, 0.0)))
    est = lp_operator_norm(a, k.space.p)
    return LaxDiagnostic(
        is_h_selfadjoint=resid <= _SELFADJOINT_REL * max(1.0, tols.scale),
        norm_h=norm_h,
        norm_b=est.value,
        ratio=_scalar(norm_h / np.where(est.value > 0, est.value, math.inf)),
        bound=math.sqrt(m.eig_max / m.eig_min) * k.space.distortion,
        selfadjoint_residual=resid,
        method=est.method,
    )
