"""Deterministic matrix ensembles for the verification suites.

Generation is a pure function of (kind, dim, count, seed): matrix ``k`` of
an ensemble draws from substream ``k`` of the seed (see ``rng``), so any
subset can be regenerated independently and in any order.

Kind contracts:

* ``general``       -- entries uniform on [-1,1) x [-1,1)i
* ``hermitian``     -- (R + R*)/2 of a general draw
* ``negdef``        -- -(R R* + 0.5 I); eigenvalues <= -0.5
* ``rankdef``       -- B C with B (n x r), C (r x n); numerical rank r
* ``h_selfadjoint`` -- inv(L*) H L* with H Hermitian and G = L L*:
                       selfadjoint for the Gram inner product
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadRank, ConfigError
from .kuelbs import GramMetric
from .linalg import as_matrix, herm
from .rng import Rng, substream

__all__ = ["Ensemble", "generate", "KINDS"]

KINDS = ("general", "hermitian", "negdef", "rankdef", "h_selfadjoint")

_NEGDEF_SHIFT = 0.5


@dataclass(frozen=True)
class Ensemble:
    kind: str
    dim: int
    count: int
    seed: int
    rank: int | None = None
    gram: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown ensemble kind {self.kind!r}")
        if self.dim < 1 or self.count < 1:
            raise ConfigError("dim and count must be positive")
        if self.kind == "rankdef":
            if self.rank is None:
                raise ConfigError("rankdef ensembles need a rank")
            if not (1 <= self.rank <= self.dim):
                raise BadRank(f"rank {self.rank} out of range for dim {self.dim}")
        if self.kind == "h_selfadjoint" and self.gram is None:
            raise ConfigError("h_selfadjoint ensembles need a gram matrix")


def _one(ens: Ensemble, rng: Rng, ell_h: np.ndarray | None) -> np.ndarray:
    n = ens.dim
    if ens.kind == "general":
        return rng.matrix(n, n)
    if ens.kind == "hermitian":
        r = rng.matrix(n, n)
        return (r + herm(r)) / 2.0
    if ens.kind == "negdef":
        r = rng.matrix(n, n)
        return -(r @ herm(r) + _NEGDEF_SHIFT * np.eye(n))
    if ens.kind == "rankdef":
        b = rng.matrix(n, ens.rank)
        c = rng.matrix(ens.rank, n)
        return b @ c
    # h_selfadjoint; ell_h is L* of G = L L*
    r = rng.matrix(n, n)
    h = (r + herm(r)) / 2.0
    return np.linalg.solve(ell_h, h @ ell_h)


def generate(ens: Ensemble) -> list[np.ndarray]:
    """All ``count`` matrices of the ensemble, in index order; an
    h_selfadjoint ensemble factors its Gram once for all draws, as a
    :class:`~dst.kuelbs.GramMetric` (no LAPACK call for a diagonal Gram;
    a Gram that is not positive definite raises SingularGram)."""
    ell_h = None
    if ens.kind == "h_selfadjoint":
        ell_h = GramMetric(as_matrix(ens.gram, square=True)).chol_h
    return [_one(ens, Rng(substream(ens.seed, k)), ell_h) for k in range(ens.count)]
