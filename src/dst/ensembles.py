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


def generate(ens: Ensemble) -> np.ndarray:
    """All ``count`` matrices of the ensemble as one (count, n, n) stack
    in index order, drawn from all substreams at once, each equal bit for
    bit to its draw alone; an h_selfadjoint ensemble factors its Gram once
    for all draws, as a :class:`~dst.kuelbs.GramMetric` (no LAPACK call for
    a diagonal Gram; a Gram that is not positive definite raises SingularGram)."""
    n, r = ens.dim, ens.rank
    rows, cols = (2, n * r) if ens.kind == "rankdef" else (n, n)  # rankdef draws B (n x r), then C (r x n)
    draws = Rng(substream(ens.seed, np.arange(ens.count))).matrix(rows, cols)
    if ens.kind == "general":
        return draws
    if ens.kind == "rankdef":
        return draws[:, 0].reshape(-1, n, r) @ draws[:, 1].reshape(-1, r, n)
    if ens.kind == "negdef":
        return -(draws @ herm(draws) + _NEGDEF_SHIFT * np.eye(n))
    h = (draws + herm(draws)) / 2.0
    if ens.kind == "hermitian":
        return h
    # h_selfadjoint: inv(L*) H L* with L* of G = L L*
    gram = as_matrix(ens.gram, square=True)
    gram.setflags(write=False)  # a fresh array: the metric may keep it uncopied
    ell_h = GramMetric(gram).chol_h
    return np.linalg.solve(ell_h, h @ ell_h)
