"""Tolerance configuration threaded through every entry point.

A single frozen record holds the numerical thresholds; every library
function that cuts, clusters or checks takes them from its ``tols`` argument
(default :data:`DEFAULT`), never from a per-call override. Thresholds that
depend on the problem size default to dimension-scaled machine epsilon. The
``scale`` field multiplies everything and is wired to the ``DST_TOL_SCALE``
environment variable by the CLI (useful on hardware with unusual rounding).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    scale: float = 1.0
    # relative Hermiticity defect accepted by eigendecompositions
    hermitian_rel: float = 1e-8
    # eigenvalues closer than cluster_rel*(1+|lambda|) merge into one projector
    cluster_rel: float = 1e-8
    # atoms below -support_rel*(1+max|lambda|) are rejected when deforming
    support_rel: float = 1e-10
    # singular values <= rank_rel*sigma_max count as zero; None -> n*eps
    rank_rel: float | None = None

    def rank_threshold_rel(self, n: int) -> float:
        rel = self.rank_rel if self.rank_rel is not None else n * EPS
        return rel * self.scale

    def hermitian_tol(self) -> float:
        return self.hermitian_rel * self.scale

    def cluster_tol(self) -> float:
        return self.cluster_rel * self.scale

    def support_tol(self) -> float:
        return self.support_rel * self.scale


DEFAULT = Tolerances()


def from_env() -> Tolerances:
    """The defaults with the DST_TOL_SCALE environment multiplier, if set."""
    raw = os.environ.get("DST_TOL_SCALE")
    if raw:
        try:
            factor = float(raw)
        except ValueError as exc:
            raise ConfigError(f"DST_TOL_SCALE is not a number: {raw!r}") from exc
        if factor <= 0.0:
            raise ConfigError(f"DST_TOL_SCALE must be positive, got {raw!r}")
        return replace(DEFAULT, scale=factor)
    return DEFAULT
