"""dst: deformed spectral representations at matrix scale.

Polar decompositions with genuine partial isometries, projection-valued
and deformed spectral measures with their functional calculus, lp duality
maps and embedded Hilbert inner products, Gram-metric adjoints with
resolvent approximants, and a deterministic verification harness.
"""

__version__ = "0.1.0"

from .config import DEFAULT, Tolerances
from .errors import ToolkitError
from .gexpr import evaluate, parse
from .kuelbs import (
    KuelbsEmbedding,
    LpSpace,
    build_kuelbs,
    canonical_duality_map,
    lax_diagnostic,
    lp_operator_norm,
    steadman,
)
from .linalg import EigenSystem, SvdResult, hermitian_eigen, svd, vnorm
from .polar import PolarDecomposition, intertwining_check, polar_decompose
from .spectral import (
    SpectralMeasure,
    deform,
    deformed_of,
    integrate,
    quadratic_form,
    spectral_measure,
    variation,
)

__all__ = [
    "__version__",
    "Tolerances",
    "DEFAULT",
    "ToolkitError",
    "parse",
    "evaluate",
    "EigenSystem",
    "SvdResult",
    "hermitian_eigen",
    "svd",
    "vnorm",
    "PolarDecomposition",
    "polar_decompose",
    "intertwining_check",
    "SpectralMeasure",
    "spectral_measure",
    "deform",
    "deformed_of",
    "integrate",
    "quadratic_form",
    "variation",
    "LpSpace",
    "KuelbsEmbedding",
    "canonical_duality_map",
    "build_kuelbs",
    "steadman",
    "lp_operator_norm",
    "lax_diagnostic",
]
