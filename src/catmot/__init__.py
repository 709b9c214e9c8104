"""catmot: exact Catalan and Motzkin numbers, a catalog of their integral
representations, generic Catalan-to-Motzkin transforms, and the quadrature
machinery to verify every representation against the exact values.
"""

__version__ = "0.1.0"

from .catalog import (
    Family,
    Representation,
    Singularity,
    VerificationRow,
    get_representation,
    list_representations,
    verify,
)
from .exact import catalan, motzkin, motzkin_oracle
from .polys import psi_difference
from .quadrature import (
    QuadConfig,
    QuadratureResult,
    adaptive_gk,
    integrate_semi_infinite,
    tanh_sinh,
)
from .transform import CatalanForm, ComparisonMode, check_lemma1, motzkin_representation

__all__ = [
    "CatalanForm",
    "ComparisonMode",
    "Family",
    "QuadConfig",
    "QuadratureResult",
    "Representation",
    "Singularity",
    "VerificationRow",
    "__version__",
    "adaptive_gk",
    "catalan",
    "check_lemma1",
    "get_representation",
    "integrate_semi_infinite",
    "list_representations",
    "motzkin",
    "motzkin_oracle",
    "motzkin_representation",
    "psi_difference",
    "tanh_sinh",
    "verify",
]
