"""Exact barycentric triangle geometry.

A kernel for homogeneous barycentric computation over Q and real quadratic
extensions Q(sqrt(d)), the conic constructions attached to a driving point
(cevian conic, circumconic with given center, inconic, nine-point conics),
and a zero-tolerance verifier for the theorems relating them.
"""

from .scalar import Scalar, NoRealRoots
from .projective import (
    AffineMap,
    Line,
    Point,
    anticomplement,
    complement,
    complement_map,
    isotomic,
    join,
    meet,
    midpoint,
)
from .conics import (
    Conic,
    conic_through_five,
    inconic_with_contacts,
    nine_point_conic,
    steiner_circumellipse,
)
from .constructions import (
    Centers,
    ConstructionSet,
    anticevian_family,
    construct,
    degeneracy_report,
    locus_conic,
    sample_nondegenerate,
    special_configuration_point,
)
from .verify import run_point, run_suite, DOCUMENTED_CHECKS

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "Centers",
    "Conic",
    "ConstructionSet",
    "DOCUMENTED_CHECKS",
    "Line",
    "NoRealRoots",
    "Point",
    "Scalar",
    "anticevian_family",
    "anticomplement",
    "complement",
    "complement_map",
    "conic_through_five",
    "construct",
    "degeneracy_report",
    "inconic_with_contacts",
    "isotomic",
    "join",
    "locus_conic",
    "meet",
    "midpoint",
    "nine_point_conic",
    "run_point",
    "run_suite",
    "sample_nondegenerate",
    "special_configuration_point",
    "steiner_circumellipse",
]
