"""Exact local models of K-moduli near cyclic quotient del Pezzo surfaces.

The package computes, in exact arithmetic, the local structure of the
K-moduli space at the surfaces X_l = (P1 x P1)/Z_l and Y_l = P2/Z_l:
singularity classification, Q-Gorenstein deformation spaces with their
torus weights, affine GIT quotient dimensions and polystability, and the
resulting stack / coarse moduli dimensions.
"""

from .cqsing import (
    CyclicQuotientSingularity,
    DiscrepancyVector,
    HJResolution,
    NonIsolatedError,
    NormalForm,
    SingularityClassification,
    UnknownDeformationError,
    classify,
    discrepancies,
    gorenstein_index,
    hirzebruch_jung,
    min_discrepancy,
    normalize,
    parse_singularity,
    versal_weights,
)
from .moduli import (
    LocalModuliModel,
    local_model,
    table,
    unboundedness_witness,
)
from .quotsurf import (
    CyclicAction,
    FixedPointRecord,
    QDefModel,
    SurfaceModel,
    assemble_qdef,
    betti_of_generic_smoothing,
    build_surface,
)
from .torusgit import (
    EnumerationBudgetError,
    GITResult,
    SupportPoint,
    WeightSystem,
    analyze,
    analyze_directions,
    destabilizing_limit,
    in_rational_cone,
    invariant_monomials,
    is_polystable,
    kernel_rank,
    largest_polystable_support,
    open_half_space_certificate,
    quotient_dim,
)

__all__ = [
    "CyclicAction",
    "CyclicQuotientSingularity",
    "DiscrepancyVector",
    "EnumerationBudgetError",
    "FixedPointRecord",
    "GITResult",
    "HJResolution",
    "LocalModuliModel",
    "NonIsolatedError",
    "NormalForm",
    "QDefModel",
    "SingularityClassification",
    "SupportPoint",
    "SurfaceModel",
    "UnknownDeformationError",
    "WeightSystem",
    "analyze",
    "analyze_directions",
    "assemble_qdef",
    "betti_of_generic_smoothing",
    "build_surface",
    "classify",
    "destabilizing_limit",
    "discrepancies",
    "gorenstein_index",
    "hirzebruch_jung",
    "in_rational_cone",
    "invariant_monomials",
    "is_polystable",
    "kernel_rank",
    "largest_polystable_support",
    "local_model",
    "min_discrepancy",
    "normalize",
    "open_half_space_certificate",
    "parse_singularity",
    "quotient_dim",
    "table",
    "unboundedness_witness",
    "versal_weights",
]
