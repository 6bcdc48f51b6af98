"""Exact local models of K-moduli near cyclic quotient del Pezzo surfaces.

The package computes, in exact arithmetic, the local structure of the
K-moduli space at the surfaces X_l = (P1 x P1)/Z_l and Y_l = P2/Z_l:
singularity classification, Q-Gorenstein deformation spaces with their
torus weights, affine GIT quotient dimensions and polystability, and the
resulting stack / coarse moduli dimensions.

Importing the package loads none of its four layers (cqsing, quotsurf,
torusgit, moduli): each public name below is looked up in its layer
when it is read (PEP 562), and a layer loads the first time one of its
names is read, so a command-line request compiles only the layers it
runs.
"""

from importlib import import_module

_EXPORTS = {
    "cqsing": (
        "DiscrepancyVector",
        "HJResolution",
        "NonIsolatedError",
        "NormalForm",
        "SingularityClassification",
        "UnknownDeformationError",
        "classify",
        "discrepancies",
        "hirzebruch_jung",
        "min_discrepancy",
        "parse_singularity",
    ),
    "moduli": (
        "LocalModuliModel",
        "local_model",
        "table",
        "unboundedness_witness",
    ),
    "quotsurf": (
        "CyclicAction",
        "FixedPointRecord",
        "QDefModel",
        "SurfaceModel",
        "assemble_qdef",
        "build_surface",
    ),
    "torusgit": (
        "EnumerationBudgetError",
        "SupportPoint",
        "WeightSystem",
        "destabilizing_limit",
        "in_rational_cone",
        "invariant_monomials",
        "is_polystable",
        "kernel_rank",
        "largest_polystable_support",
        "open_half_space_certificate",
        "quotient_dim",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_LAYER_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
