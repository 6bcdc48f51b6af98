"""Local K-moduli models of the quotient del Pezzo families.

Combines the surface construction, the local deformation spaces, and
the torus GIT engine into one record per surface: the dimension of the
deformation space, of the moduli stack (deformations minus
automorphisms), and of the local coarse space (the affine GIT quotient
of the deformation space by the residual 2-torus), together with the
invariants that witness unboundedness (volume, minimal discrepancy,
Gorenstein index, second Betti number of the generic smoothing).

Every field is computed by the generic pipeline; the special orders
(l = 2, 4 in the X family, l = 3, 9 in the Y family) flow through the
same code paths as all others.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cqsing import gorenstein_index, min_discrepancy
from .quotsurf import (
    CyclicAction,
    QDefModel,
    SurfaceModel,
    assemble_qdef,
    betti_of_generic_smoothing,
    build_surface,
    rational_json,
)
from .torusgit import GITResult, analyze

FAMILIES = ("X", "Y")


@dataclass(frozen=True)
class LocalModuliModel:
    """The local K-moduli picture at one quotient surface.

    stack_dim = qdef_dim - aut_dim always; coarse_dim is the dimension
    of the affine GIT quotient of the deformation space by the residual
    2-torus; kernel_rank is the dimension of the subtorus acting
    trivially on the deformation space. isolated records whether the
    origin is the only polystable orbit, i.e. the surface is an
    isolated point of the coarse moduli space; that is coarse_dim == 0,
    as a nonempty polystable support has positive quotient dimension.
    """

    family: str
    l: int
    qdef_dim: int
    aut_dim: int
    stack_dim: int
    coarse_dim: int
    kernel_rank: int
    isolated: bool
    volume: Fraction
    min_discrepancy: Fraction
    gorenstein_index: int
    b2_generic: int

    @property
    def surface_id(self) -> str:
        return f"{self.family}_{self.l}"

    def to_json_dict(self) -> dict:
        return {
            "surface_id": {"family": self.family, "l": self.l},
            "qdef_dim": self.qdef_dim,
            "aut_dim": self.aut_dim,
            "stack_dim": self.stack_dim,
            "coarse_dim": self.coarse_dim,
            "kernel_rank": self.kernel_rank,
            "isolated": self.isolated,
            "volume": rational_json(self.volume),
            "min_discrepancy": rational_json(self.min_discrepancy),
            "gorenstein_index": self.gorenstein_index,
            "b2_generic": self.b2_generic,
        }


def action_for(family: str, l: int) -> CyclicAction:
    if family == "X":
        return CyclicAction.x_family(l)
    if family == "Y":
        return CyclicAction.y_family(l)
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def local_model(family: str, l: int) -> LocalModuliModel:
    """Build the surface, assemble its deformation space, and quotient."""
    surface = build_surface(action_for(family, l))
    return evaluate_model(family, surface, assemble_qdef(surface))


def evaluate_model(
    family: str, surface: SurfaceModel, qdef: QDefModel
) -> LocalModuliModel:
    """The local moduli model of a built surface and its deformation space.

    aut_dim is the dimension of the connected reductive automorphism
    group (the residual torus; finite factors are ignored, and finite
    quotients do not change any dimension reported here).
    """
    aut = surface.aut0_dim
    # no deformations: the quotient is a point and the whole 2-torus acts trivially
    git = analyze(qdef.weight_system()) if qdef.total_dim else GITResult(0, 2, 0)
    min_disc = min(min_discrepancy(r.singularity) for r in surface.singular_locus)
    index = lcm(*(gorenstein_index(r.singularity) for r in surface.singular_locus))
    return LocalModuliModel(
        family=family,
        l=surface.action.order,
        qdef_dim=qdef.total_dim,
        aut_dim=aut,
        stack_dim=qdef.total_dim - aut,
        coarse_dim=git.quotient_dim,
        kernel_rank=git.kernel_rank,
        isolated=git.quotient_dim == 0,
        volume=surface.volume,
        min_discrepancy=min_disc,
        gorenstein_index=index,
        b2_generic=betti_of_generic_smoothing(surface),
    )


def table(family: str, l_min: int, l_max: int) -> list[LocalModuliModel]:
    """One model per valid order in [l_min, l_max], in increasing order.

    The X family runs over every l >= 2 in the range, the Y family over
    odd l >= 3 only. An empty range yields an empty list.
    """
    if family == "X":
        orders = range(max(l_min, 2), l_max + 1)
    elif family == "Y":
        start = max(l_min, 3)
        start += 1 - start % 2
        orders = range(start, l_max + 1, 2)
    else:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    return [local_model(family, l) for l in orders]


def _smallest_x_order(target: int) -> int:
    # coarse dims run 2, 3, 6, 7, 9, 11, ... = 2l-3 away from l in {2, 4}
    if target <= 2:
        return 2
    if target == 3:
        return 3
    if target <= 6:
        return 4
    return -(-(target + 3) // 2)


def _smallest_y_order(target: int) -> int:
    # stack dims over odd l run 4, 2, 4, 8, 8, 10, ... = l-3 away from l in {3, 9}
    if target <= 4:
        return 3
    if target <= 8:
        return 9
    l = target + 3
    return l if l % 2 == 1 else l + 1


def witness_model(family: str, target_dim: int) -> LocalModuliModel:
    """The model at the smallest valid order whose dimension reaches target_dim.

    Dimension means coarse_dim for the X family and stack_dim for the Y
    family. The closed formulas invert the dimension sequences; the
    model at the returned order is built by the engine and checked.
    """
    if target_dim < 0:
        raise ValueError(f"target_dim must be nonnegative, got {target_dim}")
    if family == "X":
        model = local_model("X", _smallest_x_order(target_dim))
        achieved = model.coarse_dim
    elif family == "Y":
        model = local_model("Y", _smallest_y_order(target_dim))
        achieved = model.stack_dim
    else:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if achieved < target_dim:
        raise RuntimeError(
            f"witness formula for {family} returned l = {model.l} with dimension "
            f"{achieved} < {target_dim}"
        )
    return model


def unboundedness_witness(family: str, target_dim: int) -> int:
    """The smallest valid order whose moduli dimension reaches target_dim."""
    return witness_model(family, target_dim).l
