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

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .cqsing import _check_singular, _min_log_numerator
from .quotsurf import (
    CyclicAction,
    SurfaceModel,
    betti_of_generic_smoothing,
    build_surface,
    qdef_directions,
    rational_json,
)
from .torusgit import _direction_rank, _quotient_dim, _require_ints

FAMILIES = ("X", "Y")


class LocalModuliModel(NamedTuple):
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
    """The family's action of order l; l must be an int (bools are
    refused, as in WeightSystem)."""
    _require_ints(l=l)
    if family == "X":
        return CyclicAction.x_family(l)
    if family == "Y":
        return CyclicAction.y_family(l)
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def local_model(family: str, l: int) -> LocalModuliModel:
    """Build the surface and evaluate its model, in O(log l)."""
    return evaluate_model(family, build_surface(action_for(family, l)))


def evaluate_model(family: str, surface: SurfaceModel) -> LocalModuliModel:
    """The local moduli model of a built surface.

    The dimension of the deformation space and the GIT input, the
    multiset of the primitive directions of its characters, come from
    one pass over the singular locus (qdef_directions); no character
    and no weight matrix is built. The coarse dimension and the kernel
    rank of the residual 2-torus are read off the cached support cut
    and ranks of that direction set (_quotient_dim, _direction_rank).
    Each distinct form gives the least integer numerator of its chain
    (_min_log_numerator, the run form of the chain walk), so the cost
    grows as log l; the minimal discrepancy is compared across the forms
    as integer pairs (numerator - n, n) by cross-multiplication, exact
    also for points of different orders, and one Fraction is built for
    the least. aut_dim is the dimension of the
    connected reductive automorphism group (the residual torus; finite
    factors are ignored, and finite quotients do not change any
    dimension reported here).
    """
    aut = surface.aut0_dim
    if aut is None:
        raise ValueError(
            f"no automorphism dimension is known for {surface.action}: "
            "only the X and Y family actions have a moduli model"
        )
    qdef_dim, counts = qdef_directions(surface)
    dirs = frozenset(counts)
    coarse_dim = _quotient_dim(counts, 0, dirs)
    # the search starts above every discrepancy, at 1 / 0; classification.r
    # is the Gorenstein index n / gcd(n, q + 1)
    forms = {p.singularity: p.classification for p in surface.singular_locus}
    num, den, index = 1, 0, 1
    for nf, cls in forms.items():
        _check_singular(nf)
        n = nf.order
        low = _min_log_numerator(n, nf.q) - n
        if low * den < num * n:
            num, den = low, n
        index = lcm(index, cls.r)
    if not den:
        raise ValueError(f"the surface of {surface.action} has no singular point")
    return LocalModuliModel(
        family,
        surface.action.order,
        qdef_dim,
        aut,
        qdef_dim - aut,
        coarse_dim,
        2 - _direction_rank(dirs),
        coarse_dim == 0,
        surface.volume,
        Fraction(num, den),
        index,
        betti_of_generic_smoothing(surface),
    )


def table(family: str, l_min: int, l_max: int) -> list[LocalModuliModel]:
    """One model per valid order in [l_min, l_max], in increasing order.

    The X family runs over every l >= 2 in the range, the Y family over
    odd l >= 3 only. An empty range yields an empty list. Both bounds
    must be ints.
    """
    _require_ints(l_min=l_min, l_max=l_max)
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


def witness_dim(model: LocalModuliModel) -> tuple[str, int]:
    """The kind and value of the dimension an order witness reaches:
    coarse_dim for the X family, stack_dim for the Y family."""
    if model.family == "X":
        return "coarse", model.coarse_dim
    return "stack", model.stack_dim


def witness_model(family: str, target_dim: int) -> LocalModuliModel:
    """The model at the smallest valid order whose dimension reaches target_dim.

    Dimension means witness_dim. The closed formulas invert the
    dimension sequences; the model at the returned order is built by
    the engine and checked. target_dim must be an int.
    """
    _require_ints(target_dim=target_dim)
    if target_dim < 0:
        raise ValueError(f"target_dim must be nonnegative, got {target_dim}")
    smallest = _smallest_x_order if family == "X" else _smallest_y_order
    model = local_model(family, smallest(target_dim))
    _, achieved = witness_dim(model)
    if achieved < target_dim:
        raise RuntimeError(
            f"witness formula for {family} returned l = {model.l} with dimension "
            f"{achieved} < {target_dim}"
        )
    return model


def unboundedness_witness(family: str, target_dim: int) -> int:
    """The smallest valid order whose moduli dimension reaches target_dim."""
    return witness_model(family, target_dim).l
