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
same code paths as all others. A model is read off its action in one
walk of the torus-fixed points (_model): per point, the deformation
count of the primitive direction of alpha + beta and the point's
contribution to b2; per distinct normal form, the least log numerator
of its chain and its Gorenstein index. The action's family, volume and
b2_base are read once, off the action. local_model walks the points
raw, as quotsurf._points yields them, and builds no surface record;
evaluate_model walks the singular locus of a surface it is given. The
stack dimension and whether the surface is isolated follow from the
fields, so the record reads them as properties.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .cqsing import _min_log_numerator, _require_record
from .quotsurf import (
    _PRESET_AUT0_DIM,
    CyclicAction,
    SurfaceModel,
    _points,
    _volume_and_b2,
    rational_json,
)
from .torusgit import _direction_rank, _quotient_dim, _require_ints

FAMILIES = ("X", "Y")
# table builds one model per order of its range, counted from 2 (5,000 X
# orders take about 0.55 s as JSON in the CLI, process start included,
# on one Xeon core under Python 3.11), and refuses a wider range before
# building anything
MAX_TABLE_SPAN = 5_000


class LocalModuliModel(NamedTuple):
    """The local K-moduli picture at one quotient surface.

    coarse_dim is the dimension of the affine GIT quotient of the
    deformation space by the residual 2-torus; kernel_rank is the
    dimension of the subtorus acting trivially on the deformation
    space. Two properties are read off the fields: stack_dim =
    qdef_dim - aut_dim, and isolated, whether the origin is the only
    polystable orbit, i.e. the surface is an isolated point of the
    coarse moduli space; that is coarse_dim == 0, as a nonempty
    polystable support has positive quotient dimension.

    _model builds this record; the constructor checks no field,
    and no entry point of the library takes one.
    """

    family: str
    l: int
    qdef_dim: int
    aut_dim: int
    coarse_dim: int
    kernel_rank: int
    volume: Fraction
    min_discrepancy: Fraction
    gorenstein_index: int
    b2_generic: int

    @property
    def surface_id(self) -> str:
        return f"{self.family}_{self.l}"

    @property
    def stack_dim(self) -> int:
        return self.qdef_dim - self.aut_dim

    @property
    def isolated(self) -> bool:
        return self.coarse_dim == 0

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
    """The family's action of order l. The CyclicAction constructor
    checks l: an int (a bool is refused) of at least 2, else ValueError."""
    if family == "X":
        return CyclicAction.x_family(l)
    if family == "Y":
        return CyclicAction.y_family(l)
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def local_model(family: str, l: int) -> LocalModuliModel:
    """The model of the family's surface of order l, in O(log l): one
    walk (_model) of the torus-fixed points of its action, read raw off
    quotsurf._points, so no SurfaceModel and no FixedPointRecord is
    built."""
    action = action_for(family, l)
    return _model(action, _points(action))


def evaluate_model(surface: SurfaceModel) -> LocalModuliModel:
    """The local moduli model of a surface: the walk of _model over the
    singular locus the surface's constructor derived from its action. An
    argument that is not a SurfaceModel raises ValueError."""
    _require_record(surface, SurfaceModel)
    return _model(surface.action, surface.singular_locus)


def _model(action: CyclicAction, points) -> LocalModuliModel:
    """The local moduli model of the quotient by action, in one walk of
    its points: the records of its singular locus, or the same tuples
    (label, chart weights, chart characters, classification) raw from
    quotsurf._points.

    The family of the model is the one of the action
    (CyclicAction.family, read once). Only the two family presets have
    a moduli model, so an action with no family raises ValueError; the
    model's aut_dim (the residual 2-torus of a preset), the volume and
    b2_base are read off the same action (quotsurf._volume_and_b2), so
    they cannot disagree with it.

    Every point is 1/l(1, q) with l >= 2, the order of the action
    (quotsurf), and a preset's points are A_{l-1}, 1/l(1,1) and
    1/l(1,2), each rigid, Du Val or T, so each has a known deformation
    dimension. The walk reads each point's classification and builds
    no character and no weight matrix:
      * per point: a deforming point adds its qdef_dim to the deformation
        dimension and to the count of the primitive direction of alpha +
        beta, as every character of its block is a positive multiple of
        alpha + beta (assemble_qdef); and its smoothing_b2 to b2_generic;
      * per distinct normal form, the first time it is met: the least
        integer numerator of its chain (_min_log_numerator, the run form
        of the chain walk, so the cost grows as log l) and its Gorenstein
        index r, whose lcm is the surface's.
    The least numerator starts at l, as no log discrepancy exceeds 1,
    and one Fraction is built for the minimal discrepancy. The coarse
    dimension and the kernel rank of the residual 2-torus are read off
    the cached support cut and ranks of the direction multiset
    (_quotient_dim, _direction_rank). aut_dim is the dimension of the
    connected reductive automorphism group (finite factors are ignored,
    and finite quotients do not change any dimension reported here).
    """
    family = action.family
    if family is None:
        raise ValueError(
            f"no automorphism dimension is known for {action}: "
            "only the X and Y family actions have a moduli model"
        )
    l = action.order
    volume, b2 = _volume_and_b2(action)
    qdef_dim, counts, forms = 0, {}, set()
    low, index = l, 1
    for _, _, ((a0, a1), (b0, b1)), cls in points:
        if dim := cls.qdef_dim:
            x, y = a0 + b0, a1 + b1
            g = gcd(x, y)
            d = (x // g, y // g)
            counts[d] = counts.get(d, 0) + dim
            qdef_dim += dim
        b2 += cls.smoothing_b2
        if (q := cls.normal_form.q) not in forms:
            forms.add(q)
            low = min(low, _min_log_numerator(l, q))
            index = lcm(index, cls.r)
    dirs = frozenset(counts)
    return LocalModuliModel(
        family,
        l,
        qdef_dim,
        _PRESET_AUT0_DIM,
        _quotient_dim(counts, 0, dirs),
        2 - _direction_rank(dirs),
        volume,
        Fraction(low - l, l),
        index,
        b2,
    )


def table(family: str, l_min: int, l_max: int) -> list[LocalModuliModel]:
    """One model per valid order in [l_min, l_max], in increasing order.

    The X family runs over every l >= 2 in the range, the Y family over
    odd l >= 3 only. An empty range yields an empty list. Both bounds
    must be ints, and the range from max(l_min, 2) to l_max may span at
    most MAX_TABLE_SPAN orders, for either family; else ValueError.
    """
    _require_ints(l_min=l_min, l_max=l_max)
    if (span := l_max - max(l_min, 2) + 1) > MAX_TABLE_SPAN:
        raise ValueError(
            f"range too wide: table builds one model per order, and {l_min}..{l_max} "
            f"spans {span} orders, above the table limit of {MAX_TABLE_SPAN}"
        )
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
