"""The three-pass evaluation of a local model, kept as an oracle for the
one walk of moduli.evaluate_model.

It walks the singular locus three times: qdef_directions for the
deformation dimension and the multiset of primitive directions, a dict
of the distinct forms for the minimal discrepancy and the Gorenstein
index, and betti_by_kind for the second Betti number, which adds n - 1
for a Du Val point and m - 1 for any other T point in two branches. The
first and the third walk refuse a point with unknown deformation
theory, naming it (known_classification).
"""

from fractions import Fraction
from math import gcd, lcm

from kmoduli.cqsing import (
    SingularityClassification,
    UnknownDeformationError,
    _check_singular,
    _min_log_numerator,
)
from kmoduli.moduli import LocalModuliModel
from kmoduli.quotsurf import Character, FixedPointRecord, SurfaceModel
from kmoduli.torusgit import _direction_rank, _quotient_dim


def known_classification(record: FixedPointRecord) -> SingularityClassification:
    """The classification a point holds; an unknown deformation theory
    is an error naming the point."""
    cls = record.classification
    if cls.qdef_dim is None:
        raise UnknownDeformationError(
            f"point {record.point_label}: no deformation dimension known "
            f"for {record.singularity.display()}"
        )
    return cls


def qdef_directions(surface: SurfaceModel) -> tuple[int, dict[Character, int]]:
    """The dimension of the deformation space and the multiset of the
    primitive directions of its torus characters, in O(points).

    Every character of a point's block is a positive multiple of
    alpha + beta at the point (assemble_qdef), so a deforming point
    adds qdef_dim to the count of the primitive direction of alpha +
    beta; no character is built. This is the multiset of the columns
    of assemble_qdef(surface).weight_matrix, up to positive scaling.
    """
    total = 0
    counts: dict[Character, int] = {}
    for record in surface.singular_locus:
        if dim := known_classification(record).qdef_dim:
            (a0, a1), (b0, b1) = record.local_torus_weights
            x, y = a0 + b0, a1 + b1
            g = gcd(x, y)
            d = (x // g, y // g)
            counts[d] = counts.get(d, 0) + dim
            total += dim
    return total, counts


def betti_by_kind(surface: SurfaceModel) -> int:
    """b2_base, plus n - 1 per Du Val point A_{n-1} and m - 1 per other
    T point; rigid points add nothing."""
    total = surface.b2_base
    for record in surface.singular_locus:
        cls = known_classification(record)
        if cls.is_du_val:
            total += record.singularity.order - 1
        elif cls.is_T:
            total += cls.m - 1
    return total


def three_pass_model(surface: SurfaceModel) -> LocalModuliModel:
    """The model of a preset surface, one walk of the locus per fact."""
    family = surface.action.family
    assert family is not None, surface.action
    qdef_dim, counts = qdef_directions(surface)
    dirs = frozenset(counts)
    coarse_dim = _quotient_dim(counts, 0, dirs)
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
        surface.aut0_dim,
        coarse_dim,
        2 - _direction_rank(dirs),
        surface.volume,
        Fraction(num, den),
        index,
        betti_by_kind(surface),
    )
