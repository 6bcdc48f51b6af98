"""Cyclic quotient del Pezzo surfaces and their deformation spaces.

Builds X_l = (P1 x P1)/Z_l and Y_l = P2/Z_l (and any other diagonal
cyclic action with isolated fixed points), locates the quotient
singularities by stabilizer analysis, and assembles the direct sum of
the local Q-Gorenstein deformation spaces together with the residual
2-torus weight matrix on it.

Both ambients are toric surfaces, and everything is read off their
torus-fixed points (Cox-Little-Schenck 3.1, 10.2). One table per
ambient (_AMBIENTS) holds its anticanonical degree, b2, the cocharacter
rule below (whose width is the action's weight count), and each fixed
point's label with the torus characters of its two chart coordinates:

  * P1 x P1: the torus (t1, t2) acts by [z0:z1] -> [t1 z0 : z1] on the
    first factor and [w0:w1] -> [t2 w0 : w1] on the second. The chart
    coordinate at [0:1] on factor f carries character e_f, the one at
    [1:0] carries -e_f.
  * P2: the torus acts by [z0:z1:z2] -> [t1 z0 : t2 z1 : z2], so the
    homogeneous coordinates carry characters (1,0), (0,1), (0,0) and
    the chart coordinate z_j/z_i at the fixed point e_i carries the
    difference.

Z_l acts through a cocharacter u of that torus: u = (w1, w2) on P1 x P1,
with w_f the weight on the first homogeneous coordinate of factor f,
and u = (w0 - w2, w1 - w2) on P2, with w_j the weight on z_j. So a chart
coordinate of character chi has cyclic weight <u, chi> mod l.

The fixed points are isolated iff every chart weight <u, chi> is a unit
mod l, so SurfaceModel(action) tests gcd(a, l) = gcd(b, l) = 1 for the
chart weights a, b of each point, and the table names the
torus-invariant curve each chart coordinate runs along for the error.
Proof: if a weight has gcd g > 1 with l, the order-g subgroup acts
trivially on that curve. Conversely, each component of the fixed locus
of an element of Z_l is torus-stable, so it holds a torus-fixed point,
where its tangent space is the eigenvalue-1 part of the chart action,
which is zero when both chart weights are units.

Every accepted action has isolated fixed points, which forces the full
group Z_l to stabilize each coordinate point and to act faithfully on
its chart, so each singular point is the full quotient 1/l(a,b) of its
chart weights. With a a unit, that is 1/l(1, q) for q = a^(-1) b mod l,
a unit too, and l >= 2: every point of a surface is singular, and all
of them have the one order l. A surface is its action, so no other
locus can be built (SurfaceModel).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple, Optional

from .cqsing import (
    NonIsolatedError,
    NormalForm,
    SingularityClassification,
    UnknownDeformationError,
    _require_record,
    classify,
)

P1XP1 = "P1xP1"
P2 = "P2"
# a character of the 2-torus, as the pair of its exponents
Character = tuple[int, int]


def rational_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


# per ambient: anticanonical degree, b2, the rows that take the action
# weights to the cocharacter u, and each torus-fixed point's label, the
# characters of its two chart coordinates, and the torus-invariant curve
# each coordinate runs along
_FACTORS = ("a copy of factor 1", "a copy of factor 2")
# the dimension of the connected automorphism group of a preset's
# surface: the residual 2-torus
_PRESET_AUT0_DIM = 2
_AMBIENTS = {
    P1XP1: (8, 2, ((1, 0), (0, 1)), (
        ("([0:1],[0:1])", (1, 0), (0, 1), _FACTORS),
        ("([0:1],[1:0])", (1, 0), (0, -1), _FACTORS),
        ("([1:0],[0:1])", (-1, 0), (0, 1), _FACTORS),
        ("([1:0],[1:0])", (-1, 0), (0, -1), _FACTORS),
    )),
    P2: (9, 1, ((1, 0, -1), (0, 1, -1)), (
        ("[1:0:0]", (-1, 1), (-1, 0), ("the line z2 = 0", "the line z1 = 0")),
        ("[0:1:0]", (1, -1), (0, -1), ("the line z2 = 0", "the line z0 = 0")),
        ("[0:0:1]", (1, 0), (0, 1), ("the line z1 = 0", "the line z0 = 0")),
    )),
}


class CyclicAction(namedtuple("CyclicAction", "ambient order weights")):
    """A diagonal action of Z_l on P1 x P1 (one weight per factor, on the
    first homogeneous coordinate) or on P2 (one weight per coordinate)."""

    __slots__ = ()

    def __new__(cls, ambient: str, order: int, weights: tuple[int, ...]):
        if ambient not in (P1XP1, P2):
            raise ValueError(f"ambient must be {P1XP1!r} or {P2!r}: {ambient!r}")
        if type(order) is not int or order < 2:
            raise ValueError(f"group order must be an int of at least 2, got {order!r}")
        expected = len(_AMBIENTS[ambient][2][0])
        if type(weights) not in (tuple, list) or not all(
            type(w) is int for w in weights
        ):
            raise ValueError(f"{ambient} takes a tuple of integer weights: {weights!r}")
        if len(weights) != expected:
            raise ValueError(f"{ambient} takes {expected} weights, got {len(weights)}")
        weights = tuple(w % order for w in weights)
        return super().__new__(cls, ambient, order, weights)

    # _make, and so _replace, build through the constructor's checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def x_family(cls, l: int) -> "CyclicAction":
        """The X-family action on P1 x P1: ([z0:z1],[w0:w1]) -> ([zeta z0:z1],[zeta^(-1) w0:w1]).

        l is checked by the constructor: an int of at least 2, else ValueError.
        """
        return cls(P1XP1, l, (1, -1))

    @classmethod
    def y_family(cls, l: int) -> "CyclicAction":
        """The Y-family action on P2: [z0:z1:z2] -> [zeta z0 : zeta^(-1) z1 : z2].

        The constructor checks l first (an int of at least 2, else
        ValueError); an even l then raises NonIsolatedError.
        """
        action = cls(P2, l, (1, -1, 0))
        if l % 2 == 0:
            raise NonIsolatedError(
                f"even order {l} is not admissible for the Y family: the order-2 "
                "subgroup acts trivially on the line z2 = 0, fixing it pointwise"
            )
        return action

    @property
    def family(self) -> Optional[str]:
        """The preset this action is: "X" if it equals x_family(l), "Y"
        if it equals y_family(l) (l odd), else None. The fields are
        compared with those of the preset, weights reduced mod l; no
        record is built."""
        l = self.order
        if self == (P1XP1, l, (1, l - 1)):
            return "X"
        if l % 2 and self == (P2, l, (1, l - 1, 0)):
            return "Y"
        return None

    def to_json_dict(self) -> dict:
        return {
            "ambient": self.ambient,
            "order": self.order,
            "weights": list(self.weights),
        }


class FixedPointRecord(NamedTuple):
    """One fixed coordinate point and its local data.

    local_cyclic_weights are the Z_l chart weights (reduced mod the
    stabilizer order), local_torus_weights the characters of the
    residual 2-torus on the same two chart coordinates. The
    classification holds the normal form, the canonical representative
    of the point's equivalence class (smaller q of the two chart
    orderings), read as the property singularity; its order is the
    stabilizer order. The records of one surface that share a form
    share one classification object. A surface's constructor builds
    these records; the constructor of the record checks no field, and
    no entry point takes one.
    """

    point_label: str
    local_cyclic_weights: tuple[int, int]
    local_torus_weights: tuple[Character, Character]
    classification: SingularityClassification

    @property
    def singularity(self) -> NormalForm:
        return self.classification.normal_form

    def to_json_dict(self) -> dict:
        return {
            "point_label": self.point_label,
            "stabilizer_order": self.singularity.order,
            "local_cyclic_weights": list(self.local_cyclic_weights),
            "local_torus_weights": [list(c) for c in self.local_torus_weights],
            "singularity": self.singularity.to_json_dict(),
        }


class SurfaceModel(namedtuple("SurfaceModel", "action")):
    """A quotient surface: the ambient divided by its action, the one field.

    The constructor checks the action (a CyclicAction, else ValueError),
    raises NonIsolatedError for an action whose fixed points are not
    isolated, and computes the singular locus once (_singular_locus,
    which wraps the point tuples of _points in records).
    The locus is a read-only attribute and not a field: it is what the
    action determines, so it takes part in neither equality, hash, repr
    nor _asdict(). _make, and so _replace, build through the
    constructor, and no attribute can be set, so no record holds a
    locus its action does not give.

    The rest is read off the action as properties: volume is the
    ambient's anticanonical degree over l, as the quotient map is
    unramified away from finitely many points; aut0_dim is the dimension of
    the connected automorphism group, known (= 2, the residual torus)
    for the two preset families (CyclicAction.family) and None
    (unsupported) for other actions; b2_base is the rank of the
    invariant part of H^2 of the ambient, which the homotopically
    trivial action leaves whole: 2 for P1 x P1 and 1 for P2.
    """

    def __new__(cls, action: CyclicAction):
        _require_record(action, CyclicAction)
        self = tuple.__new__(cls, (action,))
        self.__dict__["singular_locus"] = _singular_locus(action)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"SurfaceModel is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SurfaceModel is read-only: cannot delete {name!r}")

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def volume(self) -> Fraction:
        return _volume_and_b2(self.action)[0]

    @property
    def aut0_dim(self) -> Optional[int]:
        return _PRESET_AUT0_DIM if self.action.family else None

    @property
    def b2_base(self) -> int:
        return _volume_and_b2(self.action)[1]

    def to_json_dict(self) -> dict:
        return {
            "action": self.action.to_json_dict(),
            "singular_locus": [r.to_json_dict() for r in self.singular_locus],
            "volume": rational_json(self.volume),
            "aut0_dim": self.aut0_dim,
            "b2_base": self.b2_base,
        }


class QDefModel(NamedTuple):
    """The assembled Q-Gorenstein deformation space of a surface.

    One block per singular point (rigid points keep an empty character
    list). total_dim counts the characters of the blocks, and
    weight_matrix holds them concatenated as columns, one per
    deformation parameter; both are properties read off the blocks.
    The blocks grow with the order, so only the surface report builds
    this record. A local model reads the dimension and the GIT input off
    the torus-fixed points (moduli._model), and builds no character.
    assemble_qdef builds this record; the constructor checks no field,
    and no entry point takes one.
    """

    blocks: tuple[tuple[FixedPointRecord, tuple[Character, ...]], ...]

    @property
    def total_dim(self) -> int:
        return sum(len(chars) for _, chars in self.blocks)

    @property
    def weight_matrix(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        columns = [c for _, chars in self.blocks for c in chars]
        return tuple(c[0] for c in columns), tuple(c[1] for c in columns)

    def to_json_dict(self) -> dict:
        return {
            "total_dim": self.total_dim,
            "blocks": [[record.to_json_dict(), chars] for record, chars in self.blocks],
            "weight_matrix": self.weight_matrix,
        }


def build_surface(action: CyclicAction) -> SurfaceModel:
    """Quotient the ambient by the action: SurfaceModel(action).

    Rejects actions whose fixed locus is not isolated, naming the point,
    the chart weight that is not a unit mod l, and the curve that weight's
    subgroup fixes pointwise (for the Y family with even l: the line
    z2 = 0). The volume, aut0_dim and b2_base of the surface are
    properties of its action, and its singular locus is computed once,
    by the constructor (_singular_locus).
    """
    return SurfaceModel(action)


def _volume_and_b2(action: CyclicAction) -> tuple[Fraction, int]:
    """The volume and b2_base of the quotient by action: the ambient's
    anticanonical degree over l, and the ambient's b2."""
    degree, b2, _, _ = _AMBIENTS[action.ambient]
    return Fraction(degree, action.order), b2


def _singular_locus(action: CyclicAction) -> tuple[FixedPointRecord, ...]:
    """The records of the torus-fixed points of a CyclicAction: each
    tuple of _points wrapped in a FixedPointRecord."""
    return tuple(FixedPointRecord(*point) for point in _points(action))


def _points(action: CyclicAction):
    """Yield the record fields (label, (a, b), (alpha, beta),
    classification) of each torus-fixed point of a CyclicAction, or
    raise NonIsolatedError at the first point with a chart weight that
    is not a unit mod l. The one loop over the points: the singular
    locus wraps its tuples in records, and a local model reads them raw
    (moduli._model).

    Each point's work is integer arithmetic: the chart weights a, b,
    their gcds with l, and q = a^(-1) b mod l, looked up in a dict local
    to the call. Only a q not seen yet costs its canonical
    c = min(q, q^(-1) mod l), and only a c not seen yet builds
    NormalForm(l, c) and classifies it; the classification, which holds
    its normal form, is filed under q and c, so each distinct form is
    built and classified once and the points that share it share one
    classification object.
    """
    _, _, cocharacter, points = _AMBIENTS[action.ambient]
    l = action.order
    u0, u1 = [sum(map(mul, row, action.weights)) for row in cocharacter]
    # q of 1/l(1, q) -> the classification of its class
    forms: dict[int, SingularityClassification] = {}
    for label, alpha, beta, curves in points:
        a = (u0 * alpha[0] + u1 * alpha[1]) % l
        b = (u0 * beta[0] + u1 * beta[1]) % l
        if gcd(a, l) != 1 or gcd(b, l) != 1:
            w, curve = (a, curves[0]) if gcd(a, l) != 1 else (b, curves[1])
            g = gcd(w, l)
            raise NonIsolatedError(
                f"point {label}: chart weight {w} has gcd {g} with l = {l}, so "
                f"the order-{g} subgroup fixes {curve} pointwise and the "
                "fixed locus contains curves"
            )
        q = pow(a, -1, l) * b % l
        cls = forms.get(q)
        if cls is None:
            c = min(q, pow(q, -1, l))
            cls = forms.get(c)
            if cls is None:
                cls = classify(NormalForm(l, c))
            forms[q] = forms[c] = cls
        yield label, (a, b), (alpha, beta), cls


def assemble_qdef(surface: SurfaceModel) -> QDefModel:
    """Direct sum of the local Q-Gorenstein deformation spaces.

    There are no local-to-global obstructions for these surfaces, so the
    versal space is the sum of the local ones: one block per point of the
    singular locus, read off the classification and the chart characters
    (alpha, beta) that the point's record holds. The parameters of a
    point are the coefficients t_k of its index-one cover
    x*y = z^w + sum_k t_k z^k, with wt(z) = alpha + beta, so t_k carries
    the character (w - k)*(alpha + beta); k runs up from 0 in steps of
    the Gorenstein index r, qdef_dim values in all (Kollar-Shepherd-Barron
    1988, section 3):

      * A_{n-1} (r = 1, w = n): (n, n-1, ..., 2)*(alpha + beta);
      * T with r >= 2 (w = m*r): (m*r, ..., 2r, r)*(alpha + beta);
      * rigid (qdef_dim 0): an empty block.

    A point with unknown deformation theory raises
    UnknownDeformationError naming the point. Only the blocks are built:
    the record reads its dimension and weight matrix off them.
    """
    _require_record(surface, SurfaceModel)
    blocks = []
    for record in surface.singular_locus:
        cls = record.classification
        if (dim := cls.qdef_dim) is None:
            raise UnknownDeformationError(
                f"point {record.point_label}: no deformation dimension known "
                f"for {record.singularity.display()}"
            )
        (a0, a1), (b0, b1) = record.local_torus_weights
        x, y = a0 + b0, a1 + b1
        w, r = cls.w, cls.r
        blocks.append((record, tuple((c * x, c * y) for c in range(w, w - dim * r, -r))))
    return QDefModel(tuple(blocks))
