"""Per-point oracles for a surface: the fixed points, each read off its
own chart weights, kept for the integer walk of quotsurf._singular_locus,
and the blocks of the deformation space through versal_weights, kept for
quotsurf.assemble_qdef."""

from math import gcd

from three_pass import known_classification

from kmoduli.cqsing import (
    NonIsolatedError,
    NormalForm,
    SingularityClassification,
    UnknownDeformationError,
    classify,
)
from kmoduli.quotsurf import (
    _AMBIENTS,
    Character,
    CyclicAction,
    FixedPointRecord,
    SurfaceModel,
)


def oracle_records(action: CyclicAction) -> list[FixedPointRecord]:
    """The fixed points, point by point: a chart weight with a gcd > 1
    with l fails the isolation test, and otherwise the point is
    1/l(1, q) with q = a^(-1) b mod l, then canonical() and classify."""
    _, _, cocharacter, points = _AMBIENTS[action.ambient]
    l = action.order
    u = [sum(x * w for x, w in zip(row, action.weights)) for row in cocharacter]
    records = []
    for label, alpha, beta, curves in points:
        a, b = (sum(x * y for x, y in zip(u, chi)) % l for chi in (alpha, beta))
        if gcd(a, l) != 1 or gcd(b, l) != 1:
            w, curve = (a, curves[0]) if gcd(a, l) != 1 else (b, curves[1])
            g = gcd(w, l)
            raise NonIsolatedError(
                f"point {label}: chart weight {w} has gcd {g} with l = {l}, so "
                f"the order-{g} subgroup fixes {curve} pointwise and the "
                "fixed locus contains curves"
            )
        nf = NormalForm(l, pow(a, -1, l) * b % l).canonical()
        records.append(
            FixedPointRecord(label, (a, b), (alpha, beta), classify(nf))
        )
    return records


def versal_weights(
    cls: SingularityClassification, local_weights: tuple[Character, Character]
) -> list[Character]:
    """Torus characters of the versal Q-Gorenstein deformation parameters.

    local_weights = (alpha, beta) are the characters of the 2-torus on the
    two orbifold-chart coordinates at the point. The deformation
    parameters sit in the equation of the index-one cover,
    x*y = z^(d*nT) + sum_j a_j z^(j*nT) with wt(z) = alpha + beta, so a_j
    carries character (d - j) * nT * (alpha + beta):

      * A_{n-1}: d = n, nT = 1, j = 0..n-2, characters (n, n-1, ..., 2)*(alpha+beta);
      * T with r >= 2: d = m, nT = r, j = 0..m-1, characters (m*r, ..., r)*(alpha+beta).

    A rigid or smooth point raises ValueError, an unknown deformation
    theory UnknownDeformationError.
    """
    nf = cls.normal_form
    if cls.qdef_dim is None:
        raise UnknownDeformationError(
            f"{nf.display()}: no Q-Gorenstein deformation formula implemented"
        )
    if cls.qdef_dim == 0:
        raise ValueError(f"{nf.display()} has no Q-Gorenstein deformations")
    alpha, beta = local_weights
    s = (alpha[0] + beta[0], alpha[1] + beta[1])
    if cls.is_du_val:
        coefs = range(nf.order, 1, -1)
    else:
        coefs = (c * cls.r for c in range(cls.m, 0, -1))
    return [(c * s[0], c * s[1]) for c in coefs]


def oracle_blocks(surface: SurfaceModel) -> tuple:
    """The blocks of assemble_qdef(surface), point by point: a point with
    unknown deformation theory is an error naming the point
    (three_pass.known_classification), a rigid one
    has no characters, and any other has versal_weights of its chart."""
    blocks = []
    for record in surface.singular_locus:
        cls = known_classification(record)
        chars = versal_weights(cls, record.local_torus_weights) if cls.qdef_dim else ()
        blocks.append((record, tuple(chars)))
    return tuple(blocks)
