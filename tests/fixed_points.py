"""The fixed points of a surface through the germ, kept as an oracle for
the integer walk of quotsurf._singular_locus."""

from math import gcd

from kmoduli.cqsing import (
    CyclicQuotientSingularity,
    NonIsolatedError,
    classify,
    normalize,
)
from kmoduli.quotsurf import _AMBIENTS, CyclicAction, FixedPointRecord


def oracle_records(action: CyclicAction) -> list[FixedPointRecord]:
    """The fixed points through the germ, point by point: each chart pair
    builds a CyclicQuotientSingularity, whose gcd check is the isolation
    test, then normalize, canonical() and classify."""
    _, _, cocharacter, points = _AMBIENTS[action.ambient]
    l = action.order
    u = [sum(x * w for x, w in zip(row, action.weights)) for row in cocharacter]
    records = []
    for label, alpha, beta, curves in points:
        a, b = (sum(x * y for x, y in zip(u, chi)) % l for chi in (alpha, beta))
        try:
            germ = CyclicQuotientSingularity(l, a, b)
        except NonIsolatedError:
            w, curve = (a, curves[0]) if gcd(a, l) != 1 else (b, curves[1])
            g = gcd(w, l)
            raise NonIsolatedError(
                f"point {label}: chart weight {w} has gcd {g} with l = {l}, so "
                f"the order-{g} subgroup fixes {curve} pointwise and the "
                "fixed locus contains curves"
            ) from None
        nf = normalize(germ).canonical()
        records.append(
            FixedPointRecord(label, (a, b), (alpha, beta), classify(nf))
        )
    return records
