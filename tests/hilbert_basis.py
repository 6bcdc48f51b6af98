"""The monoid of invariant monomials of a torus weight system: its
Hilbert basis and the rank of the lattice that basis spans, in the
standard library alone."""

from math import gcd


def hilbert_basis(columns):
    """The minimal nonzero m >= 0 with sum_j m_j w_j = 0, for a sequence
    of integer tuples w_j, in the order found (by degree).

    Contejean-Devie completion ("An efficient incremental algorithm for
    solving systems of linear Diophantine equations", 1994): start from
    the unit vectors; a candidate x with W x != 0 grows to x + e_j only
    where <W x, w_j> < 0, and a candidate that is >= a solution already
    found is dropped. The search ends, and it reaches every minimal
    solution."""
    n = len(columns)
    frontier = {tuple(int(i == j) for i in range(n)): w for j, w in enumerate(columns)}
    basis = []
    while frontier:
        basis += [x for x, v in frontier.items() if not any(v)]
        grown = {}
        for x, v in frontier.items():
            for j, w in enumerate(columns):
                if sum(a * b for a, b in zip(v, w)) >= 0:
                    continue
                y = x[:j] + (x[j] + 1,) + x[j + 1:]
                if y not in grown and not any(
                    all(a >= b for a, b in zip(y, m)) for m in basis
                ):
                    grown[y] = tuple(a + b for a, b in zip(v, w))
        frontier = grown
    return basis


def lattice_rank(rows) -> int:
    """Exact rank of integer vectors, by fraction-free elimination."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        v = list(row)
        lead = next((i for i, x in enumerate(v) if x), None)
        while lead in pivots:
            b = pivots[lead]
            v = [b[lead] * x - v[lead] * y for x, y in zip(v, b)]
            g = gcd(*v)
            v = [x // g for x in v] if g > 1 else v
            lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            pivots[lead] = v
    return len(pivots)
