"""Fourier-Motzkin elimination: the test oracle for torusgit's simplex kernel.

fm_witness solves a system of rational inequalities coeffs . x >= const
by eliminating variables and back-substituting; it is exact but its row
count grows double-exponentially, so the tests keep their systems small.
"""

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional


def _reduce_ineq(coeffs: tuple[int, ...], const: int):
    g = 0
    for x in coeffs:
        g = gcd(g, x)
    g = gcd(g, const)
    if g > 1:
        return tuple(x // g for x in coeffs), const // g
    return coeffs, const


def _normalize_rows(rows):
    """Gcd-reduce and dedupe; detect an inconsistent constant row.

    Returns (kept rows, contradiction flag). Rows encode coeffs . x >= const.
    """
    kept = set()
    for coeffs, const in rows:
        if not any(coeffs):
            if const > 0:
                return [], True
            continue
        kept.add(_reduce_ineq(coeffs, const))
    return list(kept), False


def fm_witness(
    rows: Iterable[tuple[tuple[int, ...], int]], dim: int
) -> Optional[tuple[Fraction, ...]]:
    """Solve a system of rational inequalities coeffs . x >= const exactly.

    Eliminates variables from the last index to the first, then
    back-substitutes a witness. Returns a solution vector or None when
    the system is infeasible.
    """
    cur, contradiction = _normalize_rows([(tuple(a), int(b)) for a, b in rows])
    if contradiction:
        return None
    steps = []
    for j in range(dim - 1, -1, -1):
        lowers, uppers, passthrough = [], [], []
        for coeffs, const in cur:
            c = coeffs[j]
            head = coeffs[:j]
            if c > 0:
                lowers.append((head, c, const))
            elif c < 0:
                uppers.append((head, c, const))
            else:
                passthrough.append((head, const))
        new_rows = list(passthrough)
        for h1, c1, b1 in lowers:
            for h2, c2, b2 in uppers:
                merged = tuple(-c2 * x + c1 * y for x, y in zip(h1, h2))
                new_rows.append((merged, -c2 * b1 + c1 * b2))
        steps.append((lowers, uppers))
        cur, contradiction = _normalize_rows(new_rows)
        if contradiction:
            return None
    values: list[Fraction] = []
    for lowers, uppers in reversed(steps):
        lo = None
        for head, c, const in lowers:
            t = Fraction(const - sum(h * v for h, v in zip(head, values)), c)
            if lo is None or t > lo:
                lo = t
        hi = None
        for head, c, const in uppers:
            t = Fraction(const - sum(h * v for h, v in zip(head, values)), c)
            if hi is None or t < hi:
                hi = t
        if lo is not None:
            x = lo
        elif hi is not None:
            x = min(hi, Fraction(0))
        else:
            x = Fraction(0)
        values.append(x)
    return tuple(values)
