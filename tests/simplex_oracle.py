"""The exact simplex kernel as first written, on the full tableau: the
test oracle for torusgit._simplex and torusgit._pivot.

The tableau here keeps a column for every variable, the basic ones
included, and carries the phase-two objective through phase one. pivot
rebuilds every row other than the pivot row, divides every entry by the
previous denominator, and negates the whole tableau in a second pass
when the pivot is negative; simplex builds the sign-flipped rows and the
phase-one row in separate passes. The library's kernel stores only the
nonbasic columns, a condensed tableau, and builds the phase-two
objective when phase one ends. It makes the same pivots, in the same
rows and with the same denominators, so the two must return the same
values on every input.
"""

from typing import Optional, Sequence


def pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """Integer pivot on rows[r][c]; returns the new common denominator.

    The tableau is stored as integers over the common denominator d (the
    previous pivot). Every stored entry is a minor of the starting
    matrix, so (p * a - f * b) // d is an exact division. A negative
    pivot negates every row, which keeps the denominator positive.
    """
    top = rows[r]
    p = top[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, top)]
    if p < 0:
        rows[:] = [[-a for a in row] for row in rows]
        return -p
    return p


def leaving_row(rows, basis, m: int, c: int) -> Optional[int]:
    """Minimum-ratio row for entering column c, ties to the smallest basic
    index (Bland's rule); None if no constraint row has c positive."""
    best = None
    for i in range(m):
        a = rows[i][c]
        if a > 0:
            if best is None:
                best, num, den = i, rows[i][-1], a
                continue
            lhs, rhs = rows[i][-1] * den, num * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                best, num, den = i, rows[i][-1], a
    return best


def simplex(
    columns: Sequence[Sequence[int]],
    rhs: Sequence[int],
    cost: Optional[Sequence[int]] = None,
) -> tuple[bool, object]:
    """Decide sum_j x_j columns[j] = rhs with x >= 0, exactly.

    Phase one of the primal simplex with one artificial variable per row
    and Bland's rule, which cannot cycle; with a cost row, phase two
    then maximises cost . x. Pivoting is integer-only (pivot).

    Returns (False, y) when the system is infeasible, with y an integer
    Farkas vector: y . c <= 0 for every column and y . rhs > 0. When it
    is feasible, returns (True, None) without a cost row, and otherwise
    (True, (p, d, point)) for the maximum p / d, d > 0, or (True, None)
    if unbounded. point is None unless every basic variable of the
    optimal basis is structural and positive; then it holds the integer
    numerators over d of the dual optimum, the unique minimiser of
    y . rhs over {y : y . columns[j] >= cost[j] for every j}
    (complementary slackness at a nondegenerate basis; Schrijver,
    Theory of Linear and Integer Programming, 1986, sec. 7.9).
    """
    m, n = len(rhs), len(columns)
    signs = [-1 if b < 0 else 1 for b in rhs]
    rows = [
        [s * col[i] for col in columns] + [int(t == i) for t in range(m)] + [s * rhs[i]]
        for i, s in enumerate(signs)
    ]
    if cost is not None:
        rows.append([-x for x in cost] + [0] * (m + 1))
    # phase-one objective, the sum of the artificials, as reduced costs;
    # its last entry is minus the objective value
    rows.append(
        [-sum(row[j] for row in rows[:m]) for j in range(n)]
        + [0] * m
        + [-sum(row[-1] for row in rows[:m])]
    )
    basis = list(range(n, n + m))
    d = 1
    while rows[-1][-1]:
        w = rows[-1]
        c = next((j for j in range(n) if w[j] < 0), None)
        if c is None:
            # the reduced cost of artificial t is d * (1 - y_t)
            return False, tuple(s * (d - w[n + t]) for t, s in enumerate(signs))
        r = leaving_row(rows, basis, m, c)
        d = pivot(rows, r, c, d)
        basis[r] = c
    if cost is None:
        return True, None
    rows.pop()
    # drive the artificials left at level 0 out of the basis; a row with
    # no nonzero entry in x is redundant and never leaves
    for r in range(m):
        if basis[r] >= n:
            c = next((j for j in range(n) if rows[r][j]), None)
            if c is not None:
                d = pivot(rows, r, c, d)
                basis[r] = c
    z = rows[-1]
    while True:
        c = next((j for j in range(n) if z[j] < 0), None)
        if c is None:
            # an artificial still basic sits at level 0, so a positive
            # basis is structural; the reduced cost of artificial t is d
            # times the multiplier of row t, whose sign s_t was flipped
            point = None
            if all(row[-1] > 0 for row in rows[:m]):
                point = [s * z[n + t] for t, s in enumerate(signs)]
            return True, (z[-1], d, point)
        r = leaving_row(rows, basis, m, c)
        if r is None:
            return True, None
        d = pivot(rows, r, c, d)
        basis[r] = c
        z = rows[-1]
