"""Correctness checks on every operation's output.

Each check returns an error message, or None when the output passes.
Besides the golden digests (corpus.py), outputs are checked against the
paper's closed forms (sweep, cli tables) and, for GIT verdicts, by
recomputing each answer with an exact linear-programming solver of its
own and checking each certificate in exact integer and Fraction
arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd


def _frac(d: dict) -> Fraction:
    return Fraction(d["num"], d["den"])


def x_coarse(l: int) -> int:
    return {2: 2, 4: 6}.get(l, 2 * l - 3)


def y_stack(l: int) -> int:
    return {3: 4, 9: 8}.get(l, l - 3)


def check_model(model: dict) -> str | None:
    """Closed forms of the paper for one row of either family."""
    fam, l = model["surface_id"]["family"], model["surface_id"]["l"]
    got = {
        "volume": _frac(model["volume"]),
        "min_discrepancy": _frac(model["min_discrepancy"]),
    }
    if fam == "X":
        want = {
            "coarse_dim": x_coarse(l),
            "volume": Fraction(8, l),
            "min_discrepancy": Fraction(-(l - 2), l),
            "gorenstein_index": l // gcd(l, 2),
            "b2_generic": 6 if l == 2 else 2 * l,
        }
    else:
        want = {
            "stack_dim": y_stack(l),
            "volume": Fraction(9, l),
            "isolated": l not in (3, 9),
        }
    for key, value in want.items():
        have = got.get(key, model[key])
        if have != value:
            return f"{fam}_{l}: {key} = {have}, closed form gives {value}"
    return None


def smallest_order(family: str, target: int) -> int:
    """The witness order from the closed forms, by direct search."""
    if family == "X":
        l = 2
        while x_coarse(l) < target:
            l += 1
    else:
        l = 3
        while y_stack(l) < target:
            l += 2
    return l


def _pairings(rows, lam, indices):
    return {i: sum(a * row[i - 1] for a, row in zip(lam, rows)) for i in indices}


def _pivot(t: list[list[Fraction]], cost: list[Fraction], p: int, j: int) -> None:
    piv = t[p][j]
    t[p] = [x / piv for x in t[p]]
    for i, row in enumerate(t):
        if i != p and row[j]:
            f = row[j]
            t[i] = [x - f * y for x, y in zip(row, t[p])]
    f = cost[j]
    cost[:] = [x - f * y for x, y in zip(cost, t[p])]


@lru_cache(maxsize=None)
def _feasible(a: tuple, b: tuple) -> bool:
    """Whether A x = b has a solution x >= 0.

    Phase one of the simplex method in Fractions with Bland's rule, which
    cannot cycle: minimise the sum of one artificial variable per row.
    The system is feasible iff that minimum is 0.
    """
    m, n = len(a), len(a[0])
    t = []
    for i, (row, rhs) in enumerate(zip(a, b)):
        s = -1 if rhs < 0 else 1
        t.append([Fraction(s * x) for x in row] + [Fraction(int(i == r)) for r in range(m)] + [Fraction(s * rhs)])
    basis = list(range(n, n + m))
    # reduced costs of the phase-one objective; the last entry is minus its value
    cost = [-sum(row[j] for row in t) for j in range(n)] + [Fraction(0)] * m + [-sum(row[-1] for row in t)]
    while True:
        j = next((j for j in range(n + m) if cost[j] < 0), None)
        if j is None:
            return cost[-1] == 0
        _, _, p = min((row[-1] / row[j], basis[i], i) for i, row in enumerate(t) if row[j] > 0)
        _pivot(t, cost, p, j)
        basis[p] = j


def _rank(rows) -> int:
    """Rank over Q by Gaussian elimination in Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        p = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if p is None:
            continue
        work[rank], work[p] = work[p], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def polystable_part(rows, within) -> frozenset:
    """The largest polystable support inside `within`, by linear programming.

    It is the set of coordinates i on which some x >= 0 with
    sum_{j in within} x_j w_j = 0 has x_i > 0: the sum of such x for every
    such i is positive exactly there, and a support is polystable iff
    some x > 0 on it solves W_S x = 0. Independent of torusgit, which
    cuts supports with Fourier-Motzkin destabilizers instead.
    """
    idx = sorted(within)
    a = tuple(tuple(row[j - 1] for j in idx) for row in rows)
    zeros = (0,) * len(rows)
    return frozenset(
        i for i in idx if _feasible(a + (tuple(int(j == i) for j in idx),), zeros + (1,))
    )


def check_git(op: dict, out) -> str | None:
    """Exact checks for one finished git query.

    Each output is recomputed by linear programming in Fractions
    (polystable_part, _feasible) or by exact elimination (_rank), and
    certificates are checked by pairing them with the weights.
    """
    rows, query, arg = op["rows"], op["query"], op["arg"]
    k, n = len(rows), len(rows[0])
    if query in ("is_polystable", "destabilizing_limit"):
        polystable = polystable_part(rows, arg) == frozenset(arg)
    else:
        smax = polystable_part(rows, range(1, n + 1))
    if query == "quotient_dim":
        want = len(smax) - _rank([[row[i - 1] for i in sorted(smax)] for row in rows]) if smax else 0
        if out != want:
            return f"{op['id']}: quotient_dim {out}, linear programming gives {want}"
        if k == 1:
            from kmoduli import torusgit

            via = torusgit.quotient_dim_via_supports(torusgit.WeightSystem.from_rows(rows))
            if out != via:
                return f"{op['id']}: closed form {out} != support algorithm {via}"
    elif query == "kernel_rank":
        if out != k - _rank(rows):
            return f"{op['id']}: kernel_rank {out}, elimination gives {k - _rank(rows)}"
    elif query == "largest_polystable_support":
        if out != sorted(smax):
            return f"{op['id']}: largest polystable support {out}, linear programming gives {sorted(smax)}"
    elif query == "is_polystable":
        if out != polystable:
            return f"{op['id']}: is_polystable {out}, linear programming gives {polystable}"
    elif query == "in_rational_cone":
        want = _feasible(tuple(map(tuple, rows)), tuple(arg))
        if out != want:
            return f"{op['id']}: in_rational_cone {out}, linear programming gives {want}"
    elif query == "destabilizing_limit":
        if (out is None) != polystable:
            return f"{op['id']}: destabilizing_limit {out} on a support that is {'' if polystable else 'not '}polystable"
        if out is not None:
            pair = _pairings(rows, out["lambda"], arg)
            if any(v < 0 for v in pair.values()) or not any(v > 0 for v in pair.values()):
                return f"{op['id']}: lambda {out['lambda']} pairs {pair} on the support"
            zero_set = sorted(i for i, v in pair.items() if v == 0)
            if out["limit"] != zero_set:
                return f"{op['id']}: limit {out['limit']} is not the zero set {zero_set}"
    elif query == "open_half_space_certificate":
        # by Gordan's theorem a functional positive on every column exists
        # iff no nonzero x >= 0 has W x = 0, that is iff smax is empty
        if (out is None) != bool(smax):
            return f"{op['id']}: half-space certificate {out} with largest polystable support {sorted(smax)}"
        if out is not None:
            c = [Fraction(num, den) for num, den in out]
            for i, col in enumerate(zip(*rows), start=1):
                if sum(a * b for a, b in zip(c, col)) < 1:
                    return f"{op['id']}: certificate pairs below 1 with column {i}"
    return None


def check_cli(req: dict, rc: int, stdout: str) -> str | None:
    """Exit status and, for JSON tables and witnesses, the closed forms."""
    if rc != 0:
        return f"{req['id']}: exit status {rc}"
    argv = req["argv"]
    if argv[0] in ("table", "witness") and "json" in argv:
        data = json.loads(stdout)
        if argv[0] == "table":
            for row in data["rows"]:
                err = check_model(row)
                if err:
                    return f"{req['id']}: {err}"
        elif data["l"] != smallest_order(data["family"], data["target_dim"]):
            return f"{req['id']}: witness l = {data['l']} disagrees with the closed form"
    return None
