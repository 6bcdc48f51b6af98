"""Affine GIT of diagonal torus actions in exact arithmetic.

A k-dimensional torus acts on affine N-space through an integer weight
matrix W (column i is the character on coordinate i). This module
decides polystability of supports, finds destabilizing one-parameter
subgroups and their limits, computes quotient and kernel dimensions,
and enumerates invariant monomials up to a degree cap as an
independent oracle.

Key facts used (all over the rationals, decided by one exact simplex
kernel with Bland's rule and integer-only pivoting, which returns a
feasible point, an integer Farkas certificate or an integer optimum;
the tableau is condensed to one column per nonbasic variable, as a
basic column is a multiple of a unit vector, and the kernel makes the
same pivots as on the full tableau, which the tests keep as an oracle):

  * a support S is polystable iff no one-parameter subgroup lambda has
    <lambda, w_i> >= 0 for all i in S with strict inequality somewhere
    (equivalently, iff some x strictly positive on S solves W_S x = 0);
  * with s the sum of the distinct directions D of S, S is polystable iff
    -s lies in the cone of D (Stiemke). The sum decides in integers
    first: s = 0 makes x = (1, ..., 1) such a point, and s >= 0 on every
    d in D makes s itself a destabilizer, as <s, s> > 0; only the other
    sets run the LP;
  * every polystable subset of S is contained in
    {i in S : <lambda, w_i> = 0} for any such lambda, so iterating
    that cut finds the unique largest polystable support; w_i is a
    positive multiple of its primitive direction, so the cut pairs
    lambda once per direction and keeps the zero columns;
  * |S| - rank(W_S) is monotone under inclusion of supports, so the
    quotient dimension is attained at the largest polystable support;
  * rank(W_S) is the rank of the distinct directions of S, as scaling,
    repeating or adding zero columns leaves the span unchanged;
  * a nonempty polystable S has x > 0 with W_S x = 0, so rank(W_S) < |S|:
    only the origin is polystable iff the quotient dimension is 0.

The half-space certificate of an isolated point fixes one coordinate
at a time from the ends of its range, LP optima over the tails of the
weights. A ray of the recession cone of those tails, which does not
depend on the coordinates already fixed, shows an end infinite without
an LP: the cut's witness is one, each infeasible LP's Farkas vector
gives another, and those with a first entry of 0, or a positive
combination that makes it 0, pass their tails to the next coordinate.

The destabilizer of a support is the lex-min integer lambda in the
smallest box [-B, B]^k that holds one. A depth-first search fixes
lambda_0, lambda_1, ... in turn and narrows each to the interval that
every weight still allows given the prefix and the box. Boxes 1 to 3
are searched first, then the boxes from the ceiling of a real LP lower
bound on max |lambda_i| upwards.
The search visits at most a budget of nodes (DEFAULT_ENUMERATION_BUDGET
unless the caller passes one) and raises EnumerationBudgetError past it.

Polystability, ranks and destabilizing limits of a support depend only
on the set of primitive directions of its nonzero weights. Each fact of
such a set is one module-level lru_cache of the set alone: the witness
(_destabilizer_witness), the support cut (_polystable_directions), the
rank (_direction_rank) and the lex-min destabilizer (_lex_destabilizer,
which also takes the budget); the rank k of the torus is the length of
the directions. Each cache keeps the 4,096 sets used last, so memory
stays bounded over any number of distinct systems. Equal sets share
one entry, so a cut that keeps every direction costs one rank. The
invariants of a whole action depend only on the multiset of the
directions and the number of zero columns: with K the directions the
support cut keeps,

    quotient dim = sum of the counts of K + zeros - rank(K),
    kernel rank = k - rank(all the directions).

quotient_dim counts the directions of a weight matrix and reads the
cut and rank(K) through _quotient_dim, and kernel_rank only the rank of
all the directions and never the cut. The local model of a surface
reads the same two cached facts of its counted deformation directions,
so per call only the sum is computed, and its cost does not grow with
the multiplicities.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd
from operator import mul
from typing import Optional

DEFAULT_ENUMERATION_BUDGET = 10**6
# entries kept by each cache of a direction set; the 683 queries of a
# git benchmark run fill at most 202
_CACHE_SIZE = 4096


class EnumerationBudgetError(RuntimeError):
    """An enumeration (of invariant monomials, or of the nodes of the
    destabilizer search) exceeds the configured budget."""


def _require_ints(**values) -> None:
    """Refuse a value whose type is not exactly int: a bool is not read
    as 0 or 1, nor a float truncated."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


class WeightSystem(namedtuple("WeightSystem", "matrix")):
    """An integer k x N weight matrix of a diagonal k-torus action.

    The matrix is the whole record: any iterable of rows is copied to a
    tuple of tuples, so the record stays hashable and mutating the rows
    given cannot leave a cached fact stale. The rank k and the
    coordinate count N are read off its shape. Rows that cannot be
    iterated, an empty matrix, a ragged row and an entry that is not an
    exact int (a bool, a float or an object with __index__) raise
    ValueError naming the culprit.
    """

    # no __slots__: the cached properties below live in the instance dict

    def __new__(cls, matrix: Iterable[Iterable[int]]):
        try:
            matrix = tuple(map(tuple, matrix))
        except TypeError as e:  # a row, or the rows, cannot be iterated
            raise ValueError(str(e)) from None
        if not matrix or not matrix[0]:
            raise ValueError("weight matrix must be nonempty")
        n = len(matrix[0])
        for row in matrix:
            if len(row) != n:
                raise ValueError(f"expected rows of length {n}: {row}")
            for x in row:
                if type(x) is not int:
                    t = type(x).__name__
                    raise ValueError(f"weights must be integers, not {t}: {x!r}")
        return super().__new__(cls, matrix)

    # _make, and so _replace, build through the constructor's checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "WeightSystem":
        """WeightSystem(rows), under the name the callers use."""
        return cls(rows)

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @property
    def n_coords(self) -> int:
        return len(self.matrix[0])

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.matrix))

    @cached_property
    def _directions(self) -> tuple[Optional[tuple[int, ...]], ...]:
        """Primitive direction of each column; None for zero columns. A
        primitive column is its own direction."""
        return tuple([
            (col if g == 1 else tuple([x // g for x in col]))
            if (g := gcd(*col))
            else None
            for col in self.columns
        ])

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "n_coords": self.n_coords,
            "matrix": [list(row) for row in self.matrix],
        }


class SupportPoint(namedtuple("SupportPoint", "support")):
    """The set of nonzero coordinates of a point, 1-based.

    Polystability of a point under a diagonal torus action depends only
    on its support, so points are represented by supports. len() counts
    the indices.
    """

    __slots__ = ()

    def __new__(cls, support: Iterable[int]):
        try:
            support = frozenset(support)
        except TypeError:
            raise ValueError(
                f"support must be a set of indices, got {support!r}"
            ) from None
        if not all(type(i) is int and i >= 1 for i in support):
            raise ValueError(f"support must hold 1-based indices: {sorted(support)}")
        return super().__new__(cls, support)

    # _make, and so _replace, build through the constructor's checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def of(cls, indices: Iterable[int]) -> "SupportPoint":
        return cls(indices)

    def __len__(self) -> int:
        return len(self.support)

    def to_json_dict(self) -> list[int]:
        return sorted(self.support)


# exact linear algebra


def integer_matrix_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    n_cols = len(work[0])
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        a = work[rank][c]
        for i in range(rank + 1, len(work)):
            b = work[i][c]
            if b == 0:
                continue
            row = [a * x - b * y for x, y in zip(work[i], work[rank])]
            g = gcd(*row)
            work[i] = [x // g for x in row] if g else row
        rank += 1
        if rank == len(work):
            break
    return rank


# exact simplex


def _pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """Integer pivot on rows[r][c] of a condensed tableau; returns the new
    common denominator.

    The rows are integers over the common denominator d (the previous
    pivot). They hold one column per nonbasic variable and the
    right-hand side last; the column of the variable basic in row i is
    d e_i, so it is not stored. Every stored entry is a minor of the
    starting matrix, so (p * a - f * b) // d is an exact division, with
    f a row's entry in column c. After the pivot column c holds the
    variable that left: its column d e_r becomes d in row r and -f in
    every other row. A negative pivot negates every row, which keeps the
    denominator positive; that is folded into the update by negating the
    pivot row and p first, which makes the left column -d in row r and f
    elsewhere. With u = +-d that column's entry in row r, setting entry c
    of the pivot row to p + u for the update writes -f u / d there in
    every other row in the same pass. A row with f = 0 is only rescaled
    by p / d, and left as it is if p = d.
    """
    top = rows[r]
    p = top[c]
    if p < 0:
        p, u = -p, -d
        top = rows[r] = [-a for a in top]
    else:
        u = d
    top[c] = p + u
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            if d == 1:
                rows[i] = [p * a - f * b for a, b in zip(row, top)]
            else:
                rows[i] = [(p * a - f * b) // d for a, b in zip(row, top)]
        elif p != d:
            rows[i] = [p * a // d for a in row]
    top[c] = u
    return p


def _leaving_row(rows, basis, m: int, c: int) -> Optional[int]:
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


def _simplex(
    columns: Sequence[Sequence[int]],
    rhs: Sequence[int],
    cost: Optional[Sequence[int]] = None,
) -> tuple[bool, object]:
    """Decide sum_j x_j columns[j] = rhs with x >= 0, exactly.

    Phase one of the primal simplex with one artificial variable per row
    and Bland's rule, which cannot cycle; with a cost row, phase two
    then maximises cost . x. Pivoting is integer-only on a condensed
    tableau that stores no basic column (_pivot; the dictionary of Avis's
    lrs, 2000, with the exact division of Bareiss, 1968). Entering and
    drive-out pick the nonbasic structural variable of smallest index,
    so the pivots are those of the full tableau. The phase-two objective
    is built from the basis once phase one ends, and the Farkas vector
    and the dual point are read off the columns of the artificials.

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
    # row i is flipped to a right-hand side >= 0 and gets artificial i
    signs, rows = [], []
    for i, b in enumerate(rhs):
        if b < 0:
            rows.append([-col[i] for col in columns] + [-b])
            signs.append(-1)
        else:
            rows.append([col[i] for col in columns] + [b])
            signs.append(1)
    # the phase-one objective, the sum of the artificials, as reduced
    # costs: minus the rows' sum, with minus its value last
    w = [-sum(col) for col in zip(*rows)] if rows else [0] * (n + 1)
    rows.append(w)
    # basis[i] is the variable basic in row i, and at[v] the column of
    # variable v, or -1 while it is basic; the structural variables are
    # 0..n-1, so Bland's rule scans at[:n] in order, and the artificial
    # of row t is n + t
    basis = list(range(n, n + m))
    at = list(range(n)) + [-1] * m
    d = 1
    while w[-1]:
        v = next((v for v, j in enumerate(at[:n]) if j >= 0 and w[j] < 0), None)
        if v is None:
            # the reduced cost of artificial t is d * (1 - y_t), and 0
            # while it is basic
            return False, tuple(
                s * (d - w[j]) if j >= 0 else s * d for s, j in zip(signs, at[n:])
            )
        c = at[v]
        r = _leaving_row(rows, basis, m, c)
        d = _pivot(rows, r, c, d)
        at[basis[r]], at[v], basis[r] = c, -1, v
        w = rows[-1]
    if cost is None:
        return True, None
    rows.pop()
    # drive the artificials left at level 0 out of the basis; a row with
    # no nonzero entry in x is redundant and never leaves
    for r in range(m):
        if basis[r] >= n:
            row = rows[r]
            v = next((v for v, j in enumerate(at[:n]) if j >= 0 and row[j]), None)
            if v is not None:
                c = at[v]
                d = _pivot(rows, r, c, d)
                at[basis[r]], at[v], basis[r] = c, -1, v
    # the phase-two objective as reduced costs: d times cost_B B^-1 A - cost
    z = [0] * (n + 1)
    for v, j in enumerate(at[:n]):
        if j >= 0:
            z[j] = -d * cost[v]
    for row, v in zip(rows, basis):
        if v < n and (k := cost[v]):
            z = [a + k * b for a, b in zip(z, row)]
    rows.append(z)
    while True:
        v = next((v for v, j in enumerate(at[:n]) if j >= 0 and z[j] < 0), None)
        if v is None:
            # an artificial still basic sits at level 0, so a positive
            # basis is structural; the reduced cost of artificial t is d
            # times the multiplier of row t, whose sign s_t was flipped
            point = None
            if all(row[-1] > 0 for row in rows[:m]):
                point = [s * z[j] for s, j in zip(signs, at[n:])]
            return True, (z[-1], d, point)
        c = at[v]
        r = _leaving_row(rows, basis, m, c)
        if r is None:
            return True, None
        d = _pivot(rows, r, c, d)
        at[basis[r]], at[v], basis[r] = c, -1, v
        z = rows[-1]


# polystability

@lru_cache(maxsize=_CACHE_SIZE)
def _destabilizer_witness(dirs: frozenset) -> Optional[tuple[int, ...]]:
    """An integer lambda with <lambda, d> >= 0 on dirs, > 0 somewhere, or None.

    dirs is a set of primitive integer directions; the answer decides
    polystability of every support whose nonzero weights span exactly
    those directions. By Stiemke's lemma some x > 0 has sum x_d d = 0
    iff -s lies in the cone of dirs, for s the sum of dirs. The sum
    decides first, in integers: if s = 0, x = (1, ..., 1) is such a
    point and the answer is None; if <s, d> >= 0 for every d, s itself
    is the answer, as <s, s> = sum_d <s, d> > 0. Otherwise one LP
    decides the membership, and minus its Farkas vector pairs >= 0 with
    every d and > 0 with s.
    """
    if not dirs:
        return None
    s = [sum(col) for col in zip(*dirs)]
    if not any(s):
        return None
    if all(sum(map(mul, s, d)) >= 0 for d in dirs):
        return tuple(s)
    feasible, y = _simplex(list(dirs), [-x for x in s])
    return None if feasible else tuple(-v for v in y)


def _start_box(dirs: frozenset) -> int:
    """A lower bound on max |lambda_i| over the integer destabilizers.

    An integer destabilizer has <lambda, s> >= 1 for s = sum(dirs), so
    max |lambda_i| >= 1 / M, the minimum of max |lambda_i| over the real
    cone {<lambda, d> >= 0, <lambda, s> >= 1}; M is the maximum of
    <lambda, s> over {<lambda, d> >= 0} cut by the unit box. M is the
    optimum of the dual LP, min sum_i (u_i + v_i) over sum_d y_d (-d) +
    sum_i (u_i - v_i) e_i = s with y, u, v >= 0, and M > 0 whenever a
    destabilizer exists.
    """
    dim = len(next(iter(dirs)))
    units = [[int(t == i) for t in range(dim)] for i in range(dim)]
    columns = (
        [[-x for x in d] for d in dirs] + units + [[-x for x in u] for u in units]
    )
    cost = [0] * len(dirs) + [-1] * (2 * dim)
    _, (p, d, _) = _simplex(columns, [sum(col) for col in zip(*dirs)], cost)
    return -(d // p)  # the ceiling of 1 / M = d / -p


@lru_cache(maxsize=_CACHE_SIZE)
def _lex_destabilizer(dirs: frozenset, budget: int) -> Optional[tuple[int, ...]]:
    """The lexicographically smallest integer destabilizer in the smallest
    symmetric box [-B, B]^k that contains one, or None if none exists;
    k is the length of the directions.

    The integer witness decides whether a destabilizer exists, and a
    depth-first search finds the lex-min of a box: it fixes lambda_0,
    lambda_1, ... in increasing order, and with the prefix fixed narrows
    lambda_t to the integers every d still allows when the later
    coordinates range over the box,
    <prefix, d[:t]> + lambda_t d_t + B sum_{s > t} |d_s| >= 0. At the
    last coordinate that interval is exact, so the first leaf is read
    off in closed form. Where every d_t is 0 all values of lambda_t are
    alike, and only the least is tried.

    Boxes 1 to 3 are searched first, which answers most queries with no
    LP past the witness. If they hold none, the search jumps to the box
    of the lower bound of _start_box, at least 4, and grows by one from
    there; the boxes below the first that holds a destabilizer are
    empty, so its lex-min is the answer. The witness is itself a
    destabilizer in box max |witness_i|, so the search ends by that box.
    Each prefix visited over all boxes is a node, and past `budget` of
    them EnumerationBudgetError is raised.
    """
    if _destabilizer_witness(dirs) is None:
        return None
    cols = list(zip(*dirs))
    dead = [not any(col) for col in cols]
    norms = [sum(map(abs, d)) for d in dirs]
    last = len(cols) - 1
    nodes = budget

    def search(box: int) -> Optional[tuple[int, ...]]:
        # Depth-first over the prefixes, with an explicit stack so that
        # the depth is the rank k and not the interpreter's recursion
        # limit: path[t] = [x, hi, heads] holds the value lambda_t = x on
        # the path, its upper bound and the heads it leaves. heads[i] =
        # <prefix, d[:t]> + box * sum_{s >= t} |d_s|, the most that d can
        # still reach; lambda_t = x leaves heads[i] - box |d_t| + x d_t for
        # the next level, and the pairing itself at the last. Every head
        # is >= 0: the root heads are box |d|_1, and any x in [lo, hi]
        # leaves each new head >= 0, so d_t = 0 bounds nothing
        nonlocal nodes
        path = []
        heads = [box * n for n in norms]
        while True:
            nodes -= 1
            if nodes < 0:
                raise EnumerationBudgetError
            t = len(path)
            col = cols[t]
            lo, hi = -box, box
            for a, h in zip(col, heads):
                if a > 0:
                    b = box - h // a
                    if b > lo:
                        lo = b
                elif a < 0:
                    b = h // -a - box
                    if b < hi:
                        hi = b
            if lo <= hi:
                if dead[t]:
                    hi = lo
                if t < last:
                    heads = [h + lo * a - box * abs(a) for a, h in zip(col, heads)]
                    path.append([lo, hi, heads])
                    continue
                # every pairing is >= 0 on [lo, hi]; if all vanish at lo,
                # each is d_t at lo + 1, and no d_t is < 0 when lo < hi
                for a, h in zip(col, heads):
                    if h + lo * a - box * abs(a):
                        return (*(f[0] for f in path), lo)
                if lo < hi:
                    return (*(f[0] for f in path), lo + 1)
            # on to the next value of the deepest level that has one
            while path and path[-1][0] == path[-1][1]:
                path.pop()
            if not path:
                return None
            top = path[-1]
            top[0] += 1
            heads = top[2] = [h + a for a, h in zip(cols[len(path) - 1], top[2])]

    box = 1
    while (lam := search(box)) is None:
        box = max(4, _start_box(dirs)) if box == 3 else box + 1
    return lam


def _require_system(ws) -> None:
    """Refuse a query's first argument unless it is a WeightSystem."""
    if not isinstance(ws, WeightSystem):
        raise ValueError(f"expected a WeightSystem, got {ws!r}")


def _support_indices(ws: WeightSystem, p: SupportPoint) -> frozenset[int]:
    if not isinstance(p, SupportPoint):
        raise ValueError(f"expected a SupportPoint, got {p!r}")
    if p.support and max(p.support) > ws.n_coords:
        raise ValueError(
            f"support {sorted(p.support)} exceeds {ws.n_coords} coordinates"
        )
    return p.support


def _direction_set(ws: WeightSystem, indices: Iterable[int]) -> frozenset:
    dirs = ws._directions
    return frozenset(d for i in indices if (d := dirs[i - 1]) is not None)


def _indices_within(
    ws: WeightSystem, indices: Iterable[int], kept: frozenset
) -> frozenset[int]:
    """The indices whose column is zero or has its direction in kept."""
    dirs = ws._directions
    return frozenset(i for i in indices if (d := dirs[i - 1]) is None or d in kept)


def is_polystable(ws: WeightSystem, p: SupportPoint) -> bool:
    """True iff the orbit of a point with this support is closed.

    Equivalent formulations: every -w_i (i in S) lies in the rational
    cone generated by {w_j : j in S}; no one-parameter subgroup is
    nonnegative on S and positive somewhere; some x strictly positive
    on S solves W_S x = 0.
    """
    _require_system(ws)
    indices = _support_indices(ws, p)
    return _destabilizer_witness(_direction_set(ws, indices)) is None


def largest_polystable_support(ws: WeightSystem) -> SupportPoint:
    """The unique largest polystable support of the action.

    Any destabilizer lambda of S is nonnegative on every subset, so a
    polystable subset must avoid the coordinates where lambda is
    positive; cutting to {i : <lambda, w_i> = 0} and iterating strictly
    shrinks S and terminates at the largest polystable support. For the
    largest one inside a support T, ask the system of the columns of T.
    """
    _require_system(ws)
    support = range(1, ws.n_coords + 1)
    kept = _polystable_directions(_direction_set(ws, support))
    return SupportPoint(_indices_within(ws, support, kept))


@lru_cache(maxsize=_CACHE_SIZE)
def _polystable_directions(dirs: frozenset) -> frozenset:
    """The directions of the largest polystable support within dirs: the
    support cut of largest_polystable_support, on directions alone."""
    while (witness := _destabilizer_witness(dirs)) is not None:
        dirs = frozenset(d for d in dirs if not sum(map(mul, witness, d)))
    return dirs


def destabilizing_limit(
    ws: WeightSystem, p: SupportPoint, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Optional[tuple[tuple[int, ...], SupportPoint]]:
    """A destabilizing one-parameter subgroup and the support of its limit.

    When the orbit is not closed, returns (lambda, limit) where lambda
    is the lexicographically smallest integer vector (in the smallest
    symmetric box containing one) with <lambda, w_i> >= 0 on S and > 0
    somewhere, and limit = {i in S : <lambda, w_i> = 0}, a strictly
    smaller support. Returns None on closed orbits. Iterating reaches a
    polystable support in at most N steps.

    lambda is found by a depth-first search in lex order over boxes 1
    to 3, then over the boxes from a linear-programming lower bound upwards
    (_lex_destabilizer). It visits at most `budget` prefixes, and past
    that raises EnumerationBudgetError naming the support. A budget that
    is not an int raises ValueError.
    """
    _require_system(ws)
    _require_ints(budget=budget)
    indices = _support_indices(ws, p)
    dirs = _direction_set(ws, indices)
    try:
        lam = _lex_destabilizer(dirs, budget)
    except EnumerationBudgetError:
        raise EnumerationBudgetError(
            f"searching for a destabilizer of support {sorted(indices)} "
            f"visits more than the budget of {budget} search nodes"
        ) from None
    if lam is None:
        return None
    kept = frozenset(d for d in dirs if not sum(map(mul, lam, d)))
    return lam, SupportPoint(_indices_within(ws, indices, kept))


# dimensions

@lru_cache(maxsize=_CACHE_SIZE)
def _direction_rank(dirs: frozenset) -> int:
    """Rank over Q of a set of directions: rank(W_S) of every support S
    whose nonzero weights have exactly these directions."""
    return integer_matrix_rank(zip(*dirs))


def kernel_rank(ws: WeightSystem) -> int:
    """Dimension of the subtorus acting trivially: k - rank(W), with no
    support cut."""
    _require_system(ws)
    return ws.rank - _direction_rank(_direction_set(ws, range(1, ws.n_coords + 1)))


def quotient_dim_via_supports(ws: WeightSystem) -> int:
    """Quotient dimension through the largest polystable support.

    max over polystable supports S of |S| - rank(W_S); the maximum is
    attained at the largest one since |S| - rank(W_S) is monotone under
    inclusion. It works on coordinate indices, not on direction counts,
    so it is an independent check of quotient_dim.
    """
    _require_system(ws)
    smax = largest_polystable_support(ws)
    return len(smax) - integer_matrix_rank(zip(*_direction_set(ws, smax.support)))


def quotient_dim(ws: WeightSystem) -> int:
    """Dimension of the affine GIT quotient Spec of the invariant ring:
    |S| - rank(W_S) at the largest polystable support S, counted on the
    multiset of the column directions of W."""
    _require_system(ws)
    counts = Counter(ws._directions)
    zeros = counts.pop(None, 0)
    return _quotient_dim(counts, zeros, frozenset(counts))


def _quotient_dim(counts: Mapping, zeros: int, dirs: frozenset) -> int:
    """The quotient dimension of the directions counted, given their set.

    counts maps each primitive direction to the number of coordinates
    whose weight is a positive multiple of it, and zeros counts the
    coordinates of weight 0; the input is not checked. The answer is the
    sum of the counts of the directions the support cut keeps, plus
    zeros, minus their rank."""
    kept = _polystable_directions(dirs)
    return sum(counts[d] for d in kept) + zeros - _direction_rank(kept)


# cones and certificates

def in_rational_cone(
    vector: Sequence[int], generators: Iterable[Sequence[int]]
) -> bool:
    """Whether the vector lies in the rational cone spanned by the generators.

    One phase-one simplex call: is sum x_g g = vector solvable with x >= 0?
    The vector and the generators must be sequences of ints (bools are
    refused, as in WeightSystem) of one length; otherwise ValueError is
    raised.
    """
    # tuple and list are named before the ABC: they answer an isinstance
    # test several times faster than Sequence does
    if not isinstance(vector, (tuple, list, Sequence)):
        raise ValueError(f"expected an int vector, got {vector!r}")
    try:
        gens = list(generators)
    except TypeError:
        raise ValueError(
            f"expected int vectors as generators, got {generators!r}"
        ) from None
    for g in (vector, *gens):
        ints = isinstance(g, (tuple, list, Sequence)) and all(type(x) is int for x in g)
        if not ints or len(g) != len(vector):
            raise ValueError(f"expected int vectors of length {len(vector)}: {g}")
    return _simplex(gens, vector)[0]


def open_half_space_certificate(
    ws: WeightSystem,
) -> Optional[tuple[Fraction, ...]]:
    """A functional strictly positive on every weight column, or None.

    Such a certificate exists iff only the origin is polystable (every
    nonempty support is destabilized to a strictly smaller one), which
    is the isolated-point criterion for the local moduli space; so the
    answer is None iff the largest polystable support is nonempty
    (Gordan: some nonzero x >= 0 has W x = 0).

    The functional returned is the point of {lambda : <lambda, w_i> >= 1}
    picked coordinate by coordinate: with lambda_0..lambda_{j-1} fixed,
    lambda_j is the minimum of its range if that is bounded below, else
    min(sup, 0) if bounded above, else 0. Each end of the range is the
    optimum of the LP dual over the tails w_i[j:], with the integer cost
    D - <w_i, prefix numerators> for the prefix over one denominator D;
    the minimum is only sought if some w_i[j] > 0, the sup only if some
    w_i[j] < 0. When the end taken comes from a nondegenerate optimal
    basis, the rest of the point is the LP's unique dual optimum and no
    further LP runs. The last coordinate is read off in closed form.

    No LP runs for an end that a known ray shows to be infinite. A ray
    of level j is an integer r with <r, w_i[j:]> >= 0 for every i, a
    recession direction of the slice the prefix leaves. That slice is
    nonempty, and with mu in it so is mu + t r for every t >= 0, so
    lambda_j is unbounded below if r_0 < 0 and above if r_0 > 0: the
    skipped LP would have been infeasible (Schrijver, Theory of Linear
    and Integer Programming, 1986, chs. 7 and 8). The rays do not depend
    on the prefix. Level 0 starts from the support cut's witness, and an
    infeasible LP adds minus its Farkas vector, which has r_0 < 0 for
    the minimum and r_0 > 0 for the sup. Level j + 1 keeps r[1:] of each
    ray with r_0 = 0, and of p_0 n - n_0 p for one pair with
    n_0 < 0 < p_0, a positive combination with r_0 = 0.
    """
    _require_system(ws)
    # a zero column is a polystable support of its own
    dirs = frozenset(ws._directions)
    if None in dirs or _polystable_directions(dirs):
        return None
    cols = ws.columns
    last = ws.rank - 1
    # the fixed prefix is lambda_t = nums[t] / den, gcd(den, *nums) = 1
    nums, den = [], 1
    # rays r with <r, w_i[j:]> >= 0 for every column at level j; the
    # cut's witness is one at level 0
    rays = [_destabilizer_witness(dirs)]
    for j in range(last + 1):
        cost = [den - sum(map(mul, col, nums)) for col in cols]
        heads = [col[j] for col in cols]
        point = None
        if j == last:
            # lambda_j w_i[j] >= cost_i: the range is [max of the ratios
            # over w_i[j] > 0, min of those over w_i[j] < 0]
            low = high = None
            for c, a in zip(cost, heads):
                if a > 0:
                    if low is None or c * low[1] > low[0] * a:
                        low = (c, a)
                elif a < 0 and (high is None or c * high[1] > high[0] * a):
                    high = (-c, -a)
            num, d = low or (high if high and high[0] < 0 else (0, 1))
        else:
            tails = [col[j:] for col in cols]
            unit = [1] + [0] * (last - j)
            num, d = 0, 1
            # the minimum is -inf if no head is > 0 or a ray has r_0 < 0,
            # the sup +inf if no head is < 0 or a ray has r_0 > 0; an
            # infeasible LP's Farkas vector y gives the ray -y
            bounded = any(a > 0 for a in heads) and all(r[0] >= 0 for r in rays)
            if bounded:
                bounded, low = _simplex(tails, unit, cost)
                if bounded:
                    num, d, point = low
                else:
                    rays.append([-y for y in low])
            if (
                not bounded
                and any(a < 0 for a in heads)
                and all(r[0] <= 0 for r in rays)
            ):
                bounded, high = _simplex(tails, [-x for x in unit], cost)
                if not bounded:
                    rays.append([-y for y in high])
                elif high[0] > 0:
                    num, d, point = -high[0], high[1], high[2]
            # the rays of level j + 1: the tails of those with r_0 = 0,
            # and of p_0 n - n_0 p for the first pair n_0 < 0 < p_0
            n = next((r for r in rays if r[0] < 0), None)
            p = next((r for r in rays if r[0] > 0), None)
            rays = [r[1:] for r in rays if not r[0]]
            if n and p:
                rays.append([p[0] * x - n[0] * y for x, y in zip(n[1:], p[1:])])
        nums, den = [x * d for x in nums] + (point or [num]), den * d
        g = gcd(den, *nums)
        nums, den = [x // g for x in nums], den // g
        if point:
            break  # the LP's unique optimum fixed the later coordinates
    return tuple(Fraction(x, den) for x in nums)


# invariant-monomial oracle

def invariant_monomials(
    ws: WeightSystem,
    degree_cap: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[tuple[int, ...]]:
    """All exponent vectors m in N^N with total degree <= degree_cap and W m = 0.

    Brute-force oracle: the rank of the lattice generated by the output
    converges to quotient_dim as the cap grows. The enumeration size
    C(N + cap, N) is checked against the budget first, and the output,
    N exponents per monomial, is kept within it as well. Output is in
    ascending lexicographic order and always contains the zero vector.
    A cap or budget that is not an int raises ValueError.
    """
    _require_system(ws)
    _require_ints(degree_cap=degree_cap, budget=budget)
    if degree_cap < 1:
        raise ValueError(f"degree cap must be positive, got {degree_cap}")
    n = ws.n_coords
    size = comb(n + degree_cap, n)
    if size > budget:
        raise EnumerationBudgetError(
            f"enumerating {size} candidate monomials exceeds the budget {budget}"
        )
    cols = ws.columns
    out: list[tuple[int, ...]] = []
    exponents = [0] * n
    weight = [0] * ws.rank  # W applied to exponents
    degree = 0
    nonzero: list[int] = []  # positions of nonzero exponents, increasing
    while True:
        if not any(weight):
            if (len(out) + 1) * n > budget:
                raise EnumerationBudgetError(
                    f"keeping more than {len(out)} invariant monomials of {n} "
                    f"exponents exceeds the budget {budget}"
                )
            out.append(tuple(exponents))
        # lex successor: raise the last exponent while the degree allows,
        # else clear the last nonzero exponent and raise the one before it
        i = n - 1
        if degree == degree_cap:
            i = nonzero.pop()
            if i == 0:
                return out
            degree -= exponents[i]
            weight = [w - exponents[i] * c for w, c in zip(weight, cols[i])]
            exponents[i] = 0
            i -= 1
        if exponents[i] == 0:
            nonzero.append(i)
        exponents[i] += 1
        degree += 1
        weight = [w + c for w, c in zip(weight, cols[i])]
