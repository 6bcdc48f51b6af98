"""Affine GIT of diagonal torus actions in exact arithmetic.

A k-dimensional torus acts on affine N-space through an integer weight
matrix W (column i is the character on coordinate i). This module
decides polystability of supports, finds destabilizing one-parameter
subgroups and their limits, computes quotient and kernel dimensions,
and enumerates invariant monomials up to a degree cap as an
independent oracle.

Key facts used (all over the rationals, decided by Fourier-Motzkin
elimination on integer rows):

  * a support S is polystable iff no one-parameter subgroup lambda has
    <lambda, w_i> >= 0 for all i in S with strict inequality somewhere
    (equivalently, iff some x strictly positive on S solves W_S x = 0);
  * every polystable subset of S is contained in
    {i in S : <lambda, w_i> = 0} for any such lambda, so iterating
    that cut finds the unique largest polystable support; w_i is a
    positive multiple of its primitive direction, so the cut pairs
    lambda once per direction and keeps the zero columns;
  * |S| - rank(W_S) is monotone under inclusion of supports, so the
    quotient dimension is attained at the largest polystable support.

Polystability of a support depends only on the set of primitive
directions of its nonzero weights, and the feasibility answers are
cached on that set, which keeps exhaustive support sweeps cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd
from typing import Iterable, Optional, Sequence

DEFAULT_ENUMERATION_BUDGET = 10**6

_BOX_LIMIT = 10**6


class EnumerationBudgetError(RuntimeError):
    """The requested monomial enumeration exceeds the configured budget."""


@dataclass(frozen=True)
class WeightSystem:
    """An integer k x N weight matrix of a diagonal k-torus action."""

    rank: int
    n_coords: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"torus rank must be positive, got {self.rank}")
        if self.n_coords < 1:
            raise ValueError(f"need at least one coordinate, got {self.n_coords}")
        if len(self.matrix) != self.rank:
            raise ValueError(f"expected {self.rank} rows, got {len(self.matrix)}")
        for row in self.matrix:
            if len(row) != self.n_coords:
                raise ValueError(f"expected rows of length {self.n_coords}: {row}")
            if not all(isinstance(x, int) for x in row):
                raise ValueError(f"weights must be integers: {row}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "WeightSystem":
        matrix = tuple(tuple(int(x) for x in row) for row in rows)
        if not matrix or not matrix[0]:
            raise ValueError("weight matrix must be nonempty")
        return cls(rank=len(matrix), n_coords=len(matrix[0]), matrix=matrix)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.matrix))

    @cached_property
    def _directions(self) -> tuple[Optional[tuple[int, ...]], ...]:
        """Primitive direction of each column; None for zero columns."""
        out = []
        for col in self.columns:
            g = 0
            for x in col:
                g = gcd(g, x)
            out.append(tuple(x // g for x in col) if g else None)
        return tuple(out)

    def column(self, i: int) -> tuple[int, ...]:
        """Weight of coordinate i (1-based)."""
        if not 1 <= i <= self.n_coords:
            raise ValueError(f"coordinate index {i} out of range 1..{self.n_coords}")
        return self.columns[i - 1]

    def negated(self) -> "WeightSystem":
        return WeightSystem(
            self.rank,
            self.n_coords,
            tuple(tuple(-x for x in row) for row in self.matrix),
        )

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "n_coords": self.n_coords,
            "matrix": [list(row) for row in self.matrix],
        }


@dataclass(frozen=True)
class SupportPoint:
    """The set of nonzero coordinates of a point, 1-based.

    Polystability of a point under a diagonal torus action depends only
    on its support, so points are represented by supports.
    """

    support: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", frozenset(self.support))
        if not all(isinstance(i, int) and i >= 1 for i in self.support):
            raise ValueError(f"support must hold 1-based indices: {sorted(self.support)}")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "SupportPoint":
        return cls(frozenset(indices))

    @classmethod
    def full(cls, n_coords: int) -> "SupportPoint":
        return cls(frozenset(range(1, n_coords + 1)))

    @classmethod
    def origin(cls) -> "SupportPoint":
        return cls(frozenset())

    def __len__(self) -> int:
        return len(self.support)

    def to_json_dict(self) -> list[int]:
        return sorted(self.support)


@dataclass(frozen=True)
class GITResult:
    """Summary invariants of one torus action."""

    quotient_dim: int
    kernel_rank: int
    effective_rank: int

    def to_json_dict(self) -> dict:
        return {
            "quotient_dim": self.quotient_dim,
            "kernel_rank": self.kernel_rank,
            "effective_rank": self.effective_rank,
        }


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
            g = 0
            for x in row:
                g = gcd(g, x)
            work[i] = [x // g for x in row] if g else row
        rank += 1
        if rank == len(work):
            break
    return rank


def exponent_lattice_rank(monomials: Iterable[Sequence[int]]) -> int:
    """Rank of the lattice generated by a set of exponent vectors."""
    return integer_matrix_rank(monomials)


# Fourier-Motzkin feasibility with witness construction


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

# polystability

@lru_cache(maxsize=None)
def _destabilizer_witness(
    dim: int, dirs: frozenset
) -> Optional[tuple[Fraction, ...]]:
    """A rational lambda with <lambda, d> >= 0 on dirs, > 0 somewhere, or None.

    dirs is a set of primitive integer directions; the answer decides
    polystability of every support whose nonzero weights span exactly
    those directions.
    """
    rows = [(d, 0) for d in dirs]
    total = tuple(sum(col) for col in zip(*dirs)) if dirs else (0,) * dim
    rows.append((total, 1))
    return fm_witness(rows, dim)


@lru_cache(maxsize=None)
def _lex_destabilizer(dim: int, dirs: frozenset) -> Optional[tuple[int, ...]]:
    """The lexicographically smallest integer destabilizer in the smallest
    symmetric box [-B, B]^dim that contains one, or None if none exists."""
    if _destabilizer_witness(dim, dirs) is None:
        return None
    box = 1
    while box <= _BOX_LIMIT:
        for lam in itertools.product(range(-box, box + 1), repeat=dim):
            dots = [sum(a * b for a, b in zip(lam, d)) for d in dirs]
            if all(v >= 0 for v in dots) and any(v > 0 for v in dots):
                return lam
        box += 1
    raise RuntimeError("no integer destabilizer found within the search limit")


def _support_indices(ws: WeightSystem, p: SupportPoint) -> frozenset[int]:
    if p.support and max(p.support) > ws.n_coords:
        raise ValueError(
            f"support {sorted(p.support)} exceeds {ws.n_coords} coordinates"
        )
    return p.support


def _direction_set(ws: WeightSystem, indices: Iterable[int]) -> frozenset:
    dirs = ws._directions
    return frozenset(d for i in indices if (d := dirs[i - 1]) is not None)


def is_polystable(ws: WeightSystem, p: SupportPoint) -> bool:
    """True iff the orbit of a point with this support is closed.

    Equivalent formulations: every -w_i (i in S) lies in the rational
    cone generated by {w_j : j in S}; no one-parameter subgroup is
    nonnegative on S and positive somewhere; some x strictly positive
    on S solves W_S x = 0.
    """
    indices = _support_indices(ws, p)
    return _destabilizer_witness(ws.rank, _direction_set(ws, indices)) is None


def largest_polystable_support(
    ws: WeightSystem, within: Optional[SupportPoint] = None
) -> SupportPoint:
    """The unique largest polystable support contained in `within` (default: all).

    Any destabilizer lambda of S is nonnegative on every subset, so a
    polystable subset must avoid the coordinates where lambda is
    positive; cutting to {i : <lambda, w_i> = 0} and iterating strictly
    shrinks S and terminates at the largest polystable support.
    """
    if within is None:
        support = set(range(1, ws.n_coords + 1))
    else:
        support = set(_support_indices(ws, within))
    dirs = ws._directions
    while True:
        support_dirs = _direction_set(ws, support)
        witness = _destabilizer_witness(ws.rank, support_dirs)
        if witness is None:
            return SupportPoint(frozenset(support))
        cut = {d for d in support_dirs if sum(a * b for a, b in zip(witness, d))}
        support = {i for i in support if dirs[i - 1] not in cut}


def destabilizing_limit(
    ws: WeightSystem, p: SupportPoint
) -> Optional[tuple[tuple[int, ...], SupportPoint]]:
    """A destabilizing one-parameter subgroup and the support of its limit.

    When the orbit is not closed, returns (lambda, limit) where lambda
    is the lexicographically smallest integer vector (in the smallest
    symmetric box containing one) with <lambda, w_i> >= 0 on S and > 0
    somewhere, and limit = {i in S : <lambda, w_i> = 0}, a strictly
    smaller support. Returns None on closed orbits. Iterating reaches a
    polystable support in at most N steps.
    """
    indices = _support_indices(ws, p)
    lam = _lex_destabilizer(ws.rank, _direction_set(ws, indices))
    if lam is None:
        return None
    cols = ws.columns
    limit = frozenset(
        i for i in indices if sum(a * b for a, b in zip(lam, cols[i - 1])) == 0
    )
    return lam, SupportPoint(limit)


# dimensions

def effective_rank(ws: WeightSystem) -> int:
    """Rank of the weight matrix over Q: the dimension of the acting torus image."""
    return integer_matrix_rank(ws.matrix)


def kernel_rank(ws: WeightSystem) -> int:
    """Dimension of the subtorus acting trivially: k - rank(W)."""
    return ws.rank - effective_rank(ws)


def quotient_dim_via_supports(ws: WeightSystem) -> int:
    """Quotient dimension through the largest polystable support.

    max over polystable supports S of |S| - rank(W_S); the maximum is
    attained at the largest one since |S| - rank(W_S) is monotone under
    inclusion.
    """
    smax = largest_polystable_support(ws)
    if not smax.support:
        return 0
    sub = [[row[i - 1] for i in sorted(smax.support)] for row in ws.matrix]
    return len(smax) - integer_matrix_rank(sub)


def quotient_dim(ws: WeightSystem) -> int:
    """Dimension of the affine GIT quotient Spec of the invariant ring.

    For k = 1 the closed form is used: (#zero weights) + (p + q - 1 if
    positive and negative weights coexist, p + q counting them, else 0).
    Higher ranks go through the support algorithm.
    """
    if ws.rank == 1:
        row = ws.matrix[0]
        zeros = sum(1 for x in row if x == 0)
        pos = sum(1 for x in row if x > 0)
        neg = sum(1 for x in row if x < 0)
        return zeros + (pos + neg - 1 if pos and neg else 0)
    return quotient_dim_via_supports(ws)


def analyze(ws: WeightSystem) -> GITResult:
    """Bundle quotient dimension, kernel rank, and effective rank."""
    eff = effective_rank(ws)
    return GITResult(
        quotient_dim=quotient_dim(ws),
        kernel_rank=ws.rank - eff,
        effective_rank=eff,
    )


# cones and certificates

def in_rational_cone(
    vector: Sequence[int], generators: Iterable[Sequence[int]]
) -> bool:
    """Whether the vector lies in the rational cone spanned by the generators.

    By LP duality the vector is outside the cone iff some lambda is
    nonnegative on every generator and negative on the vector.
    """
    v = tuple(int(x) for x in vector)
    rows = [(tuple(int(x) for x in g), 0) for g in generators]
    rows.append((tuple(-x for x in v), 1))
    return fm_witness(rows, len(v)) is None


def open_half_space_certificate(
    ws: WeightSystem,
) -> Optional[tuple[Fraction, ...]]:
    """A functional strictly positive on every weight column, or None.

    Such a certificate exists iff only the origin is polystable (every
    nonempty support is destabilized to a strictly smaller one), which
    is the isolated-point criterion for the local moduli space.
    """
    rows = [(col, 1) for col in ws.columns]
    return fm_witness(rows, ws.rank)


# invariant-monomial oracle

def invariant_monomials(
    ws: WeightSystem,
    degree_cap: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[tuple[int, ...]]:
    """All exponent vectors m in N^N with total degree <= degree_cap and W m = 0.

    Brute-force oracle: the rank of the lattice generated by the output
    converges to quotient_dim as the cap grows. The enumeration size
    C(N + cap, N) is checked against the budget first. Output is in
    ascending lexicographic order and always contains the zero vector.
    """
    if degree_cap < 1:
        raise ValueError(f"degree cap must be positive, got {degree_cap}")
    n = ws.n_coords
    size = comb(n + degree_cap, n)
    if size > budget:
        raise EnumerationBudgetError(
            f"enumerating {size} candidate monomials exceeds the budget {budget}"
        )
    cols = ws.columns
    k = ws.rank
    out: list[tuple[int, ...]] = []
    exponents = [0] * n
    partial = [(0,) * k]

    def recurse(i: int, remaining: int) -> None:
        if i == n:
            if not any(partial[-1]):
                out.append(tuple(exponents))
            return
        col = cols[i]
        base = partial[-1]
        for v in range(remaining + 1):
            exponents[i] = v
            partial.append(tuple(b + v * c for b, c in zip(base, col)))
            recurse(i + 1, remaining - v)
            partial.pop()
        exponents[i] = 0

    recurse(0, degree_cap)
    return out
