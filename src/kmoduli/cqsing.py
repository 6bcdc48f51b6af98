"""Cyclic quotient surface singularities.

Normal forms 1/n(1,q), Hirzebruch-Jung resolutions, discrepancies, and
the arithmetic governing Q-Gorenstein deformations: rigid / T / Du Val
classification, whose r is the Gorenstein index. The torus characters
of the deformation parameters need the chart characters of a point on
a surface, so quotsurf.assemble_qdef reads them off the classification.

Discrepancies come from the toric integer formula (Cox-Little-Schenck
10.2; Reid): with alpha_0 = n, alpha_1 = q, beta_0 = 0, beta_1 = 1 and
x_{i+1} = b_i x_i - x_{i-1} for both sequences, the log discrepancy of
the i-th exceptional curve of 1/n(1,q) is (alpha_i + beta_i) / n.

The recurrence is walked by runs, so its cost is Euclid-many steps, not
the number of curves (Riemenschneider 1974; Cox-Little-Schenck 10.2).
Curve i has b_i = 2 iff d = alpha_{i-1} - alpha_i <= alpha_i. On a run
of 2s the recurrence is x_{i+1} - x_i = x_i - x_{i-1}, so alpha falls
by d and beta rises by e = beta_i - beta_{i-1} per curve, and the run
goes on while alpha >= d: it has floor(alpha_i / d) curves. Between
the runs stand the curves with b_i >= 3, about as many as the terms of
the ordinary continued fraction of n/q, so O(log n) of them. Along a
run alpha_i + beta_i is an arithmetic progression, linear in the
position, so its minimum over the run lies at one of the run's two
ends; the minimal discrepancy and the chain length read those ends
only, and discrepancies expands the runs.

All arithmetic is exact (arbitrary-precision integers and
fractions.Fraction); no floating point is used anywhere.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction
from math import gcd
from typing import NamedTuple


class NonIsolatedError(ValueError):
    """Weight data whose fixed locus is positive-dimensional."""


class UnknownDeformationError(ValueError):
    """The Q-Gorenstein deformation space is outside what this engine computes."""


class CyclicQuotientSingularity(
    namedtuple("CyclicQuotientSingularity", "order weight_a weight_b")
):
    """The germ at the origin of C^2 / Z_n acting by (u, v) -> (zeta^a u, zeta^b v).

    Weights are stored reduced mod n. Both weights must be coprime to n,
    otherwise a coordinate axis is fixed pointwise and the singularity is
    not isolated. order = 1 denotes a smooth point.
    """

    __slots__ = ()

    def __new__(cls, order: int, weight_a: int, weight_b: int):
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be a positive integer, got {order!r}")
        if type(weight_a) is not int or type(weight_b) is not int:
            raise ValueError(f"weights must be integers: ({weight_a!r}, {weight_b!r})")
        weight_a %= order
        weight_b %= order
        for name, w in (("a", weight_a), ("b", weight_b)):
            g = gcd(order, w)
            if g != 1:
                raise NonIsolatedError(
                    f"1/{order}({weight_a},{weight_b}): "
                    f"gcd(n, weight_{name}) = {g} != 1, an axis is fixed pointwise"
                )
        return super().__new__(cls, order, weight_a, weight_b)

    # _make, and so _replace, build through the constructor's checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __str__(self) -> str:
        return f"1/{self.order}({self.weight_a},{self.weight_b})"


_SING_RE = re.compile(r"^\s*1\s*/\s*(\d+)\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$")


def parse_singularity(text: str) -> CyclicQuotientSingularity:
    """Parse the input syntax "1/n(a,b)"; negative weights reduce mod n.
    Text that is not a str of that form raises ValueError."""
    m = _SING_RE.match(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"cannot parse singularity {text!r}, expected \"1/n(a,b)\"")
    n, a, b = (int(g) for g in m.groups())
    return CyclicQuotientSingularity(n, a, b)


class NormalForm(namedtuple("NormalForm", "order q")):
    """The normal form 1/n(1,q), with q = None exactly when n = 1 (smooth).

    Two normal forms present the same singularity iff they are equal or
    q * q' = 1 mod n (swapping the two chart coordinates inverts q).
    """

    __slots__ = ()

    def __new__(cls, order: int, q: int | None):
        if type(order) is not int or order < 1:
            raise ValueError(f"order must be a positive integer, got {order!r}")
        if order == 1:
            if q is not None:
                raise ValueError("smooth normal form must have q = None")
        else:
            if q is None:
                raise ValueError(f"normal form of order {order} needs q")
            if type(q) is not int:
                raise ValueError(f"q must be an integer, got {q!r}")
            if not 1 <= q < order or gcd(order, q) != 1:
                raise ValueError(f"q = {q} must satisfy 1 <= q < {order} and gcd = 1")
        return super().__new__(cls, order, q)

    # _make, and so _replace, build through the constructor's checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def is_smooth(self) -> bool:
        return self.order == 1

    def canonical(self) -> "NormalForm":
        """The representative of the equivalence class with the smaller q."""
        if self.is_smooth:
            return self
        return NormalForm(self.order, min(self.q, pow(self.q, -1, self.order)))

    def display(self) -> str:
        if self.is_smooth:
            return "smooth"
        if self.q == self.order - 1:
            return f"A_{self.order - 1}"
        return f"1/{self.order}(1,{self.q})"

    def to_json_dict(self) -> dict:
        return {"order": self.order, "q": self.q}


def _require_record(value, cls: type) -> None:
    """Refuse an entry point's record argument unless it is a cls."""
    if not isinstance(value, cls):
        raise ValueError(f"expected a {cls.__name__}, got {value!r}")


def normalize(s: CyclicQuotientSingularity) -> NormalForm:
    """Scale the first weight to 1: 1/n(a,b) = 1/n(1, a^(-1) b mod n).

    Idempotent on already-normalized input.
    """
    _require_record(s, CyclicQuotientSingularity)
    if s.order == 1:
        return NormalForm(1, None)
    q = (pow(s.weight_a, -1, s.order) * s.weight_b) % s.order
    return NormalForm(s.order, q)


class HJResolution(namedtuple("HJResolution", "coefficients")):
    """The minimal resolution of 1/n(1,q): a chain of rational curves.

    coefficients are the continued-fraction digits of n/q,
        n/q = b_1 - 1/(b_2 - 1/(... - 1/b_k)),   all b_i >= 2;
    curve i has self-intersection -b_i. len() counts the curves.
    The coefficients given are copied to a tuple; coefficients that
    cannot be iterated, none at all, or one that is not an exact int
    (a bool or a float is refused) of at least 2 raise ValueError.
    """

    __slots__ = ()

    def __new__(cls, coefficients: Iterable[int]):
        try:
            coefficients = tuple(coefficients)
        except TypeError:
            raise ValueError(f"not a coefficient sequence: {coefficients!r}") from None
        if not coefficients:
            raise ValueError("a resolution chain needs at least one curve")
        if not all(type(b) is int and b >= 2 for b in coefficients):
            raise ValueError(f"all chain coefficients must be ints >= 2: {coefficients}")
        return super().__new__(cls, coefficients)

    # _make, and so _replace, build through the constructor's checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def self_intersections(self) -> tuple[int, ...]:
        return tuple(-b for b in self.coefficients)

    def __len__(self) -> int:
        return len(self.coefficients)


def _check_singular(nf: NormalForm) -> None:
    _require_record(nf, NormalForm)
    if nf.is_smooth:
        raise ValueError("a smooth point has no exceptional curves to resolve")


def hirzebruch_jung(nf: NormalForm) -> HJResolution:
    """The Hirzebruch-Jung continued-fraction expansion of n/q."""
    _check_singular(nf)
    runs = _log_discrepancy_runs(nf.order, nf.q)
    curves = (itertools.repeat(b, length) for _, _, length, b in runs)
    return HJResolution(tuple(itertools.chain.from_iterable(curves)))


class DiscrepancyVector(NamedTuple):
    """Exceptional-curve coefficients a_i in K_resolution = pullback(K) + sum a_i E_i.

    discrepancies builds this record; the constructor checks no field,
    and no entry point takes one.
    """

    values: tuple[Fraction, ...]

    @property
    def log_values(self) -> tuple[Fraction, ...]:
        """The same data in the shifted convention 1 + a_i, as (p + q)/q
        from each p/q; a Fraction that discrepancies shares along a run of
        equal values (a whole A_n chain) is shifted once for the run."""
        logs, last, shifted = [], None, None
        for a in self.values:
            if a is not last:
                p, q = a.as_integer_ratio()
                last, shifted = a, Fraction(p + q, q)
            logs.append(shifted)
        return tuple(logs)


def _log_discrepancy_runs(n: int, q: int):
    """Yield the chain of 1/n(1,q) as runs (first, step, length, b): the
    j-th curve of a run, j = 0..length-1, has coefficient b and alpha +
    beta = first + j * step, n times its log discrepancy. Each maximal
    run of 2s is one run; every other curve is a run of length 1 and
    step 0."""
    alpha_prev, alpha, beta_prev, beta = n, q, 0, 1
    while alpha > 0:
        d = alpha_prev - alpha
        if d <= alpha:
            e = beta - beta_prev
            length = alpha // d
            yield alpha + beta, e - d, length, 2
            alpha_prev, alpha = alpha - (length - 1) * d, alpha - length * d
            beta_prev, beta = beta + (length - 1) * e, beta + length * e
        else:
            b = -(-alpha_prev // alpha)
            yield alpha + beta, 0, 1, b
            alpha_prev, alpha = alpha, b * alpha - alpha_prev
            beta_prev, beta = beta, b * beta - beta_prev


def discrepancies(nf: NormalForm) -> DiscrepancyVector:
    """The discrepancies a_i = (alpha_i + beta_i - n) / n of the minimal
    resolution of 1/n(1,q), one per curve of hirzebruch_jung(nf).

    They solve the adjunction system a_{j-1} - b_j a_j + a_{j+1} = b_j - 2
    with a_0 = a_{k+1} = 0, lie in (-1, 0], and vanish exactly on all-2
    chains (Du Val points). A smooth point raises ValueError.
    """
    _check_singular(nf)
    n = nf.order
    values = []
    for first, step, length, _ in _log_discrepancy_runs(n, nf.q):
        if step:
            values.extend(Fraction(first + j * step - n, n) for j in range(length))
        else:  # the run's curves share one value, so they share one Fraction
            values.extend(itertools.repeat(Fraction(first - n, n), length))
    return DiscrepancyVector(tuple(values))


def _min_log_numerator(n: int, q: int) -> int:
    """The least alpha + beta over the chain of 1/n(1,q), n times its
    least log discrepancy, read from the ends of the runs in O(log n)."""
    low = n  # every log discrepancy is at most 1
    for first, step, length, _ in _log_discrepancy_runs(n, q):
        if step < 0:
            first += (length - 1) * step
        if first < low:
            low = first
    return low


def min_discrepancy(nf: NormalForm) -> Fraction:
    """min(discrepancies(nf).values), from the least integer numerator
    of the chain (_min_log_numerator), in O(log n)."""
    _check_singular(nf)
    n = nf.order
    return Fraction(_min_log_numerator(n, nf.q) - n, n)


def chain_length(nf: NormalForm) -> int:
    """len(hirzebruch_jung(nf)), the number of exceptional curves, in O(log n)."""
    _check_singular(nf)
    return sum(length for _, _, length, _ in _log_discrepancy_runs(nf.order, nf.q))


class SingularityClassification(NamedTuple):
    """Deformation-theoretic classification of 1/n(1,q).

    With w = gcd(n, q+1), r = n/w and the Euclidean division
    w = m*r + w0 (0 <= w0 < r):

      * is_qg_rigid  iff m = 0   iff w^2 < n,
      * is_T         iff w0 = 0  iff n divides w^2,
      * is_du_val    iff r = 1   iff q = n - 1,
      * is_primitive_T iff T with m = 1.

    r = n / gcd(n, q+1) is the Gorenstein index: the smallest r >= 1
    such that r * K is Cartier at the point (1 at a smooth point).

    qdef_dim is the dimension of the space of Q-Gorenstein deformations:
    0 when smooth or rigid, n-1 for the Du Val point A_{n-1}, m for a
    T-singularity with r >= 2, and None when no formula is implemented
    (non-T, non-rigid, non-Du-Val cases).

    smoothing_b2 is what the point adds to b2 when a generic deformation
    smooths it, read off the fields as m - 1 for a T point and 0
    otherwise. A smoothed T point of co-index r with w = m r leaves the
    free Z_r quotient of the Milnor fiber of x y = z^(m r): its Euler
    characteristic m r + 1 - (m r - m) drops to m after the quotient
    bookkeeping, leaving b_2 = m - 1 (zero for the primitive case). A Du
    Val point A_{n-1} is the T point with r = 1 and m = n, whose n - 1
    vanishing 2-spheres the same rule counts, and a smooth point (m = 1)
    adds 0. A rigid point persists and adds 0.
    """

    normal_form: NormalForm
    w: int
    r: int
    m: int
    w0: int
    is_du_val: bool
    is_T: bool
    is_primitive_T: bool
    is_qg_rigid: bool
    qdef_dim: int | None

    @property
    def smoothing_b2(self) -> int:
        return self.m - 1 if self.is_T else 0

    def to_json_dict(self) -> dict:
        """The fields in their order, the normal form as its own dict."""
        return {**self._asdict(), "normal_form": self.normal_form.to_json_dict()}


def classify(nf: NormalForm) -> SingularityClassification:
    """Classify 1/n(1,q) by the (w, r, m, w0) arithmetic.

    The result is invariant under q -> q^(-1) mod n. A smooth point
    reports qdef_dim 0 with the flags the r = 1 arithmetic produces
    (the A_0 convention).
    """
    _require_record(nf, NormalForm)
    n = nf.order
    q_plus_1 = 1 if nf.is_smooth else nf.q + 1
    w = gcd(n, q_plus_1)
    r = n // w
    m, w0 = divmod(w, r)
    is_du_val = r == 1
    is_T = w0 == 0
    is_rigid = m == 0
    if nf.is_smooth or is_rigid:
        qdef: int | None = 0
    elif is_du_val:
        qdef = n - 1
    elif is_T:
        qdef = m
    else:
        qdef = None
    return SingularityClassification(
        nf, w, r, m, w0, is_du_val, is_T, is_T and m == 1, is_rigid, qdef
    )
