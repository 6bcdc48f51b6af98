"""Tests for the affine torus GIT engine.

The quotient-dimension oracle here works on the primal side (existence
of a strictly positive kernel vector per support, checked by eliminating
the x variables), while the library decides supports on the dual side
(one-parameter subgroups), so agreement is a genuine cross-check.
"""

import itertools
import random
from fractions import Fraction

import pytest

from kmoduli.torusgit import (
    EnumerationBudgetError,
    GITResult,
    SupportPoint,
    WeightSystem,
    analyze,
    destabilizing_limit,
    effective_rank,
    fm_witness,
    in_rational_cone,
    integer_matrix_rank,
    invariant_monomials,
    is_polystable,
    kernel_rank,
    largest_polystable_support,
    open_half_space_certificate,
    quotient_dim,
    quotient_dim_via_supports,
)


def x_row(l):
    return list(range(l, 1, -1)) + [-c for c in range(l, 1, -1)]


def y_row(l):
    return list(range(l, 1, -1))


def x_matrix(l):
    row = x_row(l)
    return WeightSystem.from_rows([row, row])


def y_matrix(l):
    row = y_row(l)
    return WeightSystem.from_rows([row, row])


def primal_polystable(ws, indices):
    """Support feasibility on the primal side: x > 0 on S with W_S x = 0."""
    S = sorted(indices)
    if not S:
        return True
    rows = []
    for row in ws.matrix:
        sub = tuple(row[i - 1] for i in S)
        rows.append((sub, 0))
        rows.append((tuple(-x for x in sub), 0))
    for j in range(len(S)):
        rows.append((tuple(1 if t == j else 0 for t in range(len(S))), 1))
    return fm_witness(rows, len(S)) is not None


def primal_quotient_dim(ws):
    best = 0
    for mask in range(1, 1 << ws.n_coords):
        S = [i + 1 for i in range(ws.n_coords) if mask >> i & 1]
        if primal_polystable(ws, S):
            sub = [[row[i - 1] for i in S] for row in ws.matrix]
            best = max(best, len(S) - integer_matrix_rank(sub))
    return best


def random_system(rng, k, n, bound=3):
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
    return WeightSystem.from_rows(rows)


# construction and validation


def test_weight_system_validation():
    with pytest.raises(ValueError):
        WeightSystem(rank=2, n_coords=2, matrix=((1, 2),))
    with pytest.raises(ValueError):
        WeightSystem(rank=1, n_coords=3, matrix=((1, 2),))
    with pytest.raises(ValueError):
        WeightSystem.from_rows([])
    ws = WeightSystem.from_rows([[1, -1]])
    assert ws.rank == 1 and ws.n_coords == 2
    assert ws.column(1) == (1,) and ws.column(2) == (-1,)
    with pytest.raises(ValueError):
        ws.column(3)


def test_support_point_validation():
    with pytest.raises(ValueError):
        SupportPoint(frozenset({0}))
    assert len(SupportPoint.full(4)) == 4
    assert SupportPoint.origin().support == frozenset()
    with pytest.raises(ValueError):
        is_polystable(WeightSystem.from_rows([[1, 2]]), SupportPoint.of([3]))


def test_integer_matrix_rank():
    assert integer_matrix_rank([[2, 4], [1, 2]]) == 1
    assert integer_matrix_rank([[1, 0], [0, 1]]) == 2
    assert integer_matrix_rank([[0, 0]]) == 0
    assert integer_matrix_rank([]) == 0
    assert integer_matrix_rank([[2, 3, 5], [4, 6, 10], [1, 1, 1]]) == 2


# fm_witness


def test_fm_witness_infeasible():
    assert fm_witness([((1,), 1), ((-1,), 0)], 1) is None
    assert fm_witness([((0, 0), 1)], 2) is None


def test_fm_witness_feasible_satisfies_rows():
    rng = random.Random(7)
    for _ in range(200):
        dim = rng.randint(1, 3)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 6))
        ]
        w = fm_witness(rows, dim)
        if w is not None:
            for coeffs, const in rows:
                assert sum(a * b for a, b in zip(coeffs, w)) >= const


def test_fm_witness_agrees_with_brute_grid():
    # systems solvable in a small grid must be reported feasible
    rng = random.Random(11)
    for _ in range(100):
        dim = 2
        rows = [
            (tuple(rng.randint(-2, 2) for _ in range(dim)), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 5))
        ]
        grid_hit = any(
            all(a * x + b * y >= c for (a, b), c in rows)
            for x in range(-4, 5)
            for y in range(-4, 5)
        )
        w = fm_witness(rows, dim)
        if grid_hit:
            assert w is not None


# quotient dimension


def test_quotient_dim_x_row():
    assert quotient_dim(WeightSystem.from_rows([x_row(5)])) == 7
    for l in range(2, 13):
        assert quotient_dim(WeightSystem.from_rows([x_row(l)])) == 2 * l - 3


def test_quotient_dim_y_row():
    assert quotient_dim(WeightSystem.from_rows([y_row(5)])) == 0


def test_quotient_dim_zero_matrix():
    assert quotient_dim(WeightSystem.from_rows([[0, 0, 0], [0, 0, 0]])) == 3
    assert quotient_dim(WeightSystem.from_rows([[0, 0]])) == 2


def test_quotient_dim_x2_matrix():
    ws = WeightSystem.from_rows([[2, -2, 2, -2], [2, 2, -2, -2]])
    assert quotient_dim(ws) == 2
    assert kernel_rank(ws) == 0


def test_quotient_dim_positive_kernel_ray_needs_high_degree():
    # kernel spanned by (8, 19, 13): one-dimensional quotient, yet the
    # smallest nonzero invariant monomial has degree 40
    ws = WeightSystem.from_rows([[4, -1, -1], [-3, 4, -4]])
    assert quotient_dim(ws) == 1
    assert largest_polystable_support(ws) == SupportPoint.full(3)
    assert invariant_monomials(ws, 39) == [(0, 0, 0)]
    assert (8, 19, 13) in invariant_monomials(ws, 40)


def test_closed_form_matches_support_algorithm():
    values = range(-2, 3)
    for n in (1, 2, 3):
        rows = [[]]
        for _ in range(n):
            rows = [r + [v] for r in rows for v in values]
        for row in rows:
            ws = WeightSystem.from_rows([row])
            assert quotient_dim(ws) == quotient_dim_via_supports(ws)


def test_quotient_dim_matches_primal_oracle():
    rng = random.Random(20260817)
    systems = [
        WeightSystem.from_rows([[4, -1, -1], [-3, 4, -4]]),
        WeightSystem.from_rows([[2, -2, 2, -2], [2, 2, -2, -2]]),
        WeightSystem.from_rows([[0, 0, 0], [0, 0, 0]]),
        y_matrix(5),
        x_matrix(4),
    ]
    for _ in range(150):
        systems.append(random_system(rng, rng.randint(1, 2), rng.randint(1, 4)))
    for ws in systems:
        assert quotient_dim(ws) == primal_quotient_dim(ws)


def test_quotient_dim_bounds():
    rng = random.Random(3)
    for _ in range(100):
        ws = random_system(rng, rng.randint(1, 2), rng.randint(1, 4))
        d = quotient_dim(ws)
        assert 0 <= d <= ws.n_coords
        assert (d == ws.n_coords) == all(
            x == 0 for row in ws.matrix for x in row
        )


def test_zero_coordinate_monotonicity():
    rng = random.Random(5)
    for _ in range(60):
        ws = random_system(rng, rng.randint(1, 2), rng.randint(1, 4))
        extended = WeightSystem.from_rows([list(row) + [0] for row in ws.matrix])
        assert quotient_dim(extended) == quotient_dim(ws) + 1


# kernel


def test_kernel_rank_x_family():
    for l in (3, 5, 8):
        assert kernel_rank(x_matrix(l)) == 1
        assert effective_rank(x_matrix(l)) == 1


def test_kernel_rank_zero_matrix():
    assert kernel_rank(WeightSystem.from_rows([[0, 0], [0, 0]])) == 2


def test_analyze_bundles():
    res = analyze(x_matrix(5))
    assert res == GITResult(quotient_dim=7, kernel_rank=1, effective_rank=1)


# polystability


def test_polystable_y_supports():
    ws = y_matrix(5)
    for mask in range(1, 16):
        S = SupportPoint.of(i + 1 for i in range(4) if mask >> i & 1)
        assert not is_polystable(ws, S)
    assert is_polystable(ws, SupportPoint.origin())


def test_polystable_x_supports():
    ws = x_matrix(5)
    assert is_polystable(ws, SupportPoint.full(8))
    # supports confined to one block of four columns
    for mask in range(1, 16):
        block1 = SupportPoint.of(i + 1 for i in range(4) if mask >> i & 1)
        block2 = SupportPoint.of(i + 5 for i in range(4) if mask >> i & 1)
        assert not is_polystable(ws, block1)
        assert not is_polystable(ws, block2)
    # one coordinate from each block balances
    assert is_polystable(ws, SupportPoint.of([1, 5]))


def test_largest_polystable_support():
    assert largest_polystable_support(y_matrix(5)) == SupportPoint.origin()
    assert largest_polystable_support(x_matrix(5)) == SupportPoint.full(8)
    ws = WeightSystem.from_rows([[1, -1, 1]])
    assert largest_polystable_support(ws, within=SupportPoint.of([1, 3])) == (
        SupportPoint.origin()
    )
    assert largest_polystable_support(ws) == SupportPoint.full(3)


def coordinatewise_cut_oracle(ws, within):
    """The support cut paired coordinate by coordinate in Fractions.

    Each round solves for a destabilizer of the whole current support
    from its columns (no direction sets, no cache) and keeps the
    coordinates whose column pairs to 0.
    """
    support = set(within.support)
    while True:
        cols = [ws.columns[i - 1] for i in sorted(support)]
        total = tuple(sum(c) for c in zip(*cols)) if cols else (0,) * ws.rank
        witness = fm_witness([(c, 0) for c in cols] + [(total, 1)], ws.rank)
        if witness is None:
            return SupportPoint(frozenset(support))
        support = {
            i
            for i in support
            if sum(Fraction(a) * b for a, b in zip(witness, ws.columns[i - 1])) == 0
        }


def test_largest_polystable_support_matches_coordinatewise_cut():
    rng = random.Random(20261018)
    for _ in range(150):
        k = rng.randint(1, 4)
        base = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 5))]
        cols = list(base)
        cols += [[0] * k for _ in range(rng.randint(1, 2))]
        cols += [rng.choice(base) for _ in range(rng.randint(0, 2))]
        cols += [[g * x for x in rng.choice(base)] for g in rng.sample((2, 3, -2), 2)]
        rng.shuffle(cols)
        ws = WeightSystem.from_rows([list(row) for row in zip(*cols)])
        n = ws.n_coords
        within = SupportPoint.of(i for i in range(1, n + 1) if rng.random() < 0.7)
        for point in (SupportPoint.full(n), within):
            assert largest_polystable_support(ws, within=point) == (
                coordinatewise_cut_oracle(ws, point)
            ), (ws.matrix, sorted(point.support))


def test_origin_only_polystable_iff_quotient_dim_zero():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(400):
        k = rng.randint(1, 3)
        base = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 5))]
        cols = list(base)
        cols += [[0] * k for _ in range(rng.choice((0, 0, 0, 1)))]
        cols += [rng.choice(base) for _ in range(rng.randint(0, 2))]
        cols += [[g * x for x in rng.choice(base)] for g in rng.sample((2, 3, -2), rng.randint(0, 2))]
        rng.shuffle(cols)
        ws = WeightSystem.from_rows([list(row) for row in zip(*cols)])
        origin_only = largest_polystable_support(ws) == SupportPoint.origin()
        assert (quotient_dim(ws) == 0) == origin_only, ws.matrix
        assert (analyze(ws).quotient_dim == 0) == origin_only, ws.matrix
        seen.add((k, origin_only))
    assert seen == {(k, b) for k in (1, 2, 3) for b in (True, False)}


def test_destabilizing_limit_y():
    lam, limit = destabilizing_limit(
        WeightSystem.from_rows([y_row(5)]), SupportPoint.full(4)
    )
    assert lam == (1,)
    assert limit == SupportPoint.origin()
    lam2, limit2 = destabilizing_limit(y_matrix(5), SupportPoint.full(4))
    assert lam2 == (0, 1)
    assert limit2 == SupportPoint.origin()


def test_destabilizing_limit_x_full_closed():
    assert destabilizing_limit(x_matrix(5), SupportPoint.full(8)) is None


def test_destabilizing_limit_single_positive_weight():
    lam, limit = destabilizing_limit(
        WeightSystem.from_rows([[1, -1]]), SupportPoint.of([1])
    )
    assert lam == (1,)
    assert limit == SupportPoint.origin()


def test_destabilizing_limit_mixed_support():
    # weights (1, -1, 2): support {1, 3} destabilized, limit keeps nothing
    ws = WeightSystem.from_rows([[1, -1, 2]])
    lam, limit = destabilizing_limit(ws, SupportPoint.of([1, 3]))
    assert lam == (1,)
    assert limit == SupportPoint.origin()


def test_polystable_iff_no_destabilizer():
    rng = random.Random(13)
    for _ in range(80):
        ws = random_system(rng, rng.randint(1, 2), rng.randint(1, 4))
        for mask in range(1 << ws.n_coords):
            S = SupportPoint.of(i + 1 for i in range(ws.n_coords) if mask >> i & 1)
            res = destabilizing_limit(ws, S)
            assert is_polystable(ws, S) == (res is None)
            if res is not None:
                lam, limit = res
                dots = [
                    sum(a * b for a, b in zip(lam, ws.column(i)))
                    for i in sorted(S.support)
                ]
                assert all(v >= 0 for v in dots) and any(v > 0 for v in dots)
                assert limit.support < S.support


def test_iterated_destabilization_reaches_polystable():
    rng = random.Random(17)
    for _ in range(60):
        ws = random_system(rng, rng.randint(1, 2), rng.randint(1, 4))
        S = SupportPoint.full(ws.n_coords)
        steps = 0
        while True:
            res = destabilizing_limit(ws, S)
            if res is None:
                break
            S = res[1]
            steps += 1
            assert steps <= ws.n_coords
        assert is_polystable(ws, S)


def test_negation_invariance():
    rng = random.Random(19)
    for _ in range(60):
        ws = random_system(rng, rng.randint(1, 2), rng.randint(1, 4))
        neg = ws.negated()
        assert quotient_dim(ws) == quotient_dim(neg)
        assert kernel_rank(ws) == kernel_rank(neg)
        for mask in range(1 << ws.n_coords):
            S = SupportPoint.of(i + 1 for i in range(ws.n_coords) if mask >> i & 1)
            assert is_polystable(ws, S) == is_polystable(neg, S)


# cones and certificates


def test_in_rational_cone_basics():
    gens = [(1, 0), (0, 1)]
    assert in_rational_cone((1, 1), gens)
    assert in_rational_cone((0, 0), gens)
    assert not in_rational_cone((-1, 0), gens)
    assert in_rational_cone((-2, 3), [(1, 1), (-1, 1)])
    assert not in_rational_cone((1, 2), [])


def test_polystable_matches_cone_criterion():
    rng = random.Random(23)
    for _ in range(40):
        ws = random_system(rng, 2, rng.randint(1, 4), bound=2)
        for mask in range(1 << ws.n_coords):
            idx = [i + 1 for i in range(ws.n_coords) if mask >> i & 1]
            S = SupportPoint.of(idx)
            gens = [ws.column(i) for i in idx]
            cone_ok = all(
                in_rational_cone(tuple(-x for x in ws.column(i)), gens) for i in idx
            )
            assert is_polystable(ws, S) == cone_ok


def test_open_half_space_certificate():
    cert = open_half_space_certificate(y_matrix(5))
    assert cert is not None
    for col in y_matrix(5).columns:
        assert sum(a * b for a, b in zip(cert, col)) > 0
    positive = open_half_space_certificate(WeightSystem.from_rows([[1, 0], [1, 1]]))
    assert positive is not None
    assert open_half_space_certificate(x_matrix(5)) is None
    # a zero column can never be strictly positive
    assert open_half_space_certificate(WeightSystem.from_rows([[1, 0], [1, 0]])) is None


# invariant monomials


def test_invariant_monomials_xy():
    ws = WeightSystem.from_rows([[1, -1]])
    assert invariant_monomials(ws, 2) == [(0, 0), (1, 1)]


def test_invariant_monomials_2_m3():
    ws = WeightSystem.from_rows([[2, -3]])
    ms = invariant_monomials(ws, 5)
    assert (3, 2) in ms
    assert all(2 * a - 3 * b == 0 and a + b <= 5 for a, b in ms)


def test_invariant_monomials_x3():
    ws = WeightSystem.from_rows([[3, 2, -3, -2]])
    ms = invariant_monomials(ws, 6)
    for expected in ((1, 0, 1, 0), (0, 1, 0, 1), (0, 3, 2, 0)):
        assert expected in ms
    assert integer_matrix_rank(ms) == 3
    assert quotient_dim(ws) == 3


def test_invariant_monomials_is_the_filtered_lex_enumeration():
    rng = random.Random(31)
    for _ in range(60):
        ws = random_system(rng, rng.randint(1, 3), rng.randint(1, 4))
        cap = rng.randint(1, 5)
        expected = [
            m
            for m in itertools.product(range(cap + 1), repeat=ws.n_coords)
            if sum(m) <= cap
            and all(sum(w * e for w, e in zip(row, m)) == 0 for row in ws.matrix)
        ]
        assert invariant_monomials(ws, cap) == expected, (ws.matrix, cap)


def test_invariant_monomials_many_coordinates():
    # one stack frame per coordinate used to exceed the recursion limit
    ws = WeightSystem.from_rows([[1, -1] * 600])
    assert invariant_monomials(ws, 1) == [(0,) * 1200]
    ws = WeightSystem.from_rows([[0] + [1] * 1199])
    ms = invariant_monomials(ws, 2)
    assert ms == [(0,) * 1200, (1,) + (0,) * 1199, (2,) + (0,) * 1199]


def test_invariant_monomials_budget():
    ws = WeightSystem.from_rows([[1, -1]])
    with pytest.raises(EnumerationBudgetError):
        invariant_monomials(ws, 5, budget=10)
    with pytest.raises(EnumerationBudgetError):
        invariant_monomials(ws, 10**7)
    with pytest.raises(ValueError):
        invariant_monomials(ws, 0)


def test_invariant_monomial_rank_approaches_quotient_dim():
    rng = random.Random(29)
    for _ in range(40):
        ws = random_system(rng, 1, rng.randint(1, 3), bound=2)
        target = quotient_dim(ws)
        cap = 12
        rank = integer_matrix_rank(invariant_monomials(ws, cap))
        while rank < target and cap < 100:
            cap *= 2
            rank = integer_matrix_rank(invariant_monomials(ws, cap))
        assert rank == target


def test_destabilizer_deterministic():
    ws = y_matrix(7)
    first = destabilizing_limit(ws, SupportPoint.full(6))
    second = destabilizing_limit(ws, SupportPoint.full(6))
    assert first == second


def test_witness_is_rational():
    lam = open_half_space_certificate(y_matrix(5))
    assert all(isinstance(v, Fraction) for v in lam)
