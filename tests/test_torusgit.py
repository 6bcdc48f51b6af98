"""Tests for the affine torus GIT engine.

The quotient-dimension oracle here works on the primal side (existence
of a strictly positive kernel vector per support, checked by eliminating
the x variables), while the library decides supports on the dual side
(one-parameter subgroups), so agreement is a genuine cross-check.
"""

import ast
import inspect
import itertools
import operator
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from call_counts import count_calls
from fourier_motzkin import fm_witness
from simplex_oracle import simplex as oracle_simplex
from weight_systems import column, negated

from kmoduli import torusgit
from kmoduli.torusgit import (
    _destabilizer_witness,
    _direction_rank,
    _polystable_directions,
    _quotient_dim,
    _simplex,
    _start_box,
    EnumerationBudgetError,
    SupportPoint,
    WeightSystem,
    destabilizing_limit,
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
    # a rank or coordinate count that is not an int, and a matrix or a
    # row without a length, are refused by name, not left to a TypeError
    for rank, n_coords, matrix in (
        (2.0, 1, ((1,), (1,))),
        (True, 1, ((1,),)),
        (1, 1.0, ((1,),)),
        (1, None, ((1,),)),
        (1, 1, 5),
        (1, 1, (5,)),
        (1, 1, None),
    ):
        with pytest.raises(ValueError):
            WeightSystem(rank, n_coords, matrix)
    ws = WeightSystem.from_rows([[1, -1]])
    assert ws.rank == 1 and ws.n_coords == 2
    assert column(ws, 1) == (1,) and column(ws, 2) == (-1,)
    with pytest.raises(ValueError):
        column(ws, 3)


@pytest.mark.parametrize("container", [list, tuple])
@pytest.mark.parametrize("row_container", [list, tuple])
def test_weight_system_keeps_its_own_rows(container, row_container):
    # the constructor copies the matrix into tuples: the record is
    # hashable, equals the one from_rows builds, and mutating the rows
    # given later changes no answer
    rows = container([row_container([1, -1, 0]), row_container([0, 2, -1])])
    ws = WeightSystem(2, 3, rows)
    built = WeightSystem.from_rows([[1, -1, 0], [0, 2, -1]])
    assert ws == built and hash(ws) == hash(built)
    assert ws.matrix == ((1, -1, 0), (0, 2, -1))
    assert (quotient_dim(ws), kernel_rank(ws)) == (1, 0)
    if container is list and row_container is list:
        rows[0][0] = -1
        rows.append([5, 5, 5])
        assert ws.matrix == built.matrix
        assert (quotient_dim(ws), kernel_rank(ws)) == (1, 0)
        assert quotient_dim(WeightSystem(2, 3, rows[:2])) == 0


def test_weight_system_rejects_booleans():
    with pytest.raises(TypeError):
        WeightSystem.from_rows([[True, False]])
    with pytest.raises(TypeError):
        WeightSystem.from_rows([[1, -1], [0, True]])
    with pytest.raises(ValueError):
        WeightSystem(rank=1, n_coords=2, matrix=((True, False),))


def test_support_point_validation():
    with pytest.raises(ValueError):
        SupportPoint(frozenset({0}))
    assert len(SupportPoint.full(4)) == 4
    # a coordinate count that is not an int is refused by name
    for n_coords in (2.0, None, "3"):
        with pytest.raises(ValueError, match="must be an integer"):
            SupportPoint.full(n_coords)
    assert SupportPoint.origin().support == frozenset()
    with pytest.raises(ValueError):
        is_polystable(WeightSystem.from_rows([[1, 2]]), SupportPoint.of([3]))
    # bools are refused, as in WeightSystem
    with pytest.raises(ValueError, match="1-based indices"):
        SupportPoint([True, 2])
    with pytest.raises(ValueError, match="1-based indices"):
        SupportPoint.of([True])
    # indices that are not a collection
    for indices in (5, None, 2.0):
        with pytest.raises(ValueError, match="set of indices"):
            SupportPoint.of(indices)
        with pytest.raises(ValueError, match="set of indices"):
            SupportPoint(indices)


@pytest.mark.parametrize("support", [{1}, [1, 2], (1,), frozenset({2}), 5, None])
def test_support_queries_refuse_a_support_that_is_not_a_support_point(support):
    ws = WeightSystem.from_rows([[1, -1]])
    with pytest.raises(ValueError, match="expected a SupportPoint"):
        is_polystable(ws, support)
    with pytest.raises(ValueError, match="expected a SupportPoint"):
        destabilizing_limit(ws, support)
    if support is not None:  # None is the default: the whole support
        with pytest.raises(ValueError, match="expected a SupportPoint"):
            largest_polystable_support(ws, within=support)


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
    # rank 1: #zeros + (p + q - 1 if p positive and q negative weights
    # coexist, else 0)
    values = range(-2, 3)
    for n in (1, 2, 3):
        rows = [[]]
        for _ in range(n):
            rows = [r + [v] for r in rows for v in values]
        for row in rows:
            ws = WeightSystem.from_rows([row])
            zeros = row.count(0)
            pos = sum(1 for x in row if x > 0)
            neg = sum(1 for x in row if x < 0)
            closed = zeros + (pos + neg - 1 if pos and neg else 0)
            assert quotient_dim(ws) == quotient_dim_via_supports(ws) == closed, row


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
        assert integer_matrix_rank(x_matrix(l).matrix) == 1


def test_kernel_rank_zero_matrix():
    assert kernel_rank(WeightSystem.from_rows([[0, 0], [0, 0]])) == 2


def direction_answers(k, counts, zeros):
    """Quotient dimension and kernel rank of a rank-k torus from the
    multiset of its directions, as the local model reads them."""
    dirs = frozenset(counts)
    return _quotient_dim(counts, zeros, dirs), k - _direction_rank(dirs)


def test_direction_counts_answer_as_the_matrix():
    ws = x_matrix(5)
    assert (quotient_dim(ws), kernel_rank(ws)) == (7, 1)
    assert direction_answers(2, {(1, 1): 4, (-1, -1): 4}, 0) == (7, 1)


def clear_caches():
    """Empty every lru_cache of torusgit, as perfbench/ops.py clear_caches."""
    for obj in vars(torusgit).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def expanded_system(rng, counts, zeros):
    """A weight matrix with the given direction counts and zero columns:
    each column a random positive multiple of its direction, shuffled."""
    k = len(next(iter(counts))) if counts else 1
    cols = [[0] * k for _ in range(zeros)]
    for d, n in counts.items():
        for _ in range(n):
            c = rng.choice((1, 1, 2, 3))
            cols.append([c * x for x in d])
    rng.shuffle(cols)
    return WeightSystem.from_rows([list(row) for row in zip(*cols)])


def test_direction_counts_match_expanded_systems():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(400):
        k = rng.randint(1, 4)
        vs = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(0, 5))]
        # an opposite direction and minus a partial sum make cuts that keep
        # some or all of the directions
        if vs and rng.random() < 0.5:
            vs.append([-x for x in rng.choice(vs)])
        if vs and rng.random() < 0.5:
            vs.append([-sum(c) for c in zip(*rng.sample(vs, rng.randint(1, len(vs))))])
        counts = {}
        for v in vs:
            if g := gcd(*v):
                d = tuple(x // g for x in v)
                counts[d] = counts.get(d, 0) + rng.randint(1, 3)
        zeros = rng.choice((0, 0, 1, 2))
        if not counts:
            k, zeros = 1, zeros or 1
        ws = expanded_system(rng, counts, zeros)
        res = direction_answers(k, counts, zeros)
        # the matrix queries would read the cut and the ranks cached just above
        clear_caches()
        assert res == (quotient_dim(ws), kernel_rank(ws)), ws.matrix
        assert res[0] == quotient_dim_via_supports(ws), ws.matrix
        kept = largest_polystable_support(ws)
        seen.add((k, len(kept) - zeros, len(kept) == ws.n_coords))
    # every rank sees a cut to the zero columns, and ranks 2 to 4 a
    # partial one, which keeps some but not all of the directions
    assert {(k, 0, False) for k in (1, 2, 3, 4)} <= seen
    for k in (2, 3, 4):
        assert any(key[0] == k and key[1] > 0 and not key[2] for key in seen), k


def test_direction_counts_cut_once_per_direction_set():
    # (0, 1) destabilizes and the cut keeps the pair (1, 0), (-1, 0) of
    # rank 1: one cut, two witnesses (the set and the pair) and two
    # ranks (the pair and all three); other counts and zeros reuse them,
    # and a warm answer is the answer after cache_clear() and the answer
    # of an expanded matrix
    cases = [
        (({(1, 0): 1, (-1, 0): 2, (0, 1): 1}, 0), (2, 0)),
        (({(1, 0): 5, (-1, 0): 1, (0, 1): 3}, 2), (7, 0)),
        (({(0, 1): 7, (-1, 0): 1, (1, 0): 1}, 1), (2, 0)),
    ]
    clear_caches()
    warm = [direction_answers(2, *args) for args, _ in cases]
    misses = [
        fn.cache_info().misses
        for fn in (_polystable_directions, _destabilizer_witness, _direction_rank)
    ]
    assert misses == [1, 2, 2]
    rng = random.Random(22)
    for (args, expected), res in zip(cases, warm):
        clear_caches()
        assert res == direction_answers(2, *args) == expected
        ws = expanded_system(rng, *args)
        clear_caches()
        assert (quotient_dim(ws), kernel_rank(ws)) == expected, ws.matrix


def test_every_torusgit_memo_is_a_module_level_lru_cache():
    # a memo nested in a function, or a dict at module level, would escape
    # the cache_clear loop that times the git queries cold
    tree = ast.parse(inspect.getsource(torusgit))
    memos = set()
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            dec = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(dec, "id", getattr(dec, "attr", None)) in ("lru_cache", "cache"):
                assert node in tree.body, node.name
                memos.add(node.name)
    clearable = {
        name
        for name, obj in vars(torusgit).items()
        if callable(getattr(obj, "cache_clear", None))
    }
    assert memos == clearable == {
        "_destabilizer_witness",
        "_polystable_directions",
        "_direction_rank",
        "_lex_destabilizer",
    }
    assert not [
        name
        for name, obj in vars(torusgit).items()
        if not name.startswith("__") and isinstance(obj, (dict, list, set))
    ]
    quotient_dim(WeightSystem.from_rows([[1, 1], [1, 1]]))
    destabilizing_limit(WeightSystem.from_rows([[1, 1]]), SupportPoint.of([1]))
    assert all(getattr(torusgit, name).cache_info().currsize for name in memos)
    clear_caches()
    assert not any(getattr(torusgit, name).cache_info().currsize for name in memos)


def test_no_directions_make_a_point_and_a_trivial_torus():
    # no deformations: the quotient is a point and the torus acts
    # trivially; zero columns each add one to the quotient dimension
    assert direction_answers(2, {}, 0) == (0, 2)
    assert direction_answers(3, {}, 4) == (4, 3)
    ws = WeightSystem.from_rows([[0] * 4] * 3)
    assert (quotient_dim(ws), kernel_rank(ws)) == (4, 3)


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
        # the ranks over columns: rank W and |S| - rank W_S
        assert ws.rank - kernel_rank(ws) == integer_matrix_rank(ws.matrix), ws.matrix
        smax = sorted(coordinatewise_cut_oracle(ws, SupportPoint.full(n)).support)
        sub = [[row[i - 1] for i in smax] for row in ws.matrix]
        assert quotient_dim_via_supports(ws) == (
            len(smax) - integer_matrix_rank(sub)
        ), ws.matrix


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


def lex_box_destabilizer(ws, S, max_box=None):
    """The lex-min destabilizer of S in the smallest box [-B, B]^k holding
    one, by scanning whole boxes; None if none lies within max_box."""
    cols = [column(ws, i) for i in sorted(S.support)]
    for box in itertools.count(1) if max_box is None else range(1, max_box + 1):
        for lam in itertools.product(range(-box, box + 1), repeat=ws.rank):
            dots = [sum(a * b for a, b in zip(lam, c)) for c in cols]
            if all(v >= 0 for v in dots) and any(v > 0 for v in dots):
                return lam
    return None


def support_directions(ws, S):
    cols = [column(ws, i) for i in S.support]
    return frozenset(tuple(x // gcd(*c) for x in c) for c in cols if any(c))


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
                    sum(a * b for a, b in zip(lam, column(ws, i)))
                    for i in sorted(S.support)
                ]
                assert all(v >= 0 for v in dots) and any(v > 0 for v in dots)
                assert limit.support < S.support
                assert lam == lex_box_destabilizer(ws, S)
                # the search ends by the box of the kernel's integer witness
                witness = _destabilizer_witness(support_directions(ws, S))
                assert max(map(abs, lam)) <= max(map(abs, witness))


def test_destabilizer_is_the_whole_box_lex_min_in_rank_3_and_4():
    rng = random.Random(31)
    boxes = Counter()
    for _ in range(300):
        ws = random_system(rng, rng.randint(3, 4), rng.randint(4, 8))
        S = SupportPoint.of(i + 1 for i in range(ws.n_coords) if rng.random() < 0.9)
        res = destabilizing_limit(ws, S)
        if res is None:
            continue
        lam = res[0]
        box = max(map(abs, lam))
        # the LP start never passes the box of the answer
        assert _start_box(support_directions(ws, S)) <= box
        # the whole-box oracle up to box 3: equal there, and empty below
        # an answer past it
        oracle = lex_box_destabilizer(ws, S, max_box=3)
        assert oracle == (lam if box <= 3 else None), ws.matrix
        boxes[min(box, 4)] += 1
    assert boxes[2] + boxes[3] > 20 and boxes[4] > 0


def test_destabilizer_search_is_capped_by_the_budget():
    # rank 4, lex-min (-10, 2, 2, 19): boxes 2 to 19 hold tens of
    # thousands of search nodes
    ws = WeightSystem.from_rows([
        [-3, 3, -4, -5, 4, 2, -5],
        [1, -3, 2, -4, 0, -4, 5],
        [4, 3, -3, -2, 1, 2, -3],
        [-2, 5, -2, -2, 2, 3, -2],
    ])
    S = SupportPoint.of([1, 3, 4, 5, 6, 7])
    with pytest.raises(EnumerationBudgetError, match=r"support \[1, 3, 4, 5, 6, 7\]"):
        destabilizing_limit(ws, S, budget=1000)
    assert destabilizing_limit(ws, S)[0] == (-10, 2, 2, 19)
    # box 1 in rank 2 visits at most 1 + 3 prefixes
    assert destabilizing_limit(y_matrix(5), SupportPoint.full(4), budget=4)[0] == (0, 1)
    with pytest.raises(EnumerationBudgetError, match=r"support \[1, 3, 4, 5, 6, 7\]"):
        destabilizing_limit(ws, S, budget=-1)


def test_destabilizer_skips_coordinates_no_weight_sees():
    # rank 20 with every weight on the first coordinate: lambda_0 = 1
    # and every other coordinate takes its least value, with no search
    # over the 3^19 completions of lambda_0 = 0
    rows = [[1, 2, 0]] + [[0, 0, 0]] * 19
    lam, limit = destabilizing_limit(WeightSystem.from_rows(rows), SupportPoint.full(3))
    assert lam == (1,) + (-1,) * 19
    assert limit == SupportPoint.of([3])
    rows = [[0, 0]] * 3 + [[1, -1]] + [[0, 0]] * 2
    assert destabilizing_limit(WeightSystem.from_rows(rows), SupportPoint.of([2]))[0] == (
        -1, -1, -1, -1, -1, -1,
    )


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
        neg = negated(ws)
        assert quotient_dim(ws) == quotient_dim(neg)
        assert kernel_rank(ws) == kernel_rank(neg)
        for mask in range(1 << ws.n_coords):
            S = SupportPoint.of(i + 1 for i in range(ws.n_coords) if mask >> i & 1)
            assert is_polystable(ws, S) == is_polystable(neg, S)


def random_unimodular(rng, k):
    """A random integer k x k matrix of determinant +-1: row negations
    and row additions applied to the identity."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(2 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            m = rng.choice((-1, 1))
            u[i] = [a + m * b for a, b in zip(u[i], u[j])]
    return u


def git_facts(ws, support):
    """The answers a change of columns or of torus basis must keep, with
    the certificate checked > 0 on every column."""
    cert = open_half_space_certificate(ws)
    if cert is not None:
        den = lcm(*(x.denominator for x in cert))
        nums = [x.numerator * (den // x.denominator) for x in cert]
        assert all(sum(map(operator.mul, nums, c)) > 0 for c in ws.columns)
    return (
        quotient_dim(ws),
        kernel_rank(ws),
        is_polystable(ws, support),
        largest_polystable_support(ws),
        cert is not None,
    )


def test_git_answers_are_invariant_under_columns_and_basis():
    # permuting and positively scaling the columns, or changing the torus
    # basis by a unimodular matrix, keeps every answer (the largest
    # support mapped through the permutation); the lex-min destabilizer
    # depends only on the direction set, so the first change keeps it
    rng = random.Random(11)
    seen = Counter()
    for _ in range(1500):
        k, n = rng.randint(1, 5), rng.randint(1, 9)
        cols = [tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(n)]
        ws = WeightSystem.from_rows(list(zip(*cols)))
        S = SupportPoint.of(i + 1 for i in range(n) if rng.random() < 0.7)
        # column j of moved is scale[j] times column perm[j] of ws
        perm = rng.sample(range(n), n)
        scale = [rng.randint(1, 3) for _ in range(n)]
        moved = WeightSystem.from_rows(
            list(zip(*[tuple(scale[j] * x for x in cols[perm[j]]) for j in range(n)]))
        )
        to_moved = {perm[j] + 1: j + 1 for j in range(n)}

        def mapped(p):
            return SupportPoint.of(to_moved[i] for i in p.support)

        u = random_unimodular(rng, k)
        rebased = WeightSystem.from_rows(
            [[sum(map(operator.mul, row, c)) for c in cols] for row in u]
        )
        clear_caches()
        qd, kr, poly, largest, certified = git_facts(ws, S)
        assert git_facts(moved, mapped(S)) == (qd, kr, poly, mapped(largest), certified)
        # a small budget keeps short the few rank 4 and 5 searches that
        # visit many nodes; both sides then run out alike. The search of
        # moved runs again, on its own copy of the direction set
        try:
            limit = destabilizing_limit(ws, S, budget=10**4)
            torusgit._lex_destabilizer.cache_clear()
        except EnumerationBudgetError:
            with pytest.raises(EnumerationBudgetError):
                destabilizing_limit(moved, mapped(S), budget=10**4)
            limit = "budget"
        else:
            moved_limit = destabilizing_limit(moved, mapped(S), budget=10**4)
            assert moved_limit == (limit and (limit[0], mapped(limit[1]))), ws.matrix
        clear_caches()
        assert git_facts(rebased, S) == (qd, kr, poly, largest, certified), (ws.matrix, u)
        seen[poly, certified, limit == "budget"] += 1
    # polystable and not, isolated and not, and a few budget errors
    assert {(True, False, False), (False, True, False), (False, False, False)} <= set(seen)
    assert 0 < sum(count for key, count in seen.items() if key[2]) < 20


# the simplex kernel against the Fourier-Motzkin oracle


def random_vectors(rng, dim, count, bound=3):
    return [tuple(rng.randint(-bound, bound) for _ in range(dim)) for _ in range(count)]


def test_cone_membership_agrees_with_fourier_motzkin():
    # v lies outside cone(gens) iff some lambda is >= 0 on gens and < 0 on v
    rng = random.Random(41)
    seen = set()
    for _ in range(500):
        dim = rng.randint(1, 5)
        gens = random_vectors(rng, dim, rng.randint(0, 6))
        if gens and rng.random() < 0.5:
            mix = [rng.randint(0, 2) for _ in gens]
            v = tuple(sum(m * g[t] for m, g in zip(mix, gens)) for t in range(dim))
        else:
            v = random_vectors(rng, dim, 1)[0]
        rows = [(g, 0) for g in gens] + [(tuple(-x for x in v), 1)]
        inside = in_rational_cone(v, gens)
        assert inside == (fm_witness(rows, dim) is None), (gens, v)
        seen.add((dim, inside))
    assert seen == {(dim, b) for dim in range(1, 6) for b in (True, False)}


def random_direction_set(rng, dim):
    """The primitive directions of 1 to 7 random vectors of length dim."""
    dirs = set()
    for v in random_vectors(rng, dim, rng.randint(1, 7)):
        g = 0
        for x in v:
            g = gcd(g, x)
        if g:
            dirs.add(tuple(x // g for x in v))
    return frozenset(dirs)


def test_destabilizer_witness_is_a_checked_farkas_vector():
    # the witness is the direction sum or minus a Farkas vector of the
    # LP; either way it is an integer destabilizer, checked here
    rng = random.Random(43)
    found = 0
    for _ in range(500):
        dim = rng.randint(1, 5)
        dirs = random_direction_set(rng, dim)
        total = tuple(sum(c) for c in zip(*dirs)) if dirs else (0,) * dim
        lam = _destabilizer_witness(dirs)
        oracle = fm_witness([(d, 0) for d in dirs] + [(total, 1)], dim)
        assert (lam is None) == (oracle is None), sorted(dirs)
        if lam is not None:
            found += 1
            assert all(isinstance(x, int) for x in lam)
            assert all(sum(a * b for a, b in zip(lam, d)) >= 0 for d in dirs)
            assert sum(a * b for a, b in zip(lam, total)) > 0
    assert 100 < found < 500


def test_destabilizer_witness_reads_the_direction_sum_before_an_lp(monkeypatch):
    # a zero sum answers None and a sum >= 0 on every direction answers
    # itself, with no LP; the other sets run one LP, and the verdicts of
    # both routes agree with Fourier-Motzkin
    rng = random.Random(53)
    lps = count_calls(monkeypatch, _simplex)
    routes = Counter()
    for _ in range(600):
        dim = rng.randint(1, 5)
        dirs = random_direction_set(rng, dim)
        total = tuple(sum(c) for c in zip(*dirs)) if dirs else (0,) * dim
        before = len(lps)
        lam = _destabilizer_witness.__wrapped__(dirs)  # past the cache
        ran = len(lps) - before
        oracle = fm_witness([(d, 0) for d in dirs] + [(total, 1)], dim)
        assert (lam is None) == (oracle is None), sorted(dirs)
        if not ran:
            assert lam == (total if any(total) else None), sorted(dirs)
        if lam is not None:
            assert all(sum(a * b for a, b in zip(lam, d)) >= 0 for d in dirs)
            assert sum(a * b for a, b in zip(lam, total)) > 0
        routes[ran] += 1
    assert set(routes) == {0, 1}
    assert routes[0] >= 100 and routes[1] >= 100


@pytest.mark.parametrize(
    "dirs,witness",
    [
        ({(1, 0), (-1, 0)}, None),
        ({(2, -1, 3), (-2, 1, -3)}, None),
        ({(1, 0), (0, 1), (-1, -1)}, None),
        ({(1, 2), (1, -3), (-2, 1)}, None),
        ({(1,)}, (1,)),
        ({(-1,)}, (-1,)),
        ({(2, -1, 3)}, (2, -1, 3)),
    ],
)
def test_zero_sums_and_singletons_run_no_witness_lp(monkeypatch, dirs, witness):
    # {d, -d} and balanced triples sum to 0, and a singleton's sum is its
    # direction, which pairs > 0 with itself
    lps = count_calls(monkeypatch, _simplex)
    assert _destabilizer_witness.__wrapped__(frozenset(dirs)) == witness
    assert lps == []


def test_open_half_space_certificate_is_the_fourier_motzkin_point():
    # the kernel picks the same point of {lambda : <lambda, w_i> >= 1} as
    # Fourier-Motzkin back-substitution, Fraction for Fraction
    rng = random.Random(47)
    certified = 0
    for _ in range(400):
        k = rng.randint(1, 5)
        cols = random_vectors(rng, k, rng.randint(1, 6))
        if rng.random() < 0.7:
            # keep the columns of a random open half-space, or flip them into it
            f = random_vectors(rng, k, 1)[0]
            cols = [c if sum(a * b for a, b in zip(f, c)) > 0 else tuple(-x for x in c) for c in cols]
            cols = [c for c in cols if sum(a * b for a, b in zip(f, c)) > 0] or cols
        ws = WeightSystem.from_rows([list(row) for row in zip(*cols)])
        cert = open_half_space_certificate(ws)
        assert cert == fm_witness([(c, 1) for c in ws.columns], k), ws.matrix
        if cert is not None:
            # the same check in integers: D <lambda, w_i> >= D on every column
            d = lcm(*(x.denominator for x in cert))
            nums = [int(x * d) for x in cert]
            assert all(sum(a * b for a, b in zip(nums, c)) >= d for c in ws.columns)
            certified += 1
    assert certified > 150


def test_simplex_returns_the_optimum_as_integers():
    # max cost . x over sum_j x_j columns[j] = rhs, x >= 0, as the pair
    # (numerator, tableau denominator), not reduced, and the dual optimum
    # y over the same denominator where the optimal basis is structural
    # and nondegenerate
    assert _simplex([(1,), (2,)], [4], [3, 5]) == (True, (12, 1, [3]))
    assert _simplex([(2,), (3,)], [1], [-1, -1]) == (True, (-1, 3, [-1]))
    assert _simplex([(3, 1), (1, 3)], [1, 1], [1, 1]) == (True, (4, 8, [2, 2]))
    # unbounded: x_1 = x_2 grows without end
    assert _simplex([(1,), (-1,)], [0], [1, 0]) == (True, None)
    # the second row starts at level 0, but the optimal basis is positive
    assert _simplex([(1, 1), (1, -1), (2, 0)], [2, 0], [1, 2, 1]) == (
        True, (6, 2, [3, -1]),
    )
    # a redundant row keeps its artificial in the basis at level 0
    assert _simplex([(1, 1), (1, 1)], [1, 1], [1, 2]) == (True, (2, 1, None))
    # degenerate: the optimal basis is structural, but a basic x is 0,
    # and every y with y_0 = 1, -1 <= y_1 <= 1 is optimal
    assert _simplex([(1, 0), (2, 1), (2, -1)], [1, 0], [1, 1, 1]) == (
        True, (1, 1, None),
    )
    # infeasible: the Farkas vector, whatever the cost row
    assert _simplex([(1, 0), (0, 1)], [-1, 1], [1, 1]) == (False, (-1, 0))


def test_simplex_returns_what_the_first_kernel_returned():
    # the same pivots with less arithmetic: the same Farkas vectors and
    # the same (p, d, point) as the kernel of simplex_oracle
    rng = random.Random(59)
    outcomes = Counter()
    for _ in range(20000):
        k = rng.randint(1, 6)
        n = rng.randint(1, 11)
        columns = random_vectors(rng, k, n, bound=6)
        rhs = random_vectors(rng, k, 1, bound=6)[0]
        cost = random_vectors(rng, n, 1, bound=6)[0] if rng.random() < 0.5 else None
        result = _simplex(columns, rhs, cost)
        assert result == oracle_simplex(columns, rhs, cost), (columns, rhs, cost)
        feasible, answer = result
        if not feasible:
            outcomes["Farkas vector"] += 1
        elif cost is None:
            outcomes["feasible"] += 1
        elif answer is None:
            outcomes["unbounded"] += 1
        else:
            outcomes["optimum with a point" if answer[2] else "optimum"] += 1
    # every kind of answer occurs often
    assert len(outcomes) == 5 and min(outcomes.values()) > 50, outcomes


# cones and certificates


def test_in_rational_cone_basics():
    gens = [(1, 0), (0, 1)]
    assert in_rational_cone((1, 1), gens)
    assert in_rational_cone((0, 0), gens)
    assert not in_rational_cone((-1, 0), gens)
    assert in_rational_cone((-2, 3), [(1, 1), (-1, 1)])
    assert not in_rational_cone((1, 2), [])
    # floats, bools, unequal lengths and vectors that are not sequences
    # are refused, not truncated, padded or left to a TypeError
    for vector, generators, message in (
        ([1], [[0.9]], "expected int vectors of length 1: [0.9]"),
        ([0.5], [[1]], "expected int vectors of length 1: [0.5]"),
        ([1], [[True]], "expected int vectors of length 1: [True]"),
        ([1], [[1, 5]], "expected int vectors of length 1: [1, 5]"),
        ([1, 1], [[1]], "expected int vectors of length 2: [1]"),
        ((1,), [5], "expected int vectors of length 1: 5"),
        (5, [(1,)], "expected an int vector, got 5"),
        ((1,), 5, "expected int vectors as generators, got 5"),
        ((1,), None, "expected int vectors as generators, got None"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            in_rational_cone(vector, generators)


def test_polystable_matches_cone_criterion():
    rng = random.Random(23)
    for _ in range(40):
        ws = random_system(rng, 2, rng.randint(1, 4), bound=2)
        for mask in range(1 << ws.n_coords):
            idx = [i + 1 for i in range(ws.n_coords) if mask >> i & 1]
            S = SupportPoint.of(idx)
            gens = [column(ws, i) for i in idx]
            cone_ok = all(
                in_rational_cone(tuple(-x for x in column(ws, i)), gens) for i in idx
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


def test_open_half_space_certificate_takes_zero_below_a_positive_sup():
    # lambda_0 = 1/2; then lambda_1 <= 3 lambda_0 - 1 = 1/2 is unbounded
    # below with sup 1/2 > 0, so lambda_1 = min(sup, 0) = 0
    cert = open_half_space_certificate(WeightSystem.from_rows([[3, 2], [-1, 0]]))
    assert cert == (Fraction(1, 2), Fraction(0))


def test_open_half_space_certificate_last_coordinate_in_closed_form():
    # rank 1: the least of the ratios 1 / w_i if some w_i > 0, else the
    # greatest of them, which is then negative
    assert open_half_space_certificate(WeightSystem.from_rows([[2, 3]])) == (
        Fraction(1, 2),
    )
    assert open_half_space_certificate(WeightSystem.from_rows([[-2, -3]])) == (
        Fraction(-1, 2),
    )
    # a redundant second row: the first LP's artificial stays basic, so
    # lambda_1 takes the rule's 0 on its unconstrained range
    assert open_half_space_certificate(WeightSystem.from_rows([[1, 1], [0, 0]])) == (
        Fraction(1), Fraction(0),
    )


def test_open_half_space_certificate_goes_on_past_a_degenerate_optimum():
    # min lambda_0 = 1 comes from a basis with x_2 = 0, and its dual
    # point (1, 1) is one of many optima: lambda_1 <= 1 is unbounded
    # below, so the rule takes min(sup, 0) = 0
    cert = open_half_space_certificate(WeightSystem.from_rows([[1, 2], [0, -1]]))
    assert cert == (Fraction(1), Fraction(0))


def per_level_certificate(ws):
    """The certificate's per-level rule with up to two LPs at every level,
    the last included, and no shortcut: the oracle for
    open_half_space_certificate."""
    if largest_polystable_support(ws).support:
        return None
    cols = ws.columns
    k = ws.rank
    nums, den = [], 1
    for j in range(k):
        cost = [den - sum(map(operator.mul, col, nums)) for col in cols]
        tails = [col[j:] for col in cols]
        unit = [1] + [0] * (k - j - 1)
        bounded, low = _simplex(tails, unit, cost)
        if bounded:
            num, d = low[:2]
        else:
            bounded, high = _simplex(tails, [-x for x in unit], cost)
            num, d = (-high[0], high[1]) if bounded and high[0] > 0 else (0, 1)
        nums, den = [x * d for x in nums] + [num], den * d
        g = gcd(den, *nums)
        nums, den = [x // g for x in nums], den // g
    return tuple(Fraction(x, den) for x in nums)


def test_open_half_space_certificate_is_the_per_level_point():
    # the unique-optimum, closed-form and sign shortcuts pick the point of
    # the per-level rule, Fraction for Fraction
    rng = random.Random(53)
    certified = 0
    for _ in range(3000):
        k = rng.randint(1, 6)
        cols = random_vectors(rng, k, rng.randint(1, 11), bound=rng.randint(1, 6))
        if rng.random() < 0.8:
            f = random_vectors(rng, k, 1)[0]
            cols = [
                c if sum(map(operator.mul, f, c)) > 0 else tuple(-x for x in c)
                for c in cols
            ]
        ws = WeightSystem.from_rows([list(row) for row in zip(*cols)])
        cert = open_half_space_certificate(ws)
        assert cert == per_level_certificate(ws), ws.matrix
        certified += cert is not None
    assert certified > 1000


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
    # 10 candidates, all invariant: keeping them takes 20 exponents
    zero = WeightSystem.from_rows([[0, 0]])
    assert len(invariant_monomials(zero, 3, budget=20)) == 10
    with pytest.raises(EnumerationBudgetError):
        invariant_monomials(zero, 3, budget=19)
    with pytest.raises(EnumerationBudgetError):
        invariant_monomials(ws, 2, budget=-1)
    with pytest.raises(ValueError):
        invariant_monomials(ws, 0)


@pytest.mark.parametrize("kwargs, shown", [
    (dict(degree_cap=2.5), "degree_cap must be an integer, got 2.5"),
    (dict(degree_cap=True), "degree_cap must be an integer, got True"),
    (dict(degree_cap=2, budget=1.5), "budget must be an integer, got 1.5"),
    (dict(degree_cap=2, budget=True), "budget must be an integer, got True"),
    (dict(degree_cap=2, budget="10"), "budget must be an integer, got '10'"),
], ids=["float cap", "bool cap", "float budget", "bool budget", "str budget"])
def test_invariant_monomials_refuse_a_count_that_is_not_an_int(kwargs, shown):
    ws = WeightSystem.from_rows([[1, -1]])
    with pytest.raises(ValueError, match=re.escape(shown)):
        invariant_monomials(ws, **kwargs)


@pytest.mark.parametrize("budget", [1.5, True, "10", None], ids=repr)
def test_destabilizing_limit_refuses_a_budget_that_is_not_an_int(budget):
    ws = WeightSystem.from_rows([[1, 1]])
    shown = f"budget must be an integer, got {budget!r}"
    with pytest.raises(ValueError, match=re.escape(shown)):
        destabilizing_limit(ws, SupportPoint.of([1]), budget=budget)


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
