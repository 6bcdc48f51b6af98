"""Acceptance suite: one test per stated criterion, each printing one
pass line with its runtime against the stated budget.

Two criteria are carried twice. Their literal statements are
mathematically unattainable, so the literal versions run as strict
expected failures (they genuinely fail, and the suite errors if they
ever start passing), and a corrected formulation that the engine and
the independent oracles support runs green next to each:

  * criterion 6 literally quantifies over the order-9 Y surface, whose
    deformation space has a closed full-support orbit (coarse moduli
    dimension 8), so "every nonempty support destabilizes to the
    origin" is false there while holding at every other order in range;
  * criterion 7 fixes the invariant-monomial degree cap at 12, but some
    admissible weight systems have minimal nonzero invariant degree far
    above 12 (an explicit example is degree 40), and its exhaustive
    sweep over ordered 9-entry grids is far beyond the time budget; the
    corrected run reads the invariant monoid off its exact Hilbert basis,
    with no degree cap and no fallback, and exhausts column multisets
    instead of ordered tuples.
"""

import random
import time
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement
from math import gcd

import pytest
from continued_fractions import continued_fraction_value
from hilbert_basis import hilbert_basis, lattice_rank
from weight_systems import column, full_support, negated, qdef_weight_system

from kmoduli.cqsing import (
    NormalForm,
    classify,
    discrepancies,
    hirzebruch_jung,
    parse_singularity,
)
from kmoduli.moduli import local_model
from kmoduli.quotsurf import CyclicAction, assemble_qdef, build_surface
from kmoduli.torusgit import (
    SupportPoint,
    WeightSystem,
    destabilizing_limit,
    is_polystable,
    kernel_rank,
    largest_polystable_support,
    open_half_space_certificate,
    quotient_dim,
    quotient_dim_via_supports,
)


def _pass(num: str, budget: float, start: float, detail: str) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    print(f"[criterion {num}] PASS in {elapsed:.2f}s (budget {budget}s): {detail}")


def preset_system(family: str, l: int) -> WeightSystem:
    action = CyclicAction.x_family(l) if family == "X" else CyclicAction.y_family(l)
    return qdef_weight_system(assemble_qdef(build_surface(action)))


# --------------------------------------------------------------------------
# criteria 1 and 2: coarse and stack dimensions across both families


def test_criterion_01_x_coarse_dimensions():
    start = time.perf_counter()
    special = {2: 2, 4: 6}
    for l in range(2, 52):
        expected = special.get(l, 2 * l - 3)
        assert local_model("X", l).coarse_dim == expected, l
    _pass("1", 1.0, start, "X-family coarse dimension is 2l-3 (2 and 6 at l = 2, 4)")


def test_criterion_02_y_stack_dimensions():
    start = time.perf_counter()
    for l in range(3, 52, 2):
        m = local_model("Y", l)
        if l in (3, 9):
            assert m.stack_dim == {3: 4, 9: 8}[l], l
        else:
            assert m.stack_dim == l - 3, l
            assert m.coarse_dim == 0, l
            assert m.isolated, l
    _pass("2", 1.0, start, "Y-family stack dimension is l-3 and isolated (4, 8 at l = 3, 9)")


# --------------------------------------------------------------------------
# criterion 3: singular loci


def test_criterion_03_singular_loci():
    start = time.perf_counter()
    for l in range(2, 61):
        locus = build_surface(CyclicAction.x_family(l)).singular_locus
        found = sorted((r.singularity.order, r.singularity.q) for r in locus)
        mixed = parse_singularity(f"1/{l}(1,1)").canonical()
        expected = sorted([(l, l - 1), (l, l - 1), (l, mixed.q), (l, mixed.q)])
        assert found == expected, l
    two = build_surface(CyclicAction.x_family(2)).singular_locus
    assert [r.singularity.display() for r in two] == ["A_1"] * 4
    for l in range(3, 60, 2):
        locus = build_surface(CyclicAction.y_family(l)).singular_locus
        found = sorted((r.singularity.order, r.singularity.q) for r in locus)
        assert found == sorted([(l, l - 1), (l, 2), (l, 2)]), l
    _pass("3", 1.0, start, "X loci are {2 A, 2 mixed}, Y loci are {A, 2 of 1/l(1,2)}; X_2 is four A_1")


# --------------------------------------------------------------------------
# criterion 4: volume, discrepancy, Gorenstein index exact values


def test_criterion_04_volume_discrepancy_index():
    start = time.perf_counter()
    for l in range(2, 61):
        assert build_surface(CyclicAction.x_family(l)).volume == Fraction(8, l)
    for l in range(3, 60, 2):
        assert build_surface(CyclicAction.y_family(l)).volume == Fraction(9, l)
    for l in range(2, 201):
        nf = NormalForm(l, 1)
        vec = discrepancies(nf)
        assert vec.values == (Fraction(2, l) - 1,), l
        assert classify(nf).r == l // gcd(l, 2), l
    _pass("4", 1.0, start, "volume 8/l and 9/l; 1/l(1,1) discrepancy 2/l-1, index l/gcd(l,2)")


# --------------------------------------------------------------------------
# criterion 5: rigidity table


def test_criterion_05_rigidity_table():
    start = time.perf_counter()
    for l in range(3, 201, 2):
        rigid = classify(NormalForm(l, 2)).is_qg_rigid
        assert rigid == (l >= 5 and l != 9), l
    for l in range(4, 201, 2):
        # the germ 1/l(1,2) is not isolated for even l and is rejected outright
        with pytest.raises(ValueError):
            NormalForm(l, 2)
    for l in range(2, 201):
        rigid = classify(NormalForm(l, 1)).is_qg_rigid
        assert rigid == (l >= 3 and l != 4), l
    _pass("5", 1.0, start, "1/l(1,2) rigid iff odd l >= 5, l != 9; 1/l(1,1) rigid iff l >= 3, l != 4")


# --------------------------------------------------------------------------
# criterion 6: polystability semantics


def all_nonempty_subsets(indices: list[int]):
    for size in range(1, len(indices) + 1):
        yield from combinations(indices, size)


def sampled_subsets(indices: list[int], rng: random.Random, count: int = 300):
    for i in indices:
        yield (i,)
    for size in range(2, len(indices) + 1):
        yield tuple(indices[:size])
    for _ in range(count):
        size = rng.randint(1, len(indices))
        yield tuple(rng.sample(indices, size))


def _assert_all_destabilized_to_origin(ws: WeightSystem, supports) -> int:
    checked = 0
    for s in supports:
        p = SupportPoint.of(s)
        assert not is_polystable(ws, p), s
        lam, limit = destabilizing_limit(ws, p)
        assert limit == full_support(0), s
        assert any(sum(a * b for a, b in zip(lam, column(ws, i))) > 0 for i in s)
        checked += 1
    return checked


def _x_a_blocks(l: int) -> list[list[int]]:
    qdef = assemble_qdef(build_surface(CyclicAction.x_family(l)))
    blocks, offset = [], 0
    for _, chars in qdef.blocks:
        if chars:
            blocks.append(list(range(offset + 1, offset + len(chars) + 1)))
        offset += len(chars)
    return blocks


def test_criterion_06_polystability_semantics():
    start = time.perf_counter()
    rng = random.Random(6)
    checked = 0
    for l in (5, 7, 11, 13, 15):  # order 9 is the literal variant's expected failure
        ws = preset_system("Y", l)
        n = ws.n_coords
        # every column is a positive multiple of (1,1), so polystability of a
        # support is decided by that single direction; enumerate exhaustively
        # where cheap and structurally sample above
        assert all(c[0] == c[1] and c[0] > 0 for c in ws.columns)
        idx = list(range(1, n + 1))
        supports = all_nonempty_subsets(idx) if n <= 10 else sampled_subsets(idx, rng)
        checked += _assert_all_destabilized_to_origin(ws, supports)
    for l in range(5, 16):
        ws = preset_system("X", l)
        full = full_support(ws.n_coords)
        assert is_polystable(ws, full), l
        assert destabilizing_limit(ws, full) is None, l
        for block in _x_a_blocks(l):
            assert len(block) == l - 1
            supports = (
                all_nonempty_subsets(block)
                if len(block) <= 10
                else sampled_subsets(block, rng)
            )
            for s in supports:
                assert not is_polystable(ws, SupportPoint.of(s)), (l, s)
                checked += 1
    _pass(
        "6", 1.0, start,
        f"Y supports destabilize to the origin, X full support closed, "
        f"one-block supports not ({checked} supports; literal variant incl. "
        f"order 9 is the expected failure)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the order-9 Y surface is quantified over but its deformation space "
        "has closed orbits away from the origin (already the support of the "
        "two mixed-sign columns plus one chain column is polystable, and the "
        "coarse moduli dimension there is 8), so not every nonempty support "
        "destabilizes to the origin"
    ),
)
def test_criterion_06_literal_every_odd_order_5_to_15():
    for l in (5, 7, 9, 11, 13, 15):
        ws = preset_system("Y", l)
        supports = all_nonempty_subsets(list(range(1, ws.n_coords + 1)))
        _assert_all_destabilized_to_origin(ws, supports)


# --------------------------------------------------------------------------
# criterion 7: invariant-monomial oracle equivalence


COLUMNS_K2 = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]


def k2_system(cols) -> WeightSystem:
    return WeightSystem.from_rows(
        [[c[0] for c in cols], [c[1] for c in cols]]
    )


def k2_multisets():
    """Every multiset of one to three columns from the 9 x 9 grid."""
    for n in (1, 2, 3):
        yield from combinations_with_replacement(COLUMNS_K2, n)


def test_criterion_07_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    # k = 1: exhaustive over entry multisets, N <= 5; the closed form, the
    # support algorithm and the invariant monoid all agree
    for n in range(1, 6):
        for entries in combinations_with_replacement(range(-4, 5), n):
            ws = WeightSystem.from_rows([list(entries)])
            qd = quotient_dim(ws)
            assert qd == quotient_dim_via_supports(ws), entries
            rank = lattice_rank(hilbert_basis([(e,) for e in entries]))
            assert rank == qd, (entries, rank, qd)
            checked += 1
    # k = 2: exhaustive over column multisets for N <= 3, then a seeded
    # sample for N in {4, 5} (the ordered grid is 9^10)
    rng = random.Random(20260817)
    sampled = [
        tuple((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n))
        for n in (4, 5)
        for _ in range(350)
    ]
    for cols in chain(k2_multisets(), sampled):
        basis = hilbert_basis(cols)
        qd = quotient_dim(k2_system(cols))
        assert lattice_rank(basis) == qd, (cols, basis, qd)
        checked += 1
    _pass(
        "7", 60.0, start,
        f"lattice rank of the invariant monoid's Hilbert basis equals "
        f"quotient_dim on {checked} systems (literal fixed-cap variant is "
        f"the expected failure)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a fixed degree cap of 12 misses the minimal invariant monomials of "
        "some admissible systems (columns (4,-3),(-1,4),(-1,-4) have quotient "
        "dimension 1 but their smallest nonzero invariant has degree 40), so "
        "the capped lattice rank undercounts"
    ),
)
def test_criterion_07_literal_fixed_degree_cap():
    # the basis elements of degree <= 12 span the lattice of all invariant
    # monomials of degree <= 12: each of those is a sum of basis elements
    # of no larger degree
    for cols in k2_multisets():
        capped = [m for m in hilbert_basis(cols) if sum(m) <= 12]
        qd = quotient_dim(k2_system(cols))
        assert lattice_rank(capped) == qd, (
            f"degree-12 lattice rank undercounts quotient_dim {qd} for {cols}"
        )


# --------------------------------------------------------------------------
# criterion 8: sign-convention invariance


def test_criterion_08_sign_convention_invariance():
    start = time.perf_counter()
    systems = [preset_system("X", l) for l in range(2, 52)]
    systems += [preset_system("Y", l) for l in range(3, 52, 2)]
    for ws in systems:
        neg = negated(ws)
        assert quotient_dim(neg) == quotient_dim(ws)
        assert kernel_rank(neg) == kernel_rank(ws)
        full = full_support(ws.n_coords)
        assert is_polystable(neg, full) == is_polystable(ws, full)
        assert (largest_polystable_support(neg) == full_support(0)) == (
            largest_polystable_support(ws) == full_support(0)
        )
    _pass("8", 1.0, start, f"negating all {len(systems)} preset weight matrices changes nothing")


# --------------------------------------------------------------------------
# criterion 9: continued fractions and discrepancies


def test_criterion_09_hj_discrepancy_suite():
    start = time.perf_counter()
    pairs = 0
    for n in range(2, 201):
        for q in range(1, n):
            if gcd(n, q) != 1:
                continue
            nf = NormalForm(n, q)
            hj = hirzebruch_jung(nf)
            assert continued_fraction_value(hj.coefficients) == Fraction(n, q), (n, q)
            vec = discrepancies(nf)
            assert all(-1 < a <= 0 for a in vec.values), (n, q)
            is_a_chain = all(b == 2 for b in hj.coefficients)
            assert is_a_chain == (q == n - 1), (n, q)
            assert (not any(vec.values)) == is_a_chain, (n, q)
            pairs += 1
    _pass("9", 5.0, start, f"roundtrip, range (-1,0], and zero-iff-A-chain on {pairs} germs")


# --------------------------------------------------------------------------
# criterion 10: Betti growth


def test_criterion_10_betti_growth():
    start = time.perf_counter()
    values = [local_model("X", l).b2_generic for l in range(5, 52)]
    assert values == [2 + 2 * (l - 1) for l in range(5, 52)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert local_model("X", 2).b2_generic == 6
    _pass("10", 1.0, start, "X-family b2 is 2+2(l-1), strictly increasing; 6 at l = 2")
