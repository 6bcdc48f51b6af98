"""Tests for cyclic quotient singularity arithmetic.

Golden values were independently derived (hand solves of the chain
systems, brute-force modular arithmetic) and are frozen here; the
property sweeps check the structural invariants on exhaustive ranges.
"""

import random
import re
from fractions import Fraction
from math import gcd

import pytest
from continued_fractions import continued_fraction_value, hj_coefficients

from kmoduli.cqsing import (
    CyclicQuotientSingularity,
    HJResolution,
    NonIsolatedError,
    NormalForm,
    UnknownDeformationError,
    _min_log_numerator,
    chain_length,
    classify,
    discrepancies,
    hirzebruch_jung,
    min_discrepancy,
    normalize,
    parse_singularity,
)
from kmoduli.quotsurf import CyclicAction, assemble_qdef, build_surface


def valid_q(n):
    return [q for q in range(1, n) if gcd(n, q) == 1]


def inverse_partner(nf):
    """The equivalent form 1/n(1, q^(-1) mod n) seen in the swapped chart."""
    if nf.is_smooth:
        return nf
    return NormalForm(nf.order, pow(nf.q, -1, nf.order))


def is_equivalent_to(a, b):
    return a.canonical() == b.canonical()


def chain_discrepancy_oracle(bs):
    """Independent closed form for the chain discrepancies.

    With convergent numerators P_0 = 1, P_i = b_i P_{i-1} - P_{i-2}
    (P_{-1} = 0) and tail convergents R_{k+1} = 1, R_i = b_i R_{i+1} -
    R_{i+2} (R_{k+2} = 0), the discrepancy of curve i is
    -1 + (P_{i-1} + R_{i+1}) / n where n = P_k.
    """
    k = len(bs)
    P = [0] * (k + 1)
    P[0] = 1
    for i in range(1, k + 1):
        P[i] = bs[i - 1] * P[i - 1] - (P[i - 2] if i >= 2 else 0)
    R = [0] * (k + 3)
    R[k + 1] = 1
    for i in range(k, 0, -1):
        R[i] = bs[i - 1] * R[i + 1] - R[i + 2]
    n = P[k]
    return tuple(-1 + Fraction(P[i - 1] + R[i + 1], n) for i in range(1, k + 1))


def log_discrepancy_numerators_oracle(n, q):
    """alpha_i + beta_i, n times the log discrepancy of E_i, one curve at
    a time: the toric recurrence x_{i+1} = b_i x_i - x_{i-1} from alpha_0
    = n, alpha_1 = q, beta_0 = 0, beta_1 = 1."""
    alpha_prev, alpha, beta_prev, beta = n, q, 0, 1
    values = []
    while alpha > 0:
        b = -(-alpha_prev // alpha)
        values.append(alpha + beta)
        alpha_prev, alpha = alpha, b * alpha - alpha_prev
        beta_prev, beta = beta, b * beta - beta_prev
    return values


def elimination_discrepancy_oracle(bs):
    """The chain system solved by tridiagonal elimination in Fractions.

    Adjunction on each curve E_j gives
        a_{j-1} - b_j a_j + a_{j+1} = b_j - 2,   a_0 = a_{k+1} = 0.
    """
    k = len(bs)
    diag = [Fraction(-b) for b in bs]
    rhs = [Fraction(b - 2) for b in bs]
    for j in range(1, k):
        f = Fraction(1) / diag[j - 1]
        diag[j] -= f
        rhs[j] -= f * rhs[j - 1]
    values = [Fraction(0)] * k
    values[k - 1] = rhs[k - 1] / diag[k - 1]
    for j in range(k - 2, -1, -1):
        values[j] = (rhs[j] - values[j + 1]) / diag[j]
    return tuple(values)


# normal forms


def test_normalize_a_chain_weights():
    for l in range(2, 30):
        nf = normalize(CyclicQuotientSingularity(l, 1, -1))
        assert nf == NormalForm(l, l - 1)
        assert nf.display() == f"A_{l - 1}"


def test_normalize_trivial_group():
    assert normalize(CyclicQuotientSingularity(1, 0, 0)) == NormalForm(1, None)


def test_normalize_modular_inverse():
    # 2^(-1) = 3 mod 5 and 3*3 = 4 mod 5
    assert normalize(CyclicQuotientSingularity(5, 2, 3)) == NormalForm(5, 4)


def test_normalize_idempotent():
    for n in range(2, 40):
        for q in valid_q(n):
            nf = normalize(CyclicQuotientSingularity(n, 1, q))
            assert nf == NormalForm(n, q)


def test_non_isolated_rejected():
    with pytest.raises(NonIsolatedError):
        CyclicQuotientSingularity(4, 2, 1)
    with pytest.raises(NonIsolatedError):
        CyclicQuotientSingularity(6, 1, 3)


def test_parse_singularity():
    s = parse_singularity("1/5(2,3)")
    assert (s.order, s.weight_a, s.weight_b) == (5, 2, 3)
    assert parse_singularity("1/7(1,-1)").weight_b == 6
    assert parse_singularity(" 1/9( 1 , 2 ) ").order == 9
    for bad in ("5(1,2)", "1/5(1)", "1/5(1,2,3)", "x", "1/(1,2)"):
        with pytest.raises(ValueError):
            parse_singularity(bad)
    # what is not a str is refused as malformed text is, not left to re
    for bad in (5, None, 2.0, b"1/5(1,2)", ["1/5(1,2)"]):
        with pytest.raises(ValueError, match="cannot parse singularity"):
            parse_singularity(bad)


def test_canonical_and_equivalence():
    assert NormalForm(5, 3).canonical() == NormalForm(5, 2)
    assert NormalForm(5, 2).canonical() == NormalForm(5, 2)
    assert is_equivalent_to(NormalForm(5, 3), NormalForm(5, 2))
    assert not is_equivalent_to(NormalForm(5, 4), NormalForm(5, 2))
    for n in range(2, 60):
        for q in valid_q(n):
            nf = NormalForm(n, q)
            assert is_equivalent_to(nf, inverse_partner(nf))
            assert nf.canonical() == inverse_partner(nf).canonical()


# Hirzebruch-Jung chains


def test_hj_single_curve():
    for l in range(2, 20):
        hj = hirzebruch_jung(NormalForm(l, 1))
        assert hj.coefficients == (l,)
        assert hj.self_intersections == (-l,)


def test_hj_a_chain():
    for n in range(2, 20):
        assert hirzebruch_jung(NormalForm(n, n - 1)).coefficients == (2,) * (n - 1)


def test_hj_9_2():
    # 5 - 1/2 = 9/2
    assert hirzebruch_jung(NormalForm(9, 2)).coefficients == (5, 2)


def test_hj_rejects_smooth():
    with pytest.raises(ValueError):
        hirzebruch_jung(NormalForm(1, None))


@pytest.mark.parametrize(
    "coefficients,message",
    [
        ((2.0, 3), "must be ints >= 2: (2.0, 3)"),
        ("23", "must be ints >= 2: ('2', '3')"),
        ((2, "3"), "must be ints >= 2: (2, '3')"),
        ((2, True), "must be ints >= 2: (2, True)"),
        (5, "not a coefficient sequence: 5"),
    ],
    ids=["float entry", "str", "str entry", "bool entry", "int"],
)
def test_hj_resolution_checks_its_coefficients(coefficients, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        HJResolution(coefficients)


def test_hj_resolution_keeps_a_tuple():
    # a list given is copied: the record is immutable and hashable
    given = [2, 3]
    hj = HJResolution(given)
    given.append(4)
    assert hj.coefficients == (2, 3) and hj == HJResolution((2, 3))
    assert hash(hj) == hash(HJResolution((2, 3)))


def test_hj_roundtrip_exhaustive():
    for n in range(2, 121):
        for q in valid_q(n):
            hj = hirzebruch_jung(NormalForm(n, q))
            assert continued_fraction_value(hj.coefficients) == Fraction(n, q)


def test_hj_chain_matches_the_per_curve_walk():
    for n in range(2, 300):
        for q in valid_q(n):
            assert hirzebruch_jung(NormalForm(n, q)).coefficients == hj_coefficients(n, q)
    rng = random.Random(9002)
    for _ in range(2000):
        n = rng.randint(2, 10**6)
        q = rng.randrange(1, n)
        while gcd(n, q) != 1:
            q = rng.randrange(1, n)
        assert hirzebruch_jung(NormalForm(n, q)).coefficients == hj_coefficients(n, q)


def test_all_twos_iff_a_chain():
    for n in range(2, 121):
        for q in valid_q(n):
            hj = hirzebruch_jung(NormalForm(n, q))
            assert (set(hj.coefficients) == {2}) == (q == n - 1)


# discrepancies


def test_discrepancy_single_curve():
    for l in range(2, 60):
        d = discrepancies(NormalForm(l, 1))
        assert d.values == (Fraction(2, l) - 1,)
        assert d.log_values == (Fraction(2, l),)


@pytest.mark.parametrize("forms", [
    [NormalForm(n, q) for n in range(2, 200) for q in valid_q(n)],
    [NormalForm(3000, 2999)],
], ids=["n<200", "A_2999"])
def test_log_values_shift_each_discrepancy_by_one(forms):
    for nf in forms:
        d = discrepancies(nf)
        logs = d.log_values
        assert logs == tuple(1 + a for a in d.values)
        assert all(type(x) is Fraction for x in logs)


def test_discrepancy_du_val_zero():
    for n in range(2, 30):
        d = discrepancies(NormalForm(n, n - 1))
        assert all(a == 0 for a in d.values)


def test_discrepancy_frozen_9_2():
    # hand solve of {-5 a1 + a2 = 3, a1 - 2 a2 = 0}
    d = discrepancies(NormalForm(9, 2))
    assert d.values == (Fraction(-2, 3), Fraction(-1, 3))


def test_discrepancy_frozen_5_2():
    # hand solve of {-3 a1 + a2 = 1, a1 - 2 a2 = 0}
    d = discrepancies(NormalForm(5, 2))
    assert d.values == (Fraction(-2, 5), Fraction(-1, 5))


def test_discrepancies_of_the_inverse_partner_are_reversed():
    # swapping the chart coordinates reverses the resolution chain
    for n in range(2, 200):
        for q in valid_q(n):
            nf = NormalForm(n, q)
            values = discrepancies(nf).values
            assert discrepancies(inverse_partner(nf)).values == values[::-1], (n, q)


def test_discrepancies_reject_smooth():
    with pytest.raises(ValueError, match="smooth point has no exceptional curves"):
        discrepancies(NormalForm(1, None))


def test_discrepancy_chain_system_and_range():
    for n in range(2, 80):
        for q in valid_q(n):
            nf = NormalForm(n, q)
            hj = hirzebruch_jung(nf)
            a = discrepancies(nf).values
            padded = (Fraction(0),) + a + (Fraction(0),)
            for j, b in enumerate(hj.coefficients, start=1):
                assert padded[j - 1] - b * padded[j] + padded[j + 1] == b - 2
            assert all(-1 < v <= 0 for v in a)
            assert (all(v == 0 for v in a)) == (q == n - 1)


def test_discrepancy_matches_convergent_oracle():
    for n in range(2, 80):
        for q in valid_q(n):
            nf = NormalForm(n, q)
            hj = hirzebruch_jung(nf)
            assert discrepancies(nf).values == chain_discrepancy_oracle(hj.coefficients)


def test_discrepancy_matches_elimination_oracle():
    for n in range(2, 200):
        for q in valid_q(n):
            nf = NormalForm(n, q)
            hj = hirzebruch_jung(nf)
            values = discrepancies(nf).values
            assert values == elimination_discrepancy_oracle(hj.coefficients), (n, q)
            assert min_discrepancy(nf) == min(values), (n, q)


def test_discrepancy_long_a_chain_matches_elimination_oracle():
    nf = NormalForm(3000, 2999)
    hj = hirzebruch_jung(nf)
    values = discrepancies(nf).values
    assert values == elimination_discrepancy_oracle(hj.coefficients)
    assert values == (Fraction(0),) * 2999
    assert min_discrepancy(nf) == min(values) == 0


def assert_runs_match_oracle(n, q):
    nf = NormalForm(n, q)
    hj = hirzebruch_jung(nf)
    numerators = log_discrepancy_numerators_oracle(n, q)
    assert discrepancies(nf).values == tuple(Fraction(s - n, n) for s in numerators)
    assert min_discrepancy(nf) == Fraction(min(numerators) - n, n), (n, q)
    assert _min_log_numerator(n, q) == min(numerators), (n, q)
    assert chain_length(nf) == len(hj) == len(numerators), (n, q)


def test_run_form_matches_per_curve_oracle():
    for n in range(2, 200):
        for q in valid_q(n):
            assert_runs_match_oracle(n, q)
    rng = random.Random(20211)
    for _ in range(2000):
        n = rng.randint(2, 10**6)
        q = rng.randrange(1, n)
        while gcd(n, q) != 1:
            q = rng.randrange(1, n)
        assert_runs_match_oracle(n, q)


def test_run_form_at_huge_orders():
    a = NormalForm(10**18, 10**18 - 1)
    assert min_discrepancy(a) == 0
    assert chain_length(a) == 10**18 - 1
    # n/q = k + 1/k: the chain is k + 1 followed by k - 1 curves of
    # self-intersection -2, and the first curve has the least log
    # discrepancy, (q + 1)/n
    assert hirzebruch_jung(NormalForm(1000**2 + 1, 1000)).coefficients == (
        (1001,) + (2,) * 999
    )
    assert_runs_match_oracle(1000**2 + 1, 1000)
    for k in (1000, 10**9):
        nf = NormalForm(k * k + 1, k)
        assert chain_length(nf) == k
        assert min_discrepancy(nf) == Fraction(k + 1, k * k + 1) - 1


def test_min_discrepancy_rejects_smooth():
    with pytest.raises(ValueError):
        min_discrepancy(NormalForm(1, None))
    with pytest.raises(ValueError):
        chain_length(NormalForm(1, None))


# Gorenstein index


def test_gorenstein_index_du_val():
    for n in range(2, 30):
        assert classify(NormalForm(n, n - 1)).r == 1


def test_gorenstein_index_examples():
    assert classify(NormalForm(9, 2)).r == 3
    assert classify(NormalForm(1, None)).r == 1
    for l in range(3, 40, 2):
        assert classify(NormalForm(l, 1)).r == l
    for l in range(2, 40, 2):
        assert classify(NormalForm(l, 1)).r == l // 2


def test_gorenstein_index_brute_force():
    for n in range(2, 60):
        for q in valid_q(n):
            r = classify(NormalForm(n, q)).r
            smallest = next(s for s in range(1, n + 1) if s * (1 + q) % n == 0)
            assert r == smallest


def test_gorenstein_index_invariant_under_equivalence():
    for n in range(2, 60):
        for q in valid_q(n):
            nf = NormalForm(n, q)
            assert classify(nf).r == classify(inverse_partner(nf)).r


def test_classification_r_is_the_gorenstein_index():
    # the local model takes the index of a surface from classification.r,
    # the smallest r with r * K Cartier: n / gcd(n, q + 1), and 1 when smooth
    expected = {NormalForm(1, None): 1}
    for n in range(2, 300):
        for q in valid_q(n):
            expected[NormalForm(n, q)] = n // gcd(n, q + 1)
    assert [nf for nf, r in expected.items() if classify(nf).r != r] == []


# classification


def test_classify_rigid_family():
    for l in (5, 7, 11, 13, 15, 21, 25):
        c = classify(NormalForm(l, 2))
        assert c.is_qg_rigid
        assert not c.is_T
        assert c.qdef_dim == 0


def test_classify_15_2_arithmetic():
    c = classify(NormalForm(15, 2))
    assert (c.w, c.r, c.m, c.w0) == (3, 5, 0, 3)
    assert c.is_qg_rigid


def test_classify_9_2_primitive_T():
    c = classify(NormalForm(9, 2))
    assert (c.w, c.r, c.m, c.w0) == (3, 3, 1, 0)
    assert c.is_T and c.is_primitive_T and not c.is_du_val
    assert c.qdef_dim == 1


def test_classify_4_1_T():
    c = classify(NormalForm(4, 1))
    assert (c.w, c.r, c.m, c.w0) == (2, 2, 1, 0)
    assert c.is_T and c.is_primitive_T
    assert c.qdef_dim == 1


def test_classify_du_val():
    for l in range(2, 30):
        c = classify(NormalForm(l, l - 1))
        assert c.is_du_val and c.is_T and not c.is_qg_rigid
        assert c.qdef_dim == l - 1


def test_classify_smooth():
    c = classify(NormalForm(1, None))
    assert c.qdef_dim == 0
    assert not c.is_qg_rigid


def test_classify_unknown_case():
    # w = gcd(12, 8) = 4: w^2 = 16 >= 12 but 12 does not divide 16
    c = classify(NormalForm(12, 7))
    assert not c.is_qg_rigid and not c.is_T
    assert c.qdef_dim is None


def test_classify_algebraic_criteria_sweep():
    for n in range(2, 201):
        for q in valid_q(n):
            c = classify(NormalForm(n, q))
            assert c.w == gcd(n, q + 1)
            assert c.is_qg_rigid == (c.w * c.w < n)
            assert c.is_T == (c.w * c.w % n == 0)
            assert c.is_du_val == (q == n - 1) == (c.r == 1)
            if c.is_du_val:
                assert c.is_T
            assert not (c.is_qg_rigid and c.is_T)


def test_smoothing_b2_is_one_rule_for_du_val_and_t_points():
    # m - 1 for a T point: a Du Val A_{n-1} point has m = n and adds its
    # n - 1 vanishing spheres, another T point m - 1, any other point 0
    forms = [NormalForm(1, None)]
    forms += [NormalForm(n, q) for n in range(2, 300) for q in valid_q(n)]
    assert len(forms) == 27_318
    for nf in forms:
        c = classify(nf)
        if c.is_du_val:
            assert c.m == nf.order
            expected = nf.order - 1
        else:
            expected = c.m - 1 if c.is_T else 0
        assert c.smoothing_b2 == expected, nf
    assert classify(NormalForm(1, None)).smoothing_b2 == 0
    assert classify(NormalForm(18, 5)).smoothing_b2 == 1  # 1/18(1,5): m = 2
    assert classify(NormalForm(5, 2)).smoothing_b2 == 0  # rigid


def test_classify_equivalence_invariant():
    for n in range(2, 201):
        for q in valid_q(n):
            a = classify(NormalForm(n, q))
            b = classify(inverse_partner(NormalForm(n, q)))
            assert (a.w, a.r, a.m, a.w0) == (b.w, b.r, b.m, b.w0)
            assert a.qdef_dim == b.qdef_dim


# versal weights: the characters of a point's block of the deformation space


def block_at(action: CyclicAction, label: str, form: NormalForm, chart) -> tuple:
    """The characters assemble_qdef gives the point of the action's
    surface with this label, after checking the point's form and chart
    characters."""
    for record, chars in assemble_qdef(build_surface(action)).blocks:
        if record.point_label == label:
            assert record.singularity == form.canonical()
            assert record.local_torus_weights == chart
            return chars
    raise AssertionError(f"{action} has no point {label}")


def test_versal_weights_a_chain():
    for l in (2, 3, 5, 8):
        x = CyclicAction.x_family(l)
        ws = block_at(x, "([0:1],[0:1])", NormalForm(l, l - 1), ((1, 0), (0, 1)))
        assert ws == tuple((c, c) for c in range(l, 1, -1))


def test_versal_weights_a_chain_opposite_point():
    x5 = CyclicAction.x_family(5)
    ws = block_at(x5, "([1:0],[1:0])", NormalForm(5, 4), ((-1, 0), (0, -1)))
    assert ws == tuple((-c, -c) for c in range(5, 1, -1))


def test_versal_weights_4_1():
    diagonal = CyclicAction("P1xP1", 4, (1, 1))
    x4 = CyclicAction.x_family(4)
    assert block_at(diagonal, "([0:1],[0:1])", NormalForm(4, 1), ((1, 0), (0, 1))) == (
        (2, 2),
    )
    assert block_at(x4, "([0:1],[1:0])", NormalForm(4, 1), ((1, 0), (0, -1))) == (
        (2, -2),
    )


def test_versal_weights_9_2():
    # m = 1, r = 3: single character 3 * (alpha + beta)
    y9 = CyclicAction.y_family(9)
    assert block_at(y9, "[1:0:0]", NormalForm(9, 2), ((-1, 1), (-1, 0))) == ((-6, 3),)


def test_versal_weights_length_and_multiples():
    # on every surface of an action (1, q) on P1 x P1 of order below 40
    # that assembles, each block has qdef_dim characters, each a positive
    # multiple of alpha + beta at its point; the blocks meet every
    # deforming form of those orders but 1/12(1,5), which sits only
    # beside the unknown 1/12(1,7) (its -q partner) on P1 x P1, and on no
    # isolated point of P2
    deforming, met = set(), set()
    for n in range(2, 40):
        for q in valid_q(n):
            if classify(NormalForm(n, q)).qdef_dim:
                deforming.add(NormalForm(n, q).canonical())
            try:
                qdef = assemble_qdef(build_surface(CyclicAction("P1xP1", n, (1, q))))
            except UnknownDeformationError:
                continue
            for record, ws in qdef.blocks:
                assert len(ws) == record.classification.qdef_dim
                (a0, a1), (b0, b1) = record.local_torus_weights
                x, y = a0 + b0, a1 + b1
                for c, d in ws:
                    k = c // x
                    assert (c, d) == (k * x, k * y) and k > 0, record
                if ws:
                    met.add(record.singularity)
    assert deforming - met == {NormalForm(12, 5)}


def test_versal_weights_of_rigid_and_unknown_points():
    # a rigid point gets an empty block; an unknown one is refused by name
    rigid = CyclicAction("P1xP1", 5, (1, 2))
    assert block_at(rigid, "([0:1],[0:1])", NormalForm(5, 2), ((1, 0), (0, 1))) == ()
    unknown = build_surface(CyclicAction("P1xP1", 12, (1, 5)))
    with pytest.raises(UnknownDeformationError, match=re.escape("1/12(1,7)")):
        assemble_qdef(unknown)
