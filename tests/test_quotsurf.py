"""Tests for quotient surface construction and deformation assembly."""

import copy
import json
import pickle
import re
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from fixed_points import oracle_blocks, oracle_records
from three_pass import betti_by_kind, qdef_directions
from weight_systems import qdef_weight_system

from kmoduli.cqsing import (
    CyclicQuotientSingularity,
    NonIsolatedError,
    UnknownDeformationError,
    classify,
    normalize,
)
from kmoduli.quotsurf import (
    CyclicAction,
    FixedPointRecord,
    SurfaceModel,
    assemble_qdef,
    build_surface,
)
from kmoduli.moduli import local_model
from kmoduli.torusgit import quotient_dim

# namedtuple._replace refuses a name that is not a field with ValueError
# before Python 3.13, and with TypeError from 3.13 on
UNEXPECTED_FIELD = ValueError if sys.version_info < (3, 13) else TypeError


def brute_force_isolated(action: CyclicAction) -> bool:
    """Check by element-wise enumeration that every nonidentity group
    element fixes only the coordinate points."""
    l = action.order
    if action.ambient == "P1xP1":
        return all(
            (j * w) % l != 0
            for j in range(1, l)
            for w in action.weights
        )
    return all(
        len({(j * w) % l for w in action.weights}) == 3 for j in range(1, l)
    )


def reference_p1xp1_records(action: CyclicAction) -> list[FixedPointRecord]:
    """The fixed points of P1 x P1 written out by hand: the chart at [0:1]
    on factor f has character e_f and cyclic weight w_f, the one at
    [1:0] the negatives."""
    l = action.order
    w1, w2 = action.weights
    factor_labels = ("[0:1]", "[1:0]")
    records = []
    for p1 in (0, 1):
        for p2 in (0, 1):
            a = w1 if p1 == 0 else -w1
            b = w2 if p2 == 0 else -w2
            alpha = (1 if p1 == 0 else -1, 0)
            beta = (0, 1 if p2 == 0 else -1)
            nf = normalize(CyclicQuotientSingularity(l, a, b)).canonical()
            records.append(
                FixedPointRecord(
                    point_label=f"({factor_labels[p1]},{factor_labels[p2]})",
                    local_cyclic_weights=(a % l, b % l),
                    local_torus_weights=(alpha, beta),
                    classification=classify(nf),
                )
            )
    return records


def reference_p2_records(action: CyclicAction) -> list[FixedPointRecord]:
    """The fixed points of P2 written out by hand: the chart coordinate
    z_j/z_i at e_i has cyclic weight w_j - w_i and the difference of the
    characters (1,0), (0,1), (0,0) of z_j and z_i."""
    characters = ((1, 0), (0, 1), (0, 0))
    l = action.order
    records = []
    for i in range(3):
        js = [j for j in range(3) if j != i]
        a, b = ((action.weights[j] - action.weights[i]) % l for j in js)
        chars = tuple(
            tuple(x - y for x, y in zip(characters[j], characters[i])) for j in js
        )
        label = "[" + ":".join("1" if j == i else "0" for j in range(3)) + "]"
        nf = normalize(CyclicQuotientSingularity(l, a, b)).canonical()
        records.append(
            FixedPointRecord(
                point_label=label,
                local_cyclic_weights=(a, b),
                local_torus_weights=chars,
                classification=classify(nf),
            )
        )
    return records


def qdef_columns(q):
    """The characters of the deformation parameters, one per column."""
    return tuple(zip(*q.weight_matrix)) if q.total_dim else ()


def displays(surface) -> list[str]:
    return [r.singularity.display() for r in surface.singular_locus]


# ---------------------------------------------------------------- actions


def test_x_family_preset():
    a = CyclicAction.x_family(5)
    assert a.ambient == "P1xP1"
    assert a.order == 5
    assert a.weights == (1, 4)
    assert a.family == "X"


def test_y_family_preset():
    a = CyclicAction.y_family(7)
    assert a.ambient == "P2"
    assert a.weights == (1, 6, 0)
    assert a.family == "Y"


def test_presets_are_the_family_actions():
    # the family read off the fields agrees with equality to x_family(l)
    # and y_family(l) on every action with small weights, shifted by l too
    small = range(-2, 3)
    for l in range(2, 61):
        x = CyclicAction.x_family(l)
        y = CyclicAction.y_family(l) if l % 2 else None
        actions = [
            CyclicAction("P1xP1", l, (a + s, b))
            for a in small for b in small for s in (0, l)
        ] + [
            CyclicAction("P2", l, (a, b + s, c))
            for a in small for b in small for c in small for s in (0, l)
        ]
        for action in actions:
            expected = "X" if action == x else "Y" if action == y else None
            assert action.family == expected, action
        assert x.family == "X" and (y is None or y.family == "Y")
    for action in (
        CyclicAction("P1xP1", 5, (1, 2)),
        CyclicAction("P2", 7, (1, 2, 0)),
        CyclicAction("P2", 4, (1, 3, 0)),  # the Y weights at an even order
    ):
        assert action.family is None


def test_weights_reduced_mod_order():
    a = CyclicAction("P1xP1", 5, (6, -1))
    assert a.weights == (1, 4)


def test_action_validation():
    with pytest.raises(ValueError):
        CyclicAction("P3", 5, (1, 2, 3))
    with pytest.raises(ValueError):
        CyclicAction("P1xP1", 1, (0, 0))
    with pytest.raises(ValueError):
        CyclicAction("P1xP1", 5, (1, 2, 3))
    with pytest.raises(ValueError):
        CyclicAction("P2", 5, (1, 2))
    with pytest.raises(ValueError):
        CyclicAction.x_family(1)
    with pytest.raises(ValueError):
        CyclicAction.y_family(1)


@pytest.mark.parametrize("l", ["5", None, 2.0, 4.0, True, 1])
def test_family_orders_are_checked_by_the_constructor(l):
    # both families build through CyclicAction first, so its check of the
    # order runs first and an even Y order is only ever an int
    message = f"group order must be an int of at least 2, got {l!r}"
    for family in (CyclicAction.x_family, CyclicAction.y_family):
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            family(l)
        assert not isinstance(exc.value, NonIsolatedError), (family, l)


def test_y_family_names_every_even_order():
    for l in (2, 4, 10**9):
        with pytest.raises(NonIsolatedError, match=f"even order {l} "):
            CyclicAction.y_family(l)


def test_y_family_even_order_rejected():
    with pytest.raises(NonIsolatedError, match="z2 = 0"):
        CyclicAction.y_family(4)
    with pytest.raises(NonIsolatedError, match="z2 = 0"):
        build_surface(CyclicAction("P2", 4, (1, 3, 0)))


def test_non_isolated_p1xp1_rejected():
    with pytest.raises(NonIsolatedError, match="factor 2"):
        build_surface(CyclicAction("P1xP1", 4, (1, 2)))


@pytest.mark.parametrize(
    "ambient,l,weights,point,weight,g,curve",
    [
        ("P1xP1", 4, (1, 2), "([0:1],[0:1])", 2, 2, "a copy of factor 2"),
        ("P1xP1", 6, (3, 1), "([0:1],[0:1])", 3, 3, "a copy of factor 1"),
        ("P1xP1", 5, (1, 0), "([0:1],[0:1])", 0, 5, "a copy of factor 2"),
        ("P2", 4, (1, 3, 0), "[1:0:0]", 2, 2, "the line z2 = 0"),
        ("P2", 4, (1, 0, 3), "[1:0:0]", 2, 2, "the line z1 = 0"),
        ("P2", 4, (0, 1, 3), "[0:1:0]", 2, 2, "the line z0 = 0"),
    ],
)
def test_non_isolated_error_names_point_weight_and_curve(
    ambient, l, weights, point, weight, g, curve
):
    message = (
        f"point {point}: chart weight {weight} has gcd {g} with l = {l}, so the "
        f"order-{g} subgroup fixes {curve} pointwise"
    )
    with pytest.raises(NonIsolatedError, match=re.escape(message)):
        build_surface(CyclicAction(ambient, l, weights))


def test_isolation_check_matches_brute_force():
    for l in range(2, 13):
        for w1 in range(l):
            for w2 in range(l):
                action = CyclicAction("P1xP1", l, (w1, w2))
                expected = brute_force_isolated(action)
                if expected:
                    build_surface(action)
                else:
                    with pytest.raises(NonIsolatedError):
                        build_surface(action)
    for l in range(2, 10):
        for w1 in range(l):
            for w2 in range(l):
                action = CyclicAction("P2", l, (w1, w2, 0))
                expected = brute_force_isolated(action)
                if expected:
                    build_surface(action)
                else:
                    with pytest.raises(NonIsolatedError):
                        build_surface(action)


# ---------------------------------------------------------- singular loci


def test_records_match_the_hand_written_fixed_points():
    """The table-driven build against the per-ambient reference, record
    for record, on every isolated action of order at most 12."""
    checked = 0
    for l in range(2, 13):
        for w1 in range(l):
            for w2 in range(l):
                for action, reference in (
                    (CyclicAction("P1xP1", l, (w1, w2)), reference_p1xp1_records),
                    (CyclicAction("P2", l, (w1, w2, 0)), reference_p2_records),
                ):
                    if brute_force_isolated(action):
                        records = build_surface(action).singular_locus
                        assert list(records) == reference(action), action
                        checked += 1
    assert checked == 401


def test_records_match_the_per_point_oracle():
    """Every diagonal action of order at most 30 on both ambients: an
    isolated one gives the oracle's records, a non-isolated one raises
    the oracle's NonIsolatedError, message and all."""
    isolated = rejected = 0
    for l in range(2, 31):
        for w1 in range(l):
            for w2 in range(l):
                for action in (
                    CyclicAction("P1xP1", l, (w1, w2)),
                    CyclicAction("P2", l, (w1, w2, 0)),
                ):
                    try:
                        expected = oracle_records(action)
                    except NonIsolatedError as error:
                        with pytest.raises(NonIsolatedError) as raised:
                            build_surface(action)
                        assert str(raised.value) == str(error), action
                        rejected += 1
                    else:
                        assert list(build_surface(action).singular_locus) == expected
                        isolated += 1
    assert (isolated, rejected) == (6483, 12425)


def test_a_surface_is_its_action():
    """The one field is the action, and the locus the constructor derives
    equals the oracle's records, field for field, on the orders of the
    benchmark sweep."""
    actions = [CyclicAction.x_family(l) for l in range(2, 401)]
    actions += [CyclicAction.y_family(l) for l in range(3, 402, 2)]
    for action in actions:
        surface = SurfaceModel(action)
        assert tuple(surface) == (action,)
        assert surface == build_surface(action)
        assert surface.singular_locus == tuple(oracle_records(action)), action


def test_a_surface_is_rebuilt_only_through_its_constructor():
    x5, x7 = CyclicAction.x_family(5), CyclicAction.x_family(7)
    s = build_surface(x5)
    locus = s.singular_locus
    moved = s._replace(action=x7)
    assert moved == build_surface(x7)
    assert moved.singular_locus == build_surface(x7).singular_locus
    with pytest.raises(NonIsolatedError, match="factor 2"):
        s._replace(action=CyclicAction("P1xP1", 4, (1, 2)))
    with pytest.raises(UNEXPECTED_FIELD, match="unexpected field"):
        s._replace(singular_locus=moved.singular_locus)
    with pytest.raises(AttributeError):
        setattr(s, "singular_locus", ())
    with pytest.raises(AttributeError):
        del s.singular_locus
    with pytest.raises(AttributeError):
        s.action = x7
    assert s.singular_locus is locus
    for again in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert again == s
        assert again.singular_locus == locus
        assert again.to_json_dict() == s.to_json_dict()


def test_x7_singular_locus():
    s = build_surface(CyclicAction.x_family(7))
    labels = [r.point_label for r in s.singular_locus]
    assert labels == [
        "([0:1],[0:1])",
        "([0:1],[1:0])",
        "([1:0],[0:1])",
        "([1:0],[1:0])",
    ]
    assert displays(s) == ["A_6", "1/7(1,1)", "1/7(1,1)", "A_6"]
    assert all(r.singularity.order == 7 for r in s.singular_locus)


def test_x2_singular_locus():
    s = build_surface(CyclicAction.x_family(2))
    assert displays(s) == ["A_1", "A_1", "A_1", "A_1"]


def test_y5_singular_locus():
    s = build_surface(CyclicAction.y_family(5))
    labels = [r.point_label for r in s.singular_locus]
    assert labels == ["[1:0:0]", "[0:1:0]", "[0:0:1]"]
    assert displays(s) == ["1/5(1,2)", "1/5(1,2)", "A_4"]


def test_y3_singular_locus():
    s = build_surface(CyclicAction.y_family(3))
    assert displays(s) == ["A_2", "A_2", "A_2"]


def test_local_torus_weights_are_chart_characters():
    s = build_surface(CyclicAction.x_family(3))
    assert [r.local_torus_weights for r in s.singular_locus] == [
        ((1, 0), (0, 1)),
        ((1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
    ]
    t = build_surface(CyclicAction.y_family(3))
    assert [r.local_torus_weights for r in t.singular_locus] == [
        ((-1, 1), (-1, 0)),
        ((1, -1), (0, -1)),
        ((1, 0), (0, 1)),
    ]


def test_local_cyclic_weights_generate_the_stabilizer():
    for action in [CyclicAction.x_family(12), CyclicAction.y_family(15)]:
        s = build_surface(action)
        l = action.order
        for r in s.singular_locus:
            a, b = r.local_cyclic_weights
            # faithful chart action: no nonidentity element fixes the chart
            assert all((j * a) % l or (j * b) % l for j in range(1, l))
            assert r.singularity.order == l


# ------------------------------------------------------ volume and betti


def test_volume_is_degree_over_order():
    assert build_surface(CyclicAction.x_family(5)).volume == Fraction(8, 5)
    assert build_surface(CyclicAction.y_family(5)).volume == Fraction(9, 5)
    for l in range(2, 61):
        assert build_surface(CyclicAction.x_family(l)).volume * l == 8
    for l in range(3, 61, 2):
        assert build_surface(CyclicAction.y_family(l)).volume * l == 9


def test_aut0_and_b2_base():
    x = build_surface(CyclicAction.x_family(6))
    y = build_surface(CyclicAction.y_family(7))
    assert (x.aut0_dim, x.b2_base) == (2, 2)
    assert (y.aut0_dim, y.b2_base) == (2, 1)
    other = build_surface(CyclicAction("P1xP1", 5, (1, 2)))
    assert other.aut0_dim is None
    assert other.b2_base == 2


def test_betti_of_generic_smoothing_values():
    cases = {
        ("X", 2): 6,
        ("X", 4): 8,
        ("X", 7): 14,
        ("Y", 3): 7,
        ("Y", 5): 5,
        ("Y", 9): 9,
    }
    for (family, l), expected in cases.items():
        assert local_model(family, l).b2_generic == expected
    # away from the special orders the X value is 2l and the Y value is l
    for l in (5, 6, 9, 10, 11):
        assert local_model("X", l).b2_generic == 2 * l
    for l in (7, 11, 13, 15):
        assert local_model("Y", l).b2_generic == l


# ------------------------------------------------------------------ qdef


def test_qdef_totals_x_family():
    expected = {2: 4, 4: 8}
    for l in range(2, 41):
        q = assemble_qdef(build_surface(CyclicAction.x_family(l)))
        assert q.total_dim == expected.get(l, 2 * (l - 1))


def test_qdef_totals_y_family():
    expected = {3: 6, 9: 10}
    for l in range(3, 42, 2):
        q = assemble_qdef(build_surface(CyclicAction.y_family(l)))
        assert q.total_dim == expected.get(l, l - 1)


def test_qdef_columns_x5():
    q = assemble_qdef(build_surface(CyclicAction.x_family(5)))
    assert qdef_columns(q) == (
        (5, 5), (4, 4), (3, 3), (2, 2),
        (-5, -5), (-4, -4), (-3, -3), (-2, -2),
    )


def test_qdef_columns_x2():
    q = assemble_qdef(build_surface(CyclicAction.x_family(2)))
    assert qdef_columns(q) == ((2, 2), (2, -2), (-2, 2), (-2, -2))


def test_qdef_columns_x4():
    q = assemble_qdef(build_surface(CyclicAction.x_family(4)))
    assert qdef_columns(q) == (
        (4, 4), (3, 3), (2, 2),
        (2, -2), (-2, 2),
        (-4, -4), (-3, -3), (-2, -2),
    )


def test_qdef_columns_y9():
    q = assemble_qdef(build_surface(CyclicAction.y_family(9)))
    a8 = tuple((c, c) for c in range(9, 1, -1))
    assert qdef_columns(q) == ((-6, 3), (3, -6)) + a8


def test_qdef_columns_y5():
    q = assemble_qdef(build_surface(CyclicAction.y_family(5)))
    assert qdef_columns(q) == ((5, 5), (4, 4), (3, 3), (2, 2))


def test_qdef_blocks_track_points():
    q = assemble_qdef(build_surface(CyclicAction.x_family(7)))
    by_label = {record.point_label: chars for record, chars in q.blocks}
    assert len(by_label) == 4
    assert by_label["([0:1],[1:0])"] == ()  # rigid 1/7(1,1)
    assert by_label["([1:0],[0:1])"] == ()
    assert len(by_label["([0:1],[0:1])"]) == 6
    assert len(by_label["([1:0],[1:0])"]) == 6


def test_records_read_their_derived_facts_off_what_they_hold():
    for action in [CyclicAction.x_family(l) for l in range(2, 41)] + [
        CyclicAction.y_family(l) for l in range(3, 42, 2)
    ]:
        surface = build_surface(action)
        for r in surface.singular_locus:
            assert r.singularity is r.classification.normal_form, action
        q = assemble_qdef(surface)
        assert q.total_dim == len(q.weight_matrix[0]) == len(q.weight_matrix[1])


def test_qdef_weight_matrix_shape():
    q = assemble_qdef(build_surface(CyclicAction.y_family(5)))
    assert q.weight_matrix == ((5, 4, 3, 2), (5, 4, 3, 2))
    ws = qdef_weight_system(q)
    assert ws.rank == 2
    assert ws.n_coords == 4


def test_direction_counts_are_the_primitive_columns():
    actions = [CyclicAction.x_family(l) for l in range(2, 61)]
    actions += [CyclicAction.y_family(l) for l in range(3, 62, 2)]
    for action in actions:
        s = build_surface(action)
        q = assemble_qdef(s)
        primitive = Counter(
            (x // gcd(x, y), y // gcd(x, y)) for x, y in qdef_columns(q)
        )
        total, counts = qdef_directions(s)
        assert counts == primitive, action
        assert total == sum(counts.values()) == q.total_dim


def test_qdef_feeds_quotient_dim():
    q = assemble_qdef(build_surface(CyclicAction.x_family(5)))
    assert quotient_dim(qdef_weight_system(q)) == 7


def test_everything_rigid_yields_zero_space():
    # 1/5(1,2)-type points at all four corners: no deformations at all
    s = build_surface(CyclicAction("P1xP1", 5, (1, 2)))
    assert all(classify(r.singularity).is_qg_rigid for r in s.singular_locus)
    q = assemble_qdef(s)
    assert q.total_dim == 0
    assert qdef_columns(q) == ()
    assert all(chars == () for _, chars in q.blocks)
    assert qdef_directions(s) == (0, {})
    with pytest.raises(ValueError):
        qdef_weight_system(q)
    assert betti_by_kind(s) == 2


def test_unknown_deformation_point_is_an_error():
    # at ([0:1],[1:0]) the germ is 1/12(1,7): w=4, r=3, neither rigid nor T
    s = build_surface(CyclicAction("P1xP1", 12, (1, 5)))
    with pytest.raises(UnknownDeformationError, match=r"\(\[0:1\],\[1:0\]\)"):
        assemble_qdef(s)
    with pytest.raises(UnknownDeformationError, match=r"\(\[0:1\],\[1:0\]\)"):
        qdef_directions(s)
    with pytest.raises(UnknownDeformationError, match=r"\(\[0:1\],\[1:0\]\)"):
        betti_by_kind(s)


def test_qdef_blocks_match_the_versal_weights_oracle():
    """assemble_qdef against the per-point path through versal_weights,
    on every isolated action of order at most 40 on both ambients: the
    same blocks, or the same UnknownDeformationError, message and all."""
    assembled = refused = 0
    for l in range(2, 41):
        for w1 in range(l):
            for w2 in range(l):
                for action in (
                    CyclicAction("P1xP1", l, (w1, w2)),
                    CyclicAction("P2", l, (w1, w2, 0)),
                ):
                    try:
                        surface = build_surface(action)
                    except NonIsolatedError:
                        continue
                    try:
                        expected = oracle_blocks(surface)
                    except UnknownDeformationError as error:
                        with pytest.raises(UnknownDeformationError) as raised:
                            assemble_qdef(surface)
                        assert str(raised.value) == str(error), action
                        refused += 1
                    else:
                        assert assemble_qdef(surface).blocks == expected, action
                        assembled += 1
    assert (assembled, refused) == (13769, 632)


# ------------------------------------------------------------------ json


def test_surface_json_roundtrip():
    s = build_surface(CyclicAction.y_family(5))
    d = s.to_json_dict()
    text = json.dumps(d, indent=2)
    assert json.dumps(s.to_json_dict(), indent=2) == text
    parsed = json.loads(text)
    assert parsed["volume"] == {"num": 9, "den": 5}
    assert parsed["action"] == {"ambient": "P2", "order": 5, "weights": [1, 4, 0]}
    assert parsed["b2_base"] == 1
    assert [r["singularity"] for r in parsed["singular_locus"]] == [
        {"order": 5, "q": 2},
        {"order": 5, "q": 2},
        {"order": 5, "q": 4},
    ]


def test_qdef_json_shape():
    q = assemble_qdef(build_surface(CyclicAction.x_family(2)))
    parsed = json.loads(json.dumps(q.to_json_dict()))
    assert parsed["total_dim"] == 4
    assert parsed["weight_matrix"] == [[2, 2, -2, -2], [2, -2, 2, -2]]
    assert len(parsed["blocks"]) == 4
    record, chars = parsed["blocks"][0]
    assert record["point_label"] == "([0:1],[0:1])"
    assert chars == [[2, 2]]
