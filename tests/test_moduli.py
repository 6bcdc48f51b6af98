"""Tests for the local K-moduli models and the Proposition-style table."""

import inspect
import json
import re
import signal
import sys
from fractions import Fraction
from itertools import chain, combinations
from math import gcd

import pytest
from call_counts import count_calls
from capped import run_capped
from fixed_points import oracle_records
from three_pass import qdef_directions, three_pass_model
from weight_systems import full_support, negated, qdef_weight_system

import kmoduli
from kmoduli import torusgit
from kmoduli.cqsing import NonIsolatedError, NormalForm, classify, min_discrepancy
from kmoduli.moduli import (
    LocalModuliModel,
    action_for,
    evaluate_model,
    local_model,
    table,
    unboundedness_witness,
    witness_dim,
    witness_model,
)
from kmoduli.quotsurf import (
    CyclicAction,
    FixedPointRecord,
    SurfaceModel,
    assemble_qdef,
    build_surface,
)
from kmoduli.torusgit import (
    SupportPoint,
    is_polystable,
    kernel_rank,
    open_half_space_certificate,
    quotient_dim,
)

# namedtuple._replace refuses a name that is not a field with ValueError
# before Python 3.13, and with TypeError from 3.13 on
UNEXPECTED_FIELD = ValueError if sys.version_info < (3, 13) else TypeError


def weight_system_of(family: str, l: int):
    action = CyclicAction.x_family(l) if family == "X" else CyclicAction.y_family(l)
    return qdef_weight_system(assemble_qdef(build_surface(action)))


# -------------------------------------------------------- frozen examples


def test_y7_model():
    m = local_model("Y", 7)
    assert (m.qdef_dim, m.aut_dim, m.stack_dim) == (6, 2, 4)
    assert m.coarse_dim == 0
    assert m.isolated


def test_x7_model():
    m = local_model("X", 7)
    assert (m.qdef_dim, m.aut_dim, m.stack_dim) == (12, 2, 10)
    assert m.coarse_dim == 11
    assert m.kernel_rank == 1
    assert not m.isolated


def test_special_x_orders():
    assert local_model("X", 2).coarse_dim == 2
    assert local_model("X", 4).coarse_dim == 6


def test_special_y_orders():
    m3 = local_model("Y", 3)
    m9 = local_model("Y", 9)
    assert m3.stack_dim == 4
    assert m9.stack_dim == 8
    # computed directly by the GIT engine, no tabulated value to compare
    assert m3.coarse_dim == 4
    assert m9.coarse_dim == 8
    assert not m3.isolated and not m9.isolated


def test_surface_id():
    assert local_model("X", 5).surface_id == "X_5"
    assert local_model("Y", 7).surface_id == "Y_7"


# ----------------------------------------------------------- dimension laws


def test_x_family_dimensions_sweep():
    for l in range(5, 52):
        m = local_model("X", l)
        assert m.coarse_dim == 2 * l - 3
        assert m.stack_dim == 2 * l - 4
        assert m.kernel_rank == 1
        assert m.coarse_dim - m.stack_dim == m.kernel_rank


def test_y_family_dimensions_sweep():
    for l in range(5, 52, 2):
        if l == 9:
            continue
        m = local_model("Y", l)
        assert m.stack_dim == l - 3
        assert m.coarse_dim == 0
        assert m.isolated
        assert m.kernel_rank == 1


def test_family_dimensions_at_large_orders():
    # the paper's closed forms over every order up to about 2000
    for m in table("X", 2, 2000):
        if m.l not in (2, 4):
            assert m.coarse_dim == 2 * m.l - 3, m.l
    ys = table("Y", 3, 2001)
    assert [m.l for m in ys] == list(range(3, 2002, 2))
    for m in ys:
        if m.l not in (3, 9):
            assert m.stack_dim == m.l - 3, m.l


def family_closed_form(family: str, l: int) -> LocalModuliModel:
    """The whole model at a generic order, from the singular loci: X_l
    (l not in {2, 4}) has two A_{l-1} points and two rigid 1/l(1,1);
    Y_l (odd l not in {3, 9}) has one A_{l-1} point and two rigid
    1/l(1,2)."""
    if family == "X":
        qdef, coarse, isolated, degree, b2 = 2 * l - 2, 2 * l - 3, False, 8, 2 * l
        min_disc, index = Fraction(2, l) - 1, l // gcd(l, 2)
    else:
        qdef, coarse, isolated, degree, b2 = l - 1, 0, True, 9, l
        min_disc, index = Fraction(3, l) - 1, l // gcd(l, 3)
    model = LocalModuliModel(
        family, l, qdef, 2, coarse, 1, Fraction(degree, l), min_disc, index, b2
    )
    assert model.isolated == isolated
    return model


def test_models_match_family_closed_forms():
    for m in table("X", 3, 300):
        if m.l != 4:
            assert m == family_closed_form("X", m.l)
    for m in table("Y", 5, 301):
        if m.l != 9:
            assert m == family_closed_form("Y", m.l)


LARGE_ORDER_CHILD = """
import json, tracemalloc
from kmoduli import moduli
tracemalloc.start()
models = {call}
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({{"peak": peak, "models": [m.to_json_dict() for m in models]}}))
"""


@pytest.mark.parametrize(
    "call,expected",
    [
        ("[moduli.local_model('X', 10**9)]", [("X", 10**9)]),
        ("[moduli.witness_model('Y', 10**9)]", [("Y", 10**9 + 3)]),
        (
            "moduli.table('X', 10**9, 10**9 + 50)",
            [("X", l) for l in range(10**9, 10**9 + 51)],
        ),
    ],
)
def test_models_at_order_a_billion_in_constant_memory(call, expected):
    # in a capped child: a model whose cost grows with l would fill memory
    proc = run_capped(["-c", LARGE_ORDER_CHILD.format(call=call)], timeout=20)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["models"] == [
        family_closed_form(*fl).to_json_dict() for fl in expected
    ]
    assert result["peak"] < 1 << 20


def test_stack_dim_is_qdef_minus_aut():
    for family, l in [("X", 2), ("X", 4), ("X", 11), ("Y", 3), ("Y", 9), ("Y", 13)]:
        m = local_model(family, l)
        assert m.stack_dim == m.qdef_dim - m.aut_dim
        assert m.aut_dim == 2


def test_coarse_dim_matches_weight_system():
    # the model reads the multiset of its deformation directions, and the
    # matrix queries the columns of the assembled weight matrix
    orders = [("X", l) for l in range(2, 61)] + [("Y", l) for l in range(3, 62, 2)]
    for family, l in orders:
        m = local_model(family, l)
        ws = weight_system_of(family, l)
        expected = (quotient_dim(ws), kernel_rank(ws))
        assert (m.coarse_dim, m.kernel_rank) == expected, (family, l)


# -------------------------------------------------------------- isolated


def nonempty_supports(n):
    return chain.from_iterable(
        combinations(range(1, n + 1), size) for size in range(1, n + 1)
    )


def test_isolated_cross_checks_both_ways():
    for family, l in [("X", 5), ("X", 6), ("Y", 5), ("Y", 7), ("Y", 3), ("Y", 9)]:
        m = local_model(family, l)
        ws = weight_system_of(family, l)
        certificate = open_half_space_certificate(ws)
        if m.isolated:
            assert certificate is not None
            assert all(
                not is_polystable(ws, SupportPoint.of(s))
                for s in nonempty_supports(ws.n_coords)
            )
        else:
            assert certificate is None
            assert any(
                is_polystable(ws, SupportPoint.of(s))
                for s in nonempty_supports(ws.n_coords)
            )


def test_x_family_never_isolated():
    for l in (2, 3, 4, 8):
        assert not local_model("X", l).isolated


# ----------------------------------------------- unboundedness invariants


def test_volume_strictly_decreases_to_zero():
    x_volumes = [local_model("X", l).volume for l in range(2, 30)]
    assert all(a > b for a, b in zip(x_volumes, x_volumes[1:]))
    assert x_volumes[-1] == Fraction(8, 29)
    y_volumes = [local_model("Y", l).volume for l in range(3, 30, 2)]
    assert all(a > b for a, b in zip(y_volumes, y_volumes[1:]))


def test_min_discrepancy_formula_and_decrease():
    for l in range(2, 30):
        assert local_model("X", l).min_discrepancy == Fraction(2, l) - 1
    for l in range(3, 30, 2):
        assert local_model("Y", l).min_discrepancy == Fraction(3, l) - 1
    discs = [local_model("X", l).min_discrepancy for l in range(3, 30)]
    assert all(a > b for a, b in zip(discs, discs[1:]))
    assert all(-1 < d <= 0 for d in discs)


def sweep_orders():
    """The orders of the benchmark sweep: both tables and both witnesses
    at target 10000."""
    yield from (("X", l) for l in range(2, 401))
    yield from (("Y", l) for l in range(3, 402, 2))
    yield from (("X", witness_model("X", 10000).l), ("Y", witness_model("Y", 10000).l))


def test_min_discrepancy_is_the_least_over_the_singular_locus():
    for family, l in sweep_orders():
        points = build_surface(action_for(family, l)).singular_locus
        least = min(min_discrepancy(r.singularity) for r in points)
        assert local_model(family, l).min_discrepancy == least, (family, l)


def _mixed_order_records() -> tuple:
    # hand-built points of orders 9, 4 and 5, with discrepancies -4/9,
    # -1/2 and 0: no action gives this locus
    torus = ((1, 0), (0, 1))
    return tuple(
        FixedPointRecord(f"p{i}", (1, nf.q), torus, classify(nf))
        for i, nf in enumerate((NormalForm(9, 4), NormalForm(4, 1), NormalForm(5, 4)))
    )


def test_one_walk_matches_the_three_pass_path(monkeypatch):
    # the model and the direction multiset handed to the GIT engine are
    # those of one walk of the locus per fact, on every surface of the
    # sweep
    cases = [build_surface(action_for(family, l)) for family, l in sweep_orders()]
    inputs = count_calls(monkeypatch, torusgit._quotient_dim)
    for surface in cases:
        model = evaluate_model(surface)
        (counts, _, _), = inputs
        inputs.clear()
        assert model == three_pass_model(surface), surface.action
        assert counts == qdef_directions(surface)[1], surface.action


def test_gorenstein_index():
    assert local_model("X", 2).gorenstein_index == 1
    assert local_model("X", 4).gorenstein_index == 2
    assert local_model("X", 5).gorenstein_index == 5
    assert local_model("X", 6).gorenstein_index == 3
    assert local_model("Y", 3).gorenstein_index == 1
    assert local_model("Y", 5).gorenstein_index == 5
    assert local_model("Y", 9).gorenstein_index == 3
    assert local_model("Y", 15).gorenstein_index == 5


def test_b2_generic():
    assert local_model("X", 2).b2_generic == 6
    assert local_model("X", 7).b2_generic == 16 - 2
    assert local_model("Y", 9).b2_generic == 9
    for l in range(5, 20):
        assert local_model("X", l).b2_generic == 2 + 2 * (l - 1)


# ------------------------------------------------------------------ table


def test_table_y_5_to_9():
    rows = table("Y", 5, 9)
    assert [m.l for m in rows] == [5, 7, 9]
    assert [m.stack_dim for m in rows] == [2, 4, 8]


def test_table_x_single_row():
    rows = table("X", 2, 2)
    assert len(rows) == 1
    assert rows[0].coarse_dim == 2


def test_table_empty_range():
    assert table("X", 5, 4) == []
    assert table("Y", 10, 9) == []


@pytest.mark.parametrize("family", ["X", "Y"])
def test_table_refuses_a_range_over_the_limit(family):
    # the library checks the span the CLI states, before building a
    # model; a 10**30-order range is refused at once, not built
    def too_slow(signum, frame):
        raise TimeoutError("table ran past 2 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(2)
    try:
        with pytest.raises(ValueError, match="above the table limit of 5000"):
            table(family, 2, 10**30)
        message = "2..5002 spans 5001 orders, above the table limit of 5000"
        with pytest.raises(ValueError, match=re.escape(message)):
            table(family, 2, 5002)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert table(family, 4990, 5001)[-1].l == 5001


def test_table_x_2_to_8():
    rows = table("X", 2, 8)
    assert [m.coarse_dim for m in rows] == [2, 3, 6, 7, 9, 11, 13]


def test_table_y_skips_even_and_small():
    assert [m.l for m in table("Y", 2, 9)] == [3, 5, 7, 9]
    assert [m.l for m in table("Y", 4, 8)] == [5, 7]


# ---------------------------------------------------------------- witness


def test_witness_examples():
    assert unboundedness_witness("X", 100) == 52
    assert unboundedness_witness("Y", 0) == 3
    assert unboundedness_witness("Y", 10) == 13


def test_witness_minimality_x():
    dims = {l: local_model("X", l).coarse_dim for l in range(2, 40)}
    for t in range(0, 30):
        l = unboundedness_witness("X", t)
        assert dims[l] >= t
        assert all(dims[k] < t for k in dims if k < l)


def test_witness_minimality_y():
    dims = {l: local_model("Y", l).stack_dim for l in range(3, 46, 2)}
    for t in range(0, 30):
        l = unboundedness_witness("Y", t)
        assert l % 2 == 1
        assert dims[l] >= t
        assert all(dims[k] < t for k in dims if k < l)


def test_witness_dim_is_coarse_for_x_and_stack_for_y():
    x = local_model("X", 9)
    y = local_model("Y", 9)
    assert witness_dim(x) == ("coarse", x.coarse_dim)
    assert witness_dim(y) == ("stack", y.stack_dim)
    for family, target in (("X", 100), ("Y", 10)):
        _, achieved = witness_dim(witness_model(family, target))
        assert achieved >= target


def test_witness_validation(monkeypatch):
    with pytest.raises(ValueError):
        unboundedness_witness("X", -1)
    with pytest.raises(ValueError):
        unboundedness_witness("Z", 5)
    # a closed formula that undershoots is caught by the engine's check
    monkeypatch.setattr(kmoduli.moduli, "_smallest_x_order", lambda target: 2)
    with pytest.raises(RuntimeError, match="returned l = 2 with dimension"):
        witness_model("X", 100)


# ------------------------------------------------------- errors and json


@pytest.mark.parametrize("family,l", [("X", 5.0), ("X", True), ("Y", True), ("Y", 7.0)])
def test_local_model_refuses_an_order_that_is_not_an_int(family, l):
    # a bool is not read as l = 1, nor a float truncated: the action's
    # constructor refuses it
    message = f"group order must be an int of at least 2, got {l!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        local_model(family, l)


@pytest.mark.parametrize(
    "call,args,name",
    [
        (table, ("X", 2.0, 5), "l_min"),
        (table, ("Y", 3, 7.0), "l_max"),
        (table, ("X", True, 3), "l_min"),
        (table, ("Y", 3, False), "l_max"),
        (witness_model, ("X", 5.0), "target_dim"),
        (witness_model, ("X", True), "target_dim"),
        (unboundedness_witness, ("Y", 10.0), "target_dim"),
        (unboundedness_witness, ("Y", "10"), "target_dim"),
    ],
)
def test_table_and_witness_refuse_a_bound_that_is_not_an_int(call, args, name):
    # as local_model does: no raw TypeError, no bool read as 0 or 1, no
    # float truncated
    bad = next(a for a in args[1:] if type(a) is not int)
    message = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)


# parameter name -> a valid argument, for each parameter an entry point
# requires after its record
LATER_ARGUMENTS = {
    "p": SupportPoint.of([1]),
    "degree_cap": 2,
}


def record_arguments() -> dict:
    """Entry point -> the name of the record type its first parameter
    takes and the arguments it requires after it: every function of
    kmoduli.__all__ whose first parameter is annotated with a record type
    of __all__, and evaluate_model, which is not exported. A new entry
    point joins the table by its signature, and one that requires a
    later parameter not in LATER_ARGUMENTS fails collection."""
    public = {name: getattr(kmoduli, name) for name in kmoduli.__all__}
    records = {
        name for name, obj in public.items()
        if isinstance(obj, type) and issubclass(obj, tuple)
    }
    functions = [obj for obj in public.values() if inspect.isfunction(obj)]
    table = {}
    for call in [*functions, evaluate_model]:
        first, *later = inspect.signature(call).parameters.values()
        if first.annotation in records:
            required = [q.name for q in later if q.default is q.empty]
            table[call] = first.annotation, [LATER_ARGUMENTS[q] for q in required]
    return table


RECORD_ARGUMENTS = record_arguments()


@pytest.mark.parametrize("value", [5, None, "1/5(1,2)", (5, 2)], ids=repr)
@pytest.mark.parametrize("call", RECORD_ARGUMENTS, ids=lambda f: f.__name__)
def test_record_arguments_are_checked_where_they_enter(call, value):
    # a value that is not the record, a tuple of its fields included, is
    # refused by name at the entry point, not deep inside as an
    # AttributeError
    record, later = RECORD_ARGUMENTS[call]
    expected = f"expected a {record}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        call(value, *later)


def test_errors_propagate():
    with pytest.raises(NonIsolatedError):
        local_model("Y", 4)
    with pytest.raises(ValueError):
        local_model("X", 1)
    with pytest.raises(ValueError):
        local_model("Q", 5)
    with pytest.raises(ValueError):
        table("Q", 2, 5)
    # a valid action outside both families has no automorphism dimension
    surface = build_surface(CyclicAction("P1xP1", 5, (1, 2)))
    with pytest.raises(ValueError, match=r"order=5, weights=\(1, 2\)"):
        evaluate_model(surface)


def test_evaluate_model_reads_the_family_off_the_action():
    # the surface of a preset names its family: the model of X_l and of
    # Y_l is the one local_model builds, and any other action is refused
    for family, l in (("X", 2), ("X", 6), ("Y", 3), ("Y", 9), ("Y", 11)):
        surface = build_surface(action_for(family, l))
        assert evaluate_model(surface) == local_model(family, l), (family, l)
        assert evaluate_model(surface).surface_id == f"{family}_{l}"
    for action in (CyclicAction("P1xP1", 7, (1, 2)), CyclicAction("P2", 7, (1, 2, 0))):
        with pytest.raises(ValueError, match="no automorphism dimension"):
            evaluate_model(build_surface(action))


def test_local_model_and_evaluate_model_agree():
    # the one walk reads its points raw for local_model and as records
    # for evaluate_model: both give the same model, field for field
    large = (10**6 + 1, 10**9 + 7, 10**18 + 1)
    orders = [("X", l) for l in (*range(2, 2001), *large)]
    orders += [("Y", l) for l in (*range(3, 2002, 2), *large)]
    for family, l in orders:
        model = local_model(family, l)
        surface = build_surface(action_for(family, l))
        assert model._asdict() == evaluate_model(surface)._asdict(), (family, l)


def test_evaluate_model_refuses_a_non_preset_whatever_its_aut0_dim():
    # a hand-built surface of a P2 action that is not y_family(7) is not
    # Y_7, and its action gives it no automorphism dimension to claim
    action = CyclicAction("P2", 7, (1, 2, 0))
    surface = SurfaceModel(action)
    assert surface == build_surface(action)
    assert surface.aut0_dim is None
    with pytest.raises(ValueError, match="no automorphism dimension"):
        evaluate_model(surface)


def test_a_record_cannot_contradict_what_determines_it():
    # the derived facts are read off the fields that determine them, so
    # a record that states another value cannot be built
    x5 = _x5_surface()
    action, locus = x5.action, x5.singular_locus
    with pytest.raises(TypeError):
        SurfaceModel(action, locus)
    with pytest.raises(TypeError):
        SurfaceModel._make((action, locus))
    assert evaluate_model(SurfaceModel(action)) == local_model("X", 5)
    with pytest.raises(UNEXPECTED_FIELD, match="unexpected field"):
        locus[0]._replace(singularity=NormalForm(5, 2))
    with pytest.raises(UNEXPECTED_FIELD, match="unexpected field"):
        local_model("X", 5)._replace(stack_dim=99, isolated=True)


@pytest.mark.parametrize(
    "args",
    [
        (5,),
        (5, ()),
        (CyclicAction.x_family(5), (5,)),
        (CyclicAction.x_family(5), None),
        (CyclicAction.x_family(5), _mixed_order_records()),
    ],
    ids=["int", "int-empty-locus", "int-locus", "none-locus", "mixed-order-locus"],
)
def test_surface_model_refuses_what_is_not_its_action(args):
    # a surface is its action: a value that is not one, or a locus given
    # beside it, is refused where the record is built, and never escapes
    # later as an AttributeError
    with pytest.raises((ValueError, TypeError)):
        SurfaceModel(*args)


def test_negating_weight_matrix_changes_nothing():
    for family, l in [("X", 2), ("X", 4), ("X", 7), ("Y", 3), ("Y", 9), ("Y", 11)]:
        ws = weight_system_of(family, l)
        neg = negated(ws)
        assert quotient_dim(neg) == quotient_dim(ws)
        full = full_support(ws.n_coords)
        assert is_polystable(neg, full) == is_polystable(ws, full)


def test_model_json_is_deterministic():
    a = json.dumps(local_model("X", 5).to_json_dict(), indent=2)
    b = json.dumps(local_model("X", 5).to_json_dict(), indent=2)
    assert a == b
    parsed = json.loads(a)
    assert list(parsed) == [
        "surface_id",
        "qdef_dim",
        "aut_dim",
        "stack_dim",
        "coarse_dim",
        "kernel_rank",
        "isolated",
        "volume",
        "min_discrepancy",
        "gorenstein_index",
        "b2_generic",
    ]
    assert parsed["surface_id"] == {"family": "X", "l": 5}
    assert parsed["volume"] == {"num": 8, "den": 5}
    assert parsed["min_discrepancy"] == {"num": -3, "den": 5}


def _x5_surface():
    return build_surface(CyclicAction.x_family(5))


# record type -> (a record the library builds, its field names in order)
RECORDS = {
    "CyclicQuotientSingularity": (
        lambda: kmoduli.parse_singularity("1/5(1,2)"),
        ("order", "weight_a", "weight_b"),
    ),
    "NormalForm": (lambda: kmoduli.NormalForm(7, 3), ("order", "q")),
    "HJResolution": (
        lambda: kmoduli.hirzebruch_jung(kmoduli.NormalForm(7, 3)),
        ("coefficients",),
    ),
    "DiscrepancyVector": (
        lambda: kmoduli.discrepancies(kmoduli.NormalForm(7, 3)),
        ("values",),
    ),
    "SingularityClassification": (
        lambda: kmoduli.classify(kmoduli.NormalForm(4, 1)),
        ("normal_form", "w", "r", "m", "w0", "is_du_val", "is_T",
         "is_primitive_T", "is_qg_rigid", "qdef_dim"),
    ),
    "CyclicAction": (
        lambda: CyclicAction.y_family(5), ("ambient", "order", "weights")
    ),
    "FixedPointRecord": (
        lambda: _x5_surface().singular_locus[0],
        ("point_label", "local_cyclic_weights", "local_torus_weights",
         "classification"),
    ),
    "SurfaceModel": (_x5_surface, ("action",)),
    "QDefModel": (
        lambda: assemble_qdef(_x5_surface()),
        ("blocks",),
    ),
    "WeightSystem": (
        lambda: kmoduli.WeightSystem.from_rows([[1, -1, 0], [0, 2, 1]]),
        ("matrix",),
    ),
    "SupportPoint": (lambda: SupportPoint.of([3, 1]), ("support",)),
    "LocalModuliModel": (
        lambda: local_model("X", 2),
        ("family", "l", "qdef_dim", "aut_dim", "coarse_dim", "kernel_rank",
         "volume", "min_discrepancy", "gorenstein_index", "b2_generic"),
    ),
}

# record type -> its read-only properties, each with the formula that
# gives it from the fields
DERIVED = {
    "SingularityClassification": {
        "smoothing_b2": lambda c: (
            c.normal_form.order - 1 if c.is_du_val else c.m - 1 if c.is_T else 0
        ),
    },
    "FixedPointRecord": {"singularity": lambda r: r.classification.normal_form},
    "SurfaceModel": {
        "singular_locus": lambda s: tuple(oracle_records(s.action)),
        "volume": lambda s: Fraction(
            {"P1xP1": 8, "P2": 9}[s.action.ambient], s.action.order
        ),
        "aut0_dim": lambda s: 2 if s.action.family else None,
        "b2_base": lambda s: {"P1xP1": 2, "P2": 1}[s.action.ambient],
    },
    "QDefModel": {
        "total_dim": lambda q: sum(len(chars) for _, chars in q.blocks),
        "weight_matrix": lambda q: tuple(
            tuple(c[i] for _, chars in q.blocks for c in chars) for i in (0, 1)
        ),
    },
    "LocalModuliModel": {
        "surface_id": lambda m: f"{m.family}_{m.l}",
        "stack_dim": lambda m: m.qdef_dim - m.aut_dim,
        "isolated": lambda m: m.coarse_dim == 0,
    },
}

# validating record type -> keyword arguments it refuses, with the error
REFUSED = {
    "CyclicQuotientSingularity": [
        (dict(order=0, weight_a=1, weight_b=1), ValueError, "order must be a positive"),
        (dict(order=4, weight_a=2, weight_b=1), NonIsolatedError, "gcd"),
        (dict(order=5, weight_a=1.0, weight_b=2), ValueError, "must be integers"),
        (dict(order=True, weight_a=1, weight_b=1), ValueError, "got True"),
    ],
    "NormalForm": [
        (dict(order=5, q=0), ValueError, "must satisfy 1 <= q < 5"),
        (dict(order=1, q=2), ValueError, "q = None"),
        (dict(order=5, q=None), ValueError, "needs q"),
        (dict(order=0, q=None), ValueError, "order must be a positive"),
        (dict(order=5.0, q=2), ValueError, "order must be a positive integer, got 5.0"),
        (dict(order=5, q=2.0), ValueError, "q must be an integer, got 2.0"),
    ],
    "HJResolution": [
        (dict(coefficients=()), ValueError, "at least one curve"),
        (dict(coefficients=(3, 1)), ValueError, ">= 2"),
    ],
    "CyclicAction": [
        (dict(ambient="P3", order=5, weights=(1, 2)), ValueError, "ambient must be"),
        (dict(ambient=["P2"], order=5, weights=(1, 2, 0)), ValueError, "ambient must be"),
        (dict(ambient="P2", order=1, weights=(1, 2, 0)), ValueError, "at least 2"),
        (dict(ambient="P2", order=5, weights=(1, 2)), ValueError, "takes 3 weights"),
        (dict(ambient="P2", order=5.0, weights=(1, 4, 0)), ValueError, "got 5.0"),
        (dict(ambient="P1xP1", order=5, weights=7), ValueError, "integer weights: 7"),
        (dict(ambient="P1xP1", order=5, weights=(1, True)), ValueError, "(1, True)"),
    ],
    "SurfaceModel": [
        (dict(action=5), ValueError, "expected a CyclicAction"),
        (dict(action=CyclicAction("P1xP1", 4, (1, 2))), NonIsolatedError, "factor 2"),
    ],
    "WeightSystem": [
        (dict(matrix=((1, 2), (3,))), ValueError, "expected rows of length 2"),
        (dict(matrix=((1, 2.0),)), ValueError, "must be integers"),
        (dict(matrix=()), ValueError, "must be nonempty"),
        (dict(matrix=((),)), ValueError, "must be nonempty"),
    ],
    "SupportPoint": [(dict(support=[0, 1]), ValueError, "1-based")],
}

# record type -> keyword arguments it normalises, and the record they give
NORMALISED = {
    "CyclicQuotientSingularity": (
        dict(order=5, weight_a=6, weight_b=-3), (5, 1, 2)
    ),
    "CyclicAction": (dict(ambient="P1xP1", order=5, weights=(6, -1)), ("P1xP1", 5, (1, 4))),
    "SupportPoint": (dict(support=[3, 1, 3]), (frozenset({1, 3}),)),
}

# len() of these counts the curves of the chain and the indices of the
# support, not the fields
SIZES = {"HJResolution": 3, "SupportPoint": 2}


@pytest.mark.parametrize("name", RECORDS)
def test_model_is_frozen(name):
    cls = getattr(kmoduli, name)
    build, fields = RECORDS[name]
    record = build()
    assert isinstance(record, cls)
    assert cls._fields == fields
    values = {f: getattr(record, f) for f in fields}
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[fields[0]])
    again = cls(**values)
    assert again == record == build()
    assert hash(again) == hash(record)
    shown = ", ".join(f"{f}={v!r}" for f, v in values.items())
    assert repr(record) == f"{name}({shown})"
    for kwargs, error, message in REFUSED.get(name, []):
        with pytest.raises(error, match=re.escape(message)):
            cls(**kwargs)
    if name in NORMALISED:
        kwargs, normal = NORMALISED[name]
        assert cls(**kwargs) == cls(*normal)
        assert tuple(cls(**kwargs)) == normal
    if name in SIZES:
        assert len(record) == SIZES[name]
    for derived, formula in DERIVED.get(name, {}).items():
        value = getattr(record, derived)
        assert derived not in cls._fields
        with pytest.raises(AttributeError):
            setattr(record, derived, value)
        with pytest.raises(UNEXPECTED_FIELD, match="unexpected field"):
            record._replace(**{derived: value})
        assert value == formula(record), derived


@pytest.mark.parametrize("name", REFUSED)
def test_replace_runs_the_constructor_checks(name):
    # _make, and so _replace, build through the constructor: each value
    # it refuses is refused the same way from a valid record
    record = RECORDS[name][0]()
    for kwargs, error, message in REFUSED[name]:
        fields = tuple(kwargs.get(f, getattr(record, f)) for f in record._fields)
        with pytest.raises(error, match=re.escape(message)):
            record._replace(**kwargs)
        with pytest.raises(error, match=re.escape(message)):
            type(record)._make(fields)
