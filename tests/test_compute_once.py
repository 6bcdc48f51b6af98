"""Each request computes every surface, deformation space, model and GIT
invariant once: call counts taken by wrapping the library's functions."""

import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from call_counts import count_calls
from three_pass import qdef_directions

from kmoduli import cli, cqsing, moduli, quotsurf, torusgit
from kmoduli.cli import main


def cut_misses() -> int:
    """Support cuts run since the caches were cleared: one per direction set."""
    return torusgit._polystable_directions.cache_info().misses


def clear_torusgit() -> None:
    for obj in vars(torusgit).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


@pytest.fixture
def cold_torusgit():
    """Empty every lru_cache of torusgit, so that counts start cold."""
    clear_torusgit()


def golden_entries() -> list:
    """(id, weight system, ops) of each entry of the benchmark's git pool;
    one id can head entries of several groups."""
    golden = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
    )
    return [
        (system["id"], torusgit.WeightSystem.from_rows(system["rows"]), system["ops"])
        for group in golden["git"].values()
        for system in group["entries"]
    ]


@pytest.mark.parametrize("family,l", [("X", 7), ("Y", 9), ("Y", 11)])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_surface_request_builds_once(monkeypatch, capsys, family, l, fmt):
    surfaces = count_calls(monkeypatch, quotsurf.build_surface)
    qdefs = count_calls(monkeypatch, quotsurf.assemble_qdef)
    assert main(["surface", "--family", family, "--l", str(l), "--format", fmt]) == 0
    assert len(surfaces) == 1
    assert len(qdefs) == 1


@pytest.mark.parametrize("family,target", [("X", 40), ("Y", 40)])
def test_witness_request_builds_one_model(monkeypatch, capsys, family, target):
    models = count_calls(monkeypatch, moduli.local_model)
    assert main(["witness", "--family", family, "--target-dim", str(target)]) == 0
    assert len(models) == 1
    assert f"l = {models[0][1]} " in capsys.readouterr().out


def count_built(monkeypatch, cls) -> list:
    """Count every instance of cls built, through its __new__."""
    built = []
    new = cls.__new__

    def counted(cls_, *args, **kwargs):
        obj = new(cls_, *args, **kwargs)
        built.append(obj)
        return obj

    monkeypatch.setattr(cls, "__new__", counted)
    return built


def test_weight_system_counter_sees_a_build(monkeypatch):
    systems = count_built(monkeypatch, torusgit.WeightSystem)
    ws = torusgit.WeightSystem.from_rows([[1, -1]])
    assert systems == [ws]


@pytest.mark.parametrize(
    "action,n_forms",
    [
        *(
            pytest.param(moduli.action_for(family, l), n, id=f"{family}_{l}")
            for family, l, n in [("X", 2, 1), ("X", 30, 2), ("Y", 3, 1), ("Y", 9, 2), ("Y", 31, 2)]
        ),
        # q = 3, 2, 2, 3 at its four points: the first q is not the
        # canonical one and the second is its inverse
        pytest.param(quotsurf.CyclicAction("P1xP1", 5, (1, 3)), 1, id="P1xP1_5_(1,3)"),
    ],
)
def test_build_surface_builds_each_distinct_form_once(monkeypatch, action, n_forms):
    # the points are read in integers: one NormalForm per distinct
    # canonical form and none on the way to it (parsing a germ and taking
    # canonical() would build two), and the records of one form share
    # its normal form and classification objects
    forms = count_built(monkeypatch, cqsing.NormalForm)
    points = quotsurf.build_surface(action).singular_locus
    distinct = {r.singularity for r in points}
    assert len(forms) == len(distinct) == n_forms
    assert set(forms) == distinct
    first = {}
    for r in points:
        s, c = first.setdefault(r.singularity, (r.singularity, r.classification))
        assert r.singularity is s and r.classification is c


# an order of the same family whose deformation directions form the same
# set, with other counts
SAME_DIRECTIONS = {("X", 2): 4, ("X", 30): 32, ("Y", 3): 9, ("Y", 9): 3, ("Y", 31): 5}
# the distinct direction sets a cold model ranks: the cut keeps every
# direction of these orders but Y_31, one set to rank, and none of Y_31,
# which ranks its one direction and the empty set
RANKED = {("X", 2): 1, ("X", 30): 1, ("Y", 3): 1, ("Y", 9): 1, ("Y", 31): 2}


@pytest.mark.parametrize("family,l", [("X", 2), ("X", 30), ("Y", 3), ("Y", 9), ("Y", 31)])
def test_local_model_runs_one_support_cut(monkeypatch, cold_torusgit, family, l):
    # one cut and one rank per distinct set; a second order with the same
    # direction set reads the cut and the ranks from the cache
    n_ranked = RANKED[family, l]
    ranks = count_calls(monkeypatch, torusgit.integer_matrix_rank)
    dims = count_calls(monkeypatch, torusgit._quotient_dim)
    systems = count_built(monkeypatch, torusgit.WeightSystem)
    first = moduli.local_model(family, l)
    assert (cut_misses(), len(ranks), len(dims)) == (1, n_ranked, 1)
    second = moduli.local_model(family, SAME_DIRECTIONS[family, l])
    assert (cut_misses(), len(ranks), len(dims)) == (1, n_ranked, 2)
    assert first.qdef_dim != second.qdef_dim
    assert systems == []


@pytest.mark.parametrize("extra", [[], ["--support", "1,3"], ["--oracle-cap", "3"]])
def test_git_request_runs_one_support_cut(monkeypatch, capsys, cold_torusgit, extra):
    dims = count_calls(monkeypatch, torusgit.quotient_dim)
    kernels = count_calls(monkeypatch, torusgit.kernel_rank)
    argv = ["git", "--weights=1,-1,2,0;0,1,-1,1", *extra, "--format", "json"]
    assert main(argv) == 0
    assert cut_misses() == 1
    assert len(dims) == len(kernels) == 1


def singular_locus(family: str, l: int) -> tuple:
    return quotsurf.build_surface(moduli.action_for(family, l)).singular_locus


@pytest.mark.parametrize("family,l", [("X", 30), ("Y", 31)])
def test_local_model_classifies_each_point_once(monkeypatch, family, l):
    # no point is classified twice: the 4 points of X_30 and the 3 of
    # Y_31 hold 2 distinct forms, and each form is classified once
    points = singular_locus(family, l)
    forms = {r.singularity for r in points}
    classified = count_calls(monkeypatch, cqsing.classify)
    moduli.local_model(family, l)
    assert len(classified) == len(forms) == 2 < len(points)
    assert {args[0] for args in classified} == forms


@pytest.mark.parametrize("family,l", [("X", 2), ("X", 30), ("Y", 3), ("Y", 31)])
def test_local_model_walks_the_singular_locus_once(monkeypatch, family, l):
    # the surface's constructor classifies each distinct form once, and
    # the one walk of evaluate_model reads the classifications the points
    # hold: it classifies nothing, and the walk of the deformation space
    # is not run
    surface = quotsurf.build_surface(moduli.action_for(family, l))
    forms = {r.singularity for r in surface.singular_locus}
    classified = count_calls(monkeypatch, cqsing.classify)
    qdefs = count_calls(monkeypatch, quotsurf.assemble_qdef)
    moduli.evaluate_model(surface)
    assert classified == qdefs == []
    moduli.local_model(family, l)
    assert len(classified) == len(forms) < len(surface.singular_locus)
    assert {args[0] for args in classified} == forms
    assert qdefs == []


@pytest.mark.parametrize(
    "family,l", [("X", 2), ("X", 30), ("Y", 3), ("Y", 31), ("X", 10**9 + 7)]
)
def test_local_model_builds_no_surface_record(monkeypatch, family, l):
    # the model is read off the action: the walk takes the points raw
    # from quotsurf._points, so neither a surface nor a point record is
    # built, and each distinct form is still built and classified once
    forms = {r.singularity for r in singular_locus(family, l)}
    surfaces = count_built(monkeypatch, quotsurf.SurfaceModel)
    records = count_built(monkeypatch, quotsurf.FixedPointRecord)
    built = count_built(monkeypatch, cqsing.NormalForm)
    classified = count_calls(monkeypatch, cqsing.classify)
    moduli.local_model(family, l)
    assert surfaces == records == []
    assert len(built) == len(classified) == len(forms)
    assert set(built) == {args[0] for args in classified} == forms


def test_table_and_witness_call_local_model_once_per_order(monkeypatch):
    # one local_model call per order, in order, is the benchmark's op:
    # table and the witness call it through the module global
    models = count_calls(monkeypatch, moduli.local_model)
    moduli.table("X", 2, 40)
    assert models == [("X", l) for l in range(2, 41)]
    models.clear()
    moduli.table("Y", 3, 41)
    assert models == [("Y", l) for l in range(3, 42, 2)]
    models.clear()
    l = moduli.unboundedness_witness("Y", 100)
    assert models == [("Y", l)]


@pytest.mark.parametrize("family,l", [("X", 30), ("Y", 31)])
def test_local_model_walks_each_chain_once_in_integers(monkeypatch, family, l):
    # one integer chain walk per distinct form, and no Fraction per form:
    # min_discrepancy is not called
    forms = {r.singularity for r in singular_locus(family, l)}
    walks = count_calls(monkeypatch, cqsing._min_log_numerator)
    fractions = count_calls(monkeypatch, cqsing.min_discrepancy)
    moduli.local_model(family, l)
    assert len(walks) == len(forms) == 2
    assert {(n, q) for n, q in walks} == forms
    assert fractions == []


@pytest.mark.parametrize("family,l", [("X", 2), ("X", 30), ("Y", 3), ("Y", 9), ("Y", 31)])
def test_local_model_builds_no_characters(monkeypatch, family, l):
    qdefs = count_calls(monkeypatch, quotsurf.assemble_qdef)
    moduli.local_model(family, l)
    assert qdefs == []


@pytest.mark.parametrize("l", [2, 3, 4, 30, 401])
def test_x_local_model_ranks_once(monkeypatch, cold_torusgit, l):
    # the support cut keeps every direction of X_l, so the kept set and
    # the set of all the directions are one cache entry, and the table up
    # to l ranks and cuts once per distinct direction set of its orders
    sets = set()
    for k in range(2, l + 1):
        surface = quotsurf.build_surface(moduli.action_for("X", k))
        sets.add(frozenset(qdef_directions(surface)[1]))
    assert len(sets) == (1 if l == 2 else 2)
    ranks = count_calls(monkeypatch, torusgit.integer_matrix_rank)
    moduli.table("X", 2, l)
    assert len(ranks) == cut_misses() == len(sets)


@pytest.mark.parametrize("rows", [[[1, -1]], [[1, 0, -1], [0, 1, 0]], [[1, 2, 0]]])
def test_certificate_reads_the_warm_support_cut(monkeypatch, rows):
    # a nonempty polystable support answers "no certificate"; with the
    # cut warm, no linear program runs
    ws = torusgit.WeightSystem.from_rows(rows)
    assert torusgit.largest_polystable_support(ws).support
    lps = count_calls(monkeypatch, torusgit._simplex)
    assert torusgit.open_half_space_certificate(ws) is None
    assert lps == []


def test_certificates_of_the_isolated_golden_systems_run_few_lps(monkeypatch):
    # with the cut warm, each level below the last runs at most one LP
    # per end of its range, an end a known ray shows unbounded runs
    # none, and the first unique optimum ends the loop: 110 LPs on these
    # 75 systems, against 162 without the rays and 318 for two cold LPs
    # a level
    systems = {
        name: ws
        for name, ws, ops in golden_entries()
        if any(
            op["query"] == "open_half_space_certificate" and not op["known_failure"]
            for op in ops
        )
    }
    isolated = {
        name: ws
        for name, ws in systems.items()
        if not torusgit.largest_polystable_support(ws).support
    }
    assert len(isolated) == 75
    lps = count_calls(monkeypatch, torusgit._simplex)
    per_system = {}
    for name, ws in isolated.items():
        before = len(lps)
        assert torusgit.open_half_space_certificate(ws) is not None
        per_system[name] = len(lps) - before
    assert len(lps) <= 115
    # k4_140 runs one infeasible LP a level: the witness, the ray of the
    # first LP and their combination decide the other end of each range;
    # k5_143's witness shows lambda_0 unbounded below and the
    # combination lambda_1, so only the two maxima run
    assert per_system["k4_140"] == 3
    assert per_system["k5_143"] == 2


# the benchmark's git queries, by the name golden.json records
GIT_QUERIES = {
    "quotient_dim": lambda ws, arg: torusgit.quotient_dim(ws),
    "kernel_rank": lambda ws, arg: torusgit.kernel_rank(ws),
    "largest_polystable_support": lambda ws, arg: torusgit.largest_polystable_support(ws),
    "is_polystable": lambda ws, arg: torusgit.is_polystable(ws, torusgit.SupportPoint.of(arg)),
    "destabilizing_limit": lambda ws, arg: torusgit.destabilizing_limit(
        ws, torusgit.SupportPoint.of(arg)
    ),
    "open_half_space_certificate": lambda ws, arg: torusgit.open_half_space_certificate(ws),
    "in_rational_cone": lambda ws, arg: torusgit.in_rational_cone(arg, ws.columns),
}


def test_golden_git_ops_answer_half_the_witnesses_without_an_lp(monkeypatch):
    # each golden system cold, its regular ops in recorded order: the
    # direction sum decides 171 of the 328 witnesses that each ran an LP
    # before, and the certificates and cone tests run the LPs they ran
    simplex = torusgit._simplex
    callers = Counter()

    def counted(*args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return simplex(*args, **kwargs)

    monkeypatch.setattr(torusgit, "_simplex", counted)
    for _, ws, ops in golden_entries():
        clear_torusgit()
        for op in ops:
            if not op["known_failure"]:
                GIT_QUERIES[op["query"]](ws, op["arg"])
    assert callers["_destabilizer_witness"] <= 160
    assert callers["open_half_space_certificate"] == 110
    assert callers["in_rational_cone"] == 155


# the k5 systems of the git pool whose ops run kernel_rank and no
# quotient_dim
KERNEL_FIRST = ("k5_146", "k5_149", "k5_158", "k5_159", "k5_160")


@pytest.fixture(scope="module")
def kernel_first():
    return {name: ws for name, ws, _ in golden_entries() if name in KERNEL_FIRST}


@pytest.mark.parametrize("name", KERNEL_FIRST)
def test_cold_kernel_rank_runs_no_lp(monkeypatch, cold_torusgit, kernel_first, name):
    # kernel_rank reads the rank of all the directions and never the cut
    lps = count_calls(monkeypatch, torusgit._simplex)
    ranks = count_calls(monkeypatch, torusgit.integer_matrix_rank)
    assert torusgit.kernel_rank(kernel_first[name]) == 0
    assert lps == [] and cut_misses() == 0
    assert len(ranks) == 1


@pytest.mark.parametrize("name", KERNEL_FIRST)
def test_direction_counts_read_what_quotient_dim_and_kernel_rank_cached(
    monkeypatch, cold_torusgit, kernel_first, name
):
    # the local model's reads of a direction multiset hit the cut and
    # the ranks that the matrix queries cached for the same set
    ws = kernel_first[name]
    qd, kr = torusgit.quotient_dim(ws), torusgit.kernel_rank(ws)
    lps = count_calls(monkeypatch, torusgit._simplex)
    ranks = count_calls(monkeypatch, torusgit.integer_matrix_rank)
    counts = Counter(ws._directions)
    zeros = counts.pop(None, 0)
    dirs = frozenset(counts)
    assert torusgit._quotient_dim(counts, zeros, dirs) == qd
    assert ws.rank - torusgit._direction_rank(dirs) == kr
    assert lps == [] and ranks == []


def test_git_answers_do_not_depend_on_the_call_order():
    # each order of quotient_dim, kernel_rank and the support cut, on
    # caches cleared first, gives the answers each query gives alone and
    # cold
    queries = {
        "quotient_dim": torusgit.quotient_dim,
        "kernel_rank": torusgit.kernel_rank,
        "largest_polystable_support": torusgit.largest_polystable_support,
    }
    rng = random.Random(20261019)
    for _ in range(150):
        k = rng.randint(1, 4)
        cols = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(1, 6))]
        cols += [[0] * k for _ in range(rng.choice((0, 0, 1)))]
        ws = torusgit.WeightSystem.from_rows([list(row) for row in zip(*cols)])
        cold = {}
        for name, query in queries.items():
            clear_torusgit()
            cold[name] = query(ws)
        for order in itertools.permutations(queries):
            clear_torusgit()
            assert {name: queries[name](ws) for name in order} == cold, ws.matrix


def leaves(data):
    if isinstance(data, dict):
        data = data.values()
    elif not isinstance(data, (list, tuple)):
        yield data
        return
    for item in data:
        yield from leaves(item)


@pytest.mark.parametrize("fmt,rationals", [("table", 0), ("json", 6)])
def test_sing_builds_json_rationals_only_for_json(monkeypatch, capsys, fmt, rationals):
    # the JSON writer renders every Fraction it is given as a rational;
    # table mode calls no writer
    chains = count_calls(monkeypatch, cqsing.hirzebruch_jung)
    payloads = count_calls(monkeypatch, cli._dumps)
    assert main(["sing", "1/25(1,14)", "--format", fmt]) == 0
    assert len(chains) == 1
    rendered = [x for args in payloads for x in leaves(args) if isinstance(x, Fraction)]
    assert len(rendered) == rationals


@pytest.mark.parametrize("family,l", [("X", 30), ("Y", 31)])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_surface_request_classifies_each_point_once(monkeypatch, capsys, family, l, fmt):
    # the deformation characters read the classification each record
    # holds, and the records of one form share one classification
    points = singular_locus(family, l)
    shared = {r.singularity: r.classification for r in points}
    assert all(r.classification is shared[r.singularity] for r in points)
    classified = count_calls(monkeypatch, cqsing.classify)
    assert main(["surface", "--family", family, "--l", str(l), "--format", fmt]) == 0
    assert len(classified) == len(shared) == 2
