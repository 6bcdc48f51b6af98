"""Byte-identical replay of the recorded golden corpus.

perfbench/golden.json holds the digest of every CLI request of the
benchmark pool (over [exit status, stdout]), of every local model of
table X 2..400, table Y 3..401 and the two witnesses at 10000, and of
every regular torusgit query of the git pool (over the query's JSON
value). Each is rebuilt here in-process and compared; the file itself
is only read. The git pool's known failures, the queries that ran out
of time or memory when it was recorded, have no digest and are skipped.
"""

import hashlib
import json
from pathlib import Path

import pytest

from kmoduli import torusgit
from kmoduli.cli import main
from kmoduli.moduli import table, witness_model
from kmoduli.torusgit import SupportPoint

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)
CLI_REQUESTS = [
    entry for group in GOLDEN["cli"].values() for entry in group["entries"]
]
GIT_OPS = [
    (system["rows"], op)
    for group in GOLDEN["git"].values()
    for system in group["entries"]
    for op in system["ops"]
]


def _limit_json(result):
    if result is None:
        return None
    lam, limit = result
    return {"lambda": list(lam), "limit": limit.to_json_dict()}


def _certificate_json(result):
    return None if result is None else [[x.numerator, x.denominator] for x in result]


# query -> the JSON value of its answer, in the form the digests were taken of
GIT_QUERIES = {
    "quotient_dim": lambda ws, arg: torusgit.quotient_dim(ws),
    "kernel_rank": lambda ws, arg: torusgit.kernel_rank(ws),
    "largest_polystable_support": (
        lambda ws, arg: torusgit.largest_polystable_support(ws).to_json_dict()
    ),
    "is_polystable": lambda ws, arg: torusgit.is_polystable(ws, SupportPoint.of(arg)),
    "destabilizing_limit": (
        lambda ws, arg: _limit_json(torusgit.destabilizing_limit(ws, SupportPoint.of(arg)))
    ),
    "open_half_space_certificate": (
        lambda ws, arg: _certificate_json(torusgit.open_half_space_certificate(ws))
    ),
    "in_rational_cone": lambda ws, arg: torusgit.in_rational_cone(arg, ws.columns),
}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("request_", CLI_REQUESTS, ids=lambda r: r["id"])
def test_cli_request_matches_golden(request_, capsys):
    rc = main(request_["argv"])
    assert digest([rc, capsys.readouterr().out]) == request_["digest"]


def test_golden_corpus_size():
    assert len(CLI_REQUESTS) == 80
    assert len(GOLDEN["sweep"]["ops"]) == 601


def test_sweep_models_match_golden():
    models = table("X", 2, 400) + table("Y", 3, 401)
    for key, target in GOLDEN["sweep"]["witnesses"].items():
        family, target_dim = key.split(":")
        model = witness_model(family, int(target_dim))
        assert model.l == target
        models.append(model)
    got = {m.surface_id: digest(m.to_json_dict()) for m in models}
    assert got == GOLDEN["sweep"]["ops"]


def test_golden_git_pool_size():
    regular = [op for _, op in GIT_OPS if not op["known_failure"]]
    assert len(regular) == 1103
    assert len(GIT_OPS) - len(regular) == 16
    assert {op["query"] for op in regular} == set(GIT_QUERIES)


@pytest.mark.parametrize("query", GIT_QUERIES)
def test_git_queries_match_golden(query):
    answer = GIT_QUERIES[query]
    replayed = 0
    for rows, op in GIT_OPS:
        if op["query"] != query or op["known_failure"]:
            continue
        got = answer(torusgit.WeightSystem.from_rows(rows), op["arg"])
        assert digest(got) == op["digest"], (rows, op)
        replayed += 1
    assert replayed > 150
