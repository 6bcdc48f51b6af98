"""Byte-identical replay of the recorded golden corpus.

perfbench/golden.json holds the digest of every CLI request of the
benchmark pool (over [exit status, stdout]), of every local model of
table X 2..400, table Y 3..401 and the two witnesses at 10000, and of
every regular torusgit query of the git pool (over the query's JSON
value). The replay itself is tools/golden_replay.py, which runs without
pytest; these tests call it per request and per query, so the corpus
is rebuilt in one place. The git pool's known failures, the queries that
ran out of time or memory when it was recorded, have no digest and are
skipped.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden_replay.py"
_SPEC = importlib.util.spec_from_file_location("golden_replay", _PATH)
golden_replay = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_replay)

GOLDEN = golden_replay.load()
CLI_REQUESTS = golden_replay.cli_requests(GOLDEN)
GIT_OPS = golden_replay.git_ops(GOLDEN)


@pytest.mark.parametrize("request_", CLI_REQUESTS, ids=lambda r: r["id"])
def test_cli_request_matches_golden(request_):
    assert golden_replay.cli_digest(request_["argv"]) == request_["digest"]


def test_golden_corpus_size():
    assert len(CLI_REQUESTS) == 80
    assert len(GOLDEN["sweep"]["ops"]) == 601


def test_sweep_models_match_golden():
    got = golden_replay.sweep_digests(GOLDEN)
    for key, target in GOLDEN["sweep"]["witnesses"].items():
        assert f"{key.split(':')[0]}_{target}" in got, key
    assert got == GOLDEN["sweep"]["ops"]


def test_golden_git_pool_size():
    regular = [op for _, op in GIT_OPS if not op["known_failure"]]
    assert len(regular) == 1103
    assert len(GIT_OPS) - len(regular) == 16
    assert {op["query"] for op in regular} == set(golden_replay.GIT_QUERIES)


@pytest.mark.parametrize("query", golden_replay.GIT_QUERIES)
def test_git_queries_match_golden(query):
    replayed = 0
    for rows, op in GIT_OPS:
        if op["query"] != query or op["known_failure"]:
            continue
        assert golden_replay.git_digest(rows, op) == op["digest"], (rows, op)
        replayed += 1
    assert replayed > 150


def test_replay_reports_a_changed_digest(tmp_path, capsys):
    # the command line form exits 1 and names what differs
    golden = golden_replay.load()
    request = golden["cli"]["sing"]["entries"][0]
    request["digest"] = "0" * 16
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    assert golden_replay.main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "cli  80 replayed  1 mismatched" in out
    assert f"  {request['id']}" in out
    assert "sweep  601 replayed  0 mismatched" in out
