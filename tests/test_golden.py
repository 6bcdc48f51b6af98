"""Byte-identical replay of the recorded golden corpus.

perfbench/golden.json holds the digest of every CLI request of the
benchmark pool (over [exit status, stdout]) and of every local model of
table X 2..400, table Y 3..401 and the two witnesses at 10000. Each is
rebuilt here in-process and compared; the file itself is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from kmoduli.cli import main
from kmoduli.moduli import table, witness_model

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)
CLI_REQUESTS = [
    entry for group in GOLDEN["cli"].values() for entry in group["entries"]
]


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
