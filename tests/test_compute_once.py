"""Each request computes every surface, deformation space, model and GIT
invariant once: call counts taken by wrapping the library's functions."""

import pytest

from kmoduli import cli, cqsing, moduli, quotsurf, torusgit
from kmoduli.cli import main

MODULES = (cqsing, quotsurf, torusgit, moduli, cli)


def count_calls(monkeypatch, fn) -> list:
    """Wrap fn under every module-level name bound to it; return the list
    the wrapper appends one entry to per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in MODULES:
        for name, obj in list(vars(mod).items()):
            if obj is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls


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


@pytest.mark.parametrize("family,l", [("X", 2), ("X", 30), ("Y", 3), ("Y", 9), ("Y", 31)])
def test_local_model_runs_one_support_cut(monkeypatch, family, l):
    cuts = count_calls(monkeypatch, torusgit.largest_polystable_support)
    ranks = count_calls(monkeypatch, torusgit.effective_rank)
    moduli.local_model(family, l)
    assert len(cuts) == 1
    assert len(ranks) == 1


@pytest.mark.parametrize("extra", [[], ["--support", "1,3"], ["--oracle-cap", "3"]])
def test_git_request_runs_one_support_cut(monkeypatch, capsys, extra):
    cuts = count_calls(monkeypatch, torusgit.largest_polystable_support)
    ranks = count_calls(monkeypatch, torusgit.effective_rank)
    argv = ["git", "--weights=1,-1,2,0;0,1,-1,1", *extra, "--format", "json"]
    assert main(argv) == 0
    assert len(cuts) == 1
    assert len(ranks) == 1
