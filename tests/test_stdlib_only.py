"""The package imports nothing outside the standard library, nor do its
tests beyond pytest, and its command line starts without the heavier
parts of it: importing the package loads no layer, and each subcommand
loads only the layers it runs."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from capped import run_capped

import kmoduli

ALLOWED = set(sys.stdlib_module_names) | {"kmoduli", "__future__"}


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_are_stdlib_only():
    sources = sorted(Path(kmoduli.__file__).parent.glob("*.py"))
    assert sources
    outside = {
        (path.name, name)
        for path in sources
        for name in imported_modules(path)
        if name not in ALLOWED
    }
    assert not outside


def test_tests_import_only_stdlib_pytest_and_kmoduli():
    tests = sorted(Path(__file__).parent.glob("*.py"))
    helpers = {path.stem for path in tests}
    outside = {
        (path.name, name)
        for path in tests
        for name in imported_modules(path)
        if name not in ALLOWED | helpers | {"pytest"}
    }
    assert not outside


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect: together about 11 ms of every request's start-up
    src = str(Path(kmoduli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # the difference of sys.modules around the import, as the
    # interpreter's start-up may load either module first
    probe = (
        "import sys; before = set(sys.modules); import kmoduli.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def loaded_layers(probe: str) -> list[str]:
    """The kmoduli modules a fresh interpreter holds after running probe."""
    proc = run_capped(
        ["-c", f"import sys\n{probe}\nprint(sorted(m for m in sys.modules if 'kmoduli' in m))"],
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_layer():
    assert loaded_layers("import kmoduli") == ["kmoduli"]


def test_every_public_name_resolves():
    probe = """
import kmoduli
missing = [n for n in kmoduli.__all__ if not getattr(kmoduli, n).__module__.startswith('kmoduli.')]
names = {}
exec('from kmoduli import *', names)
assert not missing, missing
assert set(kmoduli.__all__) <= set(names), set(kmoduli.__all__) - set(names)
assert set(kmoduli.__all__) <= set(dir(kmoduli))
assert kmoduli.moduli.local_model is kmoduli.local_model
"""
    assert loaded_layers(probe) == [
        "kmoduli", "kmoduli.cqsing", "kmoduli.moduli", "kmoduli.quotsurf", "kmoduli.torusgit"
    ]


def test_unknown_attribute_raises_attribute_error():
    probe = """
import kmoduli
try:
    kmoduli.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("no AttributeError")
assert not hasattr(kmoduli, "cli")
"""
    assert loaded_layers(probe) == ["kmoduli"]


@pytest.mark.parametrize("argv,layers", [
    (["sing", "1/25(1,14)"], ["kmoduli.cqsing"]),
    (["sing", "1/25(1,14)", "--format", "json"], ["kmoduli.cqsing"]),
    (["git", "--weights=1,-1,2;0,1,-1", "--support", "1,2"], ["kmoduli.torusgit"]),
    (["git", "--weights", "[[1,-1,2]]", "--format", "json"], ["kmoduli.torusgit"]),
    (["surface", "--family", "X", "--l", "5"],
     ["kmoduli.cqsing", "kmoduli.moduli", "kmoduli.quotsurf", "kmoduli.torusgit"]),
    (["--help"], []),
])
def test_cli_request_loads_only_its_layers(argv, layers):
    # -X importtime lists every module imported while the request runs;
    # a RuntimeWarning (kmoduli.cli imported before -m runs it) is an error
    proc = run_capped(
        ["-W", "error::RuntimeWarning", "-X", "importtime", "-m", "kmoduli.cli", *argv],
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert sorted(m for m in imported if "kmoduli" in m) == ["kmoduli", *layers]


def readme_public_api():
    """The layer -> names lists of README's "Public API" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for item in section.split("\n* ")[1:]:
        layer, names = item.split(":", 1)
        listed[layer.strip("`").removeprefix("kmoduli.")] = re.findall(r"`(\w+)`", names)
    return listed


def test_readme_public_api_is_all():
    listed = readme_public_api()
    assert sorted(n for names in listed.values() for n in names) == kmoduli.__all__
    assert listed == {layer: list(names) for layer, names in kmoduli._EXPORTS.items()}
