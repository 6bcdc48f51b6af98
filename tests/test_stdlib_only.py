"""The package imports nothing outside the standard library, and its
command line starts without the heavier parts of it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # dataclasses pulls in inspect: together about 11 ms of every request's start-up
    src = str(Path(kmoduli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys, kmoduli.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
