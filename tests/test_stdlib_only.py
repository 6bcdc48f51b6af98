"""The package imports nothing outside the standard library."""

import ast
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
