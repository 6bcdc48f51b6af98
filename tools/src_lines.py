"""Count the code lines of the Python modules under a directory.

A code line is any line that is not blank, not a comment line and not
part of a module, class or function docstring (found with ast); any
other string, multi-line or not, counts. Prints each module's count
and the total.

Usage: python tools/src_lines.py [directory]   (default: src)
"""

import ast
import sys
from pathlib import Path

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            skipped.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if number not in skipped and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.relative_to(root)}  {count}")
    print(f"total  {total}")


if __name__ == "__main__":
    main(sys.argv[1:])
