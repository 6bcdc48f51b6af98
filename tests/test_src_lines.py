"""Tests for tools/src_lines.py, the code line counter of src/."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
import os


class Record:
    """A class docstring."""

    def text(self):
        """A function docstring
        over two lines."""
        value = """a string that is
not a docstring"""
        return value  # a trailing comment


async def wait():
    """An async function docstring."""
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, class, def, the two lines of the string, return, async def
    assert src_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    src_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.split("\n") == [
        "pkg/a.py  7", "pkg/b.py  1", "total  8", ""
    ]
