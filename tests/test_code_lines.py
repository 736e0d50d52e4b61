"""tools/code_lines.py: code lines without blanks, comments and docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def f(a,
      b):
    """Function docstring."""
    text = """not a docstring:
    an assigned string"""
    return (a +
            b)
'''


def test_counts_code_lines_only():
    # import, def over two lines, the assigned string's two lines, and the
    # return over two lines
    assert _load_tool().code_lines(SOURCE) == 7


def test_main_prints_each_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n', encoding="utf-8")
    assert _load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["    1 a.py", "    2 b.py", "    3 total", ""]
