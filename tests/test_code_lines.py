"""``tools/code_lines.py``, the code-line measure of the package."""

import ast
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# docstrings of a module, a class, a method and an async function, comments
# alone on a line and after code, blank lines, and a multi-line string that
# is not a docstring (its blank line is not code)
MODULE_A = '''"""Module docstring
over two lines."""

import os  # a comment after code


# a comment alone on its line
class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """not a

docstring"""
        return text, os.sep


async def run():
    """Async docstring."""
    return 1
'''
MODULE_A_LINES = 8  # import, class, def, two string lines, return, async def, return

MODULE_B = '''x = 1

    # an indented comment
y = [
    2,
]
'''
MODULE_B_LINES = 4


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_one_module(tool):
    assert tool.code_lines(MODULE_A) == MODULE_A_LINES
    assert tool.code_lines(MODULE_B) == MODULE_B_LINES


def test_docstring_lines_span_each_docstring(tool):
    # the module's (1-2), the class's (9), the method's (12-13), run's (21)
    assert sorted(tool.docstring_lines(ast.parse(MODULE_A))) == [1, 2, 9, 12, 13, 21]


def test_counts_each_module_and_the_total(tool, tmp_path, capsys):
    package = tmp_path / "package"
    package.mkdir()
    (package / "a.py").write_text(MODULE_A, encoding="utf-8")
    (package / "b.py").write_text(MODULE_B, encoding="utf-8")
    (package / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert tool.main(["code_lines.py", str(package)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{MODULE_A_LINES:6d}  a.py",
        f"{MODULE_B_LINES:6d}  b.py",
        f"{MODULE_A_LINES + MODULE_B_LINES:6d}  total",
    ]
