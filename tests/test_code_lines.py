"""tools/code_lines.py: the code-line count leaves out docstrings, comments
and blank lines, and counts each line of a multi-line statement."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(HERE, os.pardir, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment leaves its line code


# a comment line
def join(x):
    """A function docstring."""

    return os.path.join(
        x,
        "y",
    )
'''


def test_code_lines_counts_code_not_prose():
    # import, def, and the four lines of the return statement
    assert code_lines.code_lines(SOURCE) == 6


def test_main_prints_both_counts_per_file_and_in_total(tmp_path, capsys):
    src = tmp_path / "src" / "compresslab"
    src.mkdir(parents=True)
    (src / "a.py").write_text(SOURCE)
    (src / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["14", "6", os.path.join("src", "compresslab", "a.py")],
                    ["2", "1", os.path.join("src", "compresslab", "b.py")],
                    ["16", "7", "total"]]


def test_main_without_sources_exits_2(tmp_path, capsys):
    assert code_lines.main([str(tmp_path)]) == 2
    assert "no src/compresslab/*.py" in capsys.readouterr().err
