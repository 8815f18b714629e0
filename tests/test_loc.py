"""``tools/loc.py``: a code line holds a token that is neither a comment
nor part of a docstring."""

import importlib.util
import pathlib

_spec = importlib.util.spec_from_file_location(
    "loc", pathlib.Path(__file__).resolve().parents[1] / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module
docstring."""

# a comment
x = 1  # code with a comment


class C:
    """Class docstring."""

    def f(self):
        """One line."""
        s = """a string
        that is no docstring"""
        return s
'''


def test_count_skips_blank_comment_and_docstring_lines():
    # Code lines: x = 1, class C, def f, the two lines of s, return s.
    assert loc.count(SOURCE) == (15, 6)


def test_main_prints_files_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("y = 2\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["15", "6", str(tmp_path / "a.py")], ["1", "1", str(tmp_path / "b.py")],
                    ["16", "7", "total"]]
