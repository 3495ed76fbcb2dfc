"""tools/code_lines.py, the code-size measure that ROADMAP.md quotes."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# the comments on the right say which lines count
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment: 1

# a comment line


class A:  # 2
    """Class docstring."""

    x = 1  # 3

    def f(self, a):  # 4
        """Function
        docstring.
        """
        # a comment inside the body
        return os.path.join(  # 5
            a,  # 6
            "b",  # 7
        )  # 8


def g():  # 9
    s = """a string that is  # 10
    not a docstring"""  # 11
    return s  # 12
'''


def test_code_lines_counts_code_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.code_lines(path) == 12


def test_main_prints_each_file_and_their_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = [\n    x,\n]\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["12", "a.py"], ["4", "b.py"], ["16", "total"]]
