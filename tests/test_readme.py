"""README's code blocks run as written."""

import io
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from burnside import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    assert "import burnside" in code
    exec(compile(code, "README.md", "exec"), {})


def _command_lines():
    section = README.read_text().split("## Command line", 1)[1]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start:section.index("```", start)]
    return [line for line in block.splitlines() if line.startswith("burnside ")]


def test_readme_has_command_lines():
    assert len(_command_lines()) >= 5


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_line_pastes_into_a_shell(line):
    # a bare ( ) or ; is shell syntax, so a spec holding one must be quoted
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    assert not {"(", ")", ";"} & set(lexer), line
    with redirect_stdout(io.StringIO()):
        assert cli.main(shlex.split(line)[1:]) == 0, line
