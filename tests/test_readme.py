"""The python block under README's ``## Library`` heading runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```", start)]
    assert "import burnside" in code
    exec(compile(code, "README.md", "exec"), {})
