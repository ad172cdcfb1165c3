"""The README's Library example runs as written, so an API change that
leaves it stale fails here."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The one ```python block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_library_example_runs(capsys):
    exec(compile(library_block(), str(README), "exec"), {})
    assert "verdict: not-5-periodic" in capsys.readouterr().out
