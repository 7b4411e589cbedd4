"""Every fenced ``python`` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# README line number of each block's first line -> the block's source.
BLOCKS = {
    TEXT.count("\n", 0, m.start(1)) + 1: m[1]
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
}


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("line", list(BLOCKS))
def test_readme_example_runs(line):
    # Padded with blank lines so a traceback points at the README line.
    source = "\n" * (line - 1) + BLOCKS[line]
    exec(compile(source, str(README), "exec"), {})
