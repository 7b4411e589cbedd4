"""Every fenced ``python`` block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (README line number of the block's first line, the block's source), in README order.
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m[1])
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
]


def test_readme_has_python_examples():
    assert BLOCKS


# Ids are ordinals, so rewrapping README prose above a block keeps its test id.
@pytest.mark.parametrize(
    "line, block", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)]
)
def test_readme_example_runs(line, block):
    # Padded with blank lines so a traceback points at the README line.
    source = "\n" * (line - 1) + block
    exec(compile(source, str(README), "exec"), {})
