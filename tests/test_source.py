"""Source hygiene: every name a library module imports is used in that module.

There is no linter in the toolchain, so this test stands in for the one rule
that has bitten the sources: an import left behind after its last use.
``__init__.py`` is skipped because its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parents[1] / "src" / "swapornot").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport sys as system\nfrom a import b, c\nprint(c, system.argv)\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_every_import_is_used(path):
    assert [f"{path.stem}.{name}" for name in unused_imports(path.read_text())] == []
