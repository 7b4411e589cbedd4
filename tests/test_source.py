"""Source hygiene: every name a library module imports is used in that module,
every function and class the library defines is referenced somewhere, every
module-level one outside ``swapornot.__all__`` and every method of an exported
class has a caller outside the tests, every integer type test is the one in
``errors.check_int``, no library module imports mpmath, the PRF message header
is spelled once, the analysis modules (``bounds``, ``mixing``, ``cli``) import
no crypto module when they load, only ``prf.PrfKey`` (the one object holding a
keyed hasher) defines a pickle hook, no subscript star-unpacks into a tuple
key without parentheses of its own (Python 3.11 syntax under
``requires-python >= 3.10``), and every boundary the benchmark's layer tracer
rebinds still exists.

There is no linter in the toolchain, so these tests stand in for the two rules
that have bitten the sources: an import left behind after its last use, and a
definition left behind after its last caller.  A definition counts as
referenced when its name appears as a name, an attribute or an imported name
in any Python file under ``src/``, ``tests/`` or ``bench/``; dunders, such as
a module-level ``__getattr__`` (PEP 562), are called by the language and are
exempt.  A module-level definition that is not public must also be
referenced from ``src/`` or ``bench/`` outside their tests, so that code only
the tests call does not stay in the library.  So must a method or property of
an exported class, as an attribute or an imported name: a bare name may be a
field or a parameter of the same spelling.  The few methods only the
acceptance suite calls are listed by class in ``PUBLIC_METHODS``.

The tracer (``bench/layertrace.py``) skips a boundary that is gone from the
library, so its metrics would silently read 0; the boundary tests catch a
refactor that renames one or stops calling through it.
"""

import ast
import importlib
import types
from pathlib import Path
from typing import Iterator

import pytest

import swapornot
from swapornot import FormatSpec, PrfKey, fpe

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "swapornot").glob("*.py"))
# Read only: nothing is written under bench/.
REFERRERS = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
CALLERS = [path for path in REFERRERS if "tests" not in path.relative_to(ROOT).parts]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
# Public API that the library never calls itself: the acceptance suite does.  Each
# is named with its class, since the suite also reads fields, such as
# ``RoundStep.canonical``, that a bare method name cannot be told apart from.
PUBLIC_METHODS = {
    "Domain.xor_bits",
    "ProjectedDistribution.stationary",
    "RoundMaterial.ideal",
    "RoundMaterial.reversed",
    "ShuffleSample.material",
}


def load_layertrace() -> types.ModuleType:
    # Executed from its source text, so nothing is written under bench/.
    path = ROOT / "bench" / "layertrace.py"
    module = types.ModuleType("layertrace")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


BOUNDARIES = [(module, attr) for module, attr, _ in load_layertrace().BOUNDARIES]


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


@pytest.mark.parametrize("path", LIBRARY, ids=[path.stem for path in LIBRARY])
def test_every_import_is_used(path):
    assert [f"{path.stem}.{name}" for name in unused_imports(path.read_text())] == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(source: str) -> list[str]:
    names = [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, DEFINITIONS)]
    return [name for name in names if not is_dunder(name)]


def references(source: str) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def test_dead_definitions_are_found():
    library = (
        "class Used:\n    def called(self): ...\n    def dead(self): ...\n"
        "    def __len__(self): ...\n"
        "def imported(): ...\ndef passed(): ...\ndef unused(): ...\n"
    )
    user = "from lib import imported\nUsed().called()\nmap(passed, [])\n"
    used = references(library) | references(user)
    assert sorted(set(definitions(library)) - used) == ["dead", "unused"]


def test_every_definition_is_referenced():
    used = set().union(*(references(path.read_text()) for path in REFERRERS))
    dead = [
        f"{path.stem}.{name}"
        for path in LIBRARY
        for name in definitions(path.read_text())
        if name not in used
    ]
    assert dead == []


def module_definitions(source: str) -> list[str]:
    # A module-level __getattr__ or __dir__ (PEP 562) is called by the interpreter.
    nodes = ast.parse(source).body
    return [node.name for node in nodes if isinstance(node, DEFINITIONS) and not is_dunder(node.name)]


def test_module_definitions_are_found():
    source = (
        "def top(): ...\nclass Top:\n    def method(self): ...\n    class Inner: ...\n"
        "def __getattr__(name): ...\ndef _helper(): ...\n"
    )
    assert module_definitions(source) == ["top", "Top", "_helper"]


def test_every_private_definition_has_a_library_caller():
    # A test may exercise a helper, but may not be its only caller: what is
    # not public is reached from the library or the benchmark.
    used = set().union(*(references(path.read_text()) for path in CALLERS))
    test_only = [
        f"{path.stem}.{name}"
        for path in LIBRARY
        for name in module_definitions(path.read_text())
        if name not in swapornot.__all__ and name not in used
    ]
    assert test_only == []


def methods(source: str, classes) -> list[str]:
    """``Class.name`` for the methods and properties, dunders aside, of the named classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            items = [item for item in node.body if isinstance(item, FUNCTIONS)]
            found += [f"{node.name}.{item.name}" for item in items if not is_dunder(item.name)]
    return found


def attribute_references(source: str) -> set[str]:
    """The attribute and imported names a source uses: bare names do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def test_test_only_methods_are_found():
    # The field and the parameter spell the dead methods' names as bare names.
    library = (
        "class Step(NamedTuple):\n    canonical: int\n"
        "class Space:\n    @classmethod\n    def bits(cls, width): return width\n"
        "    @property\n    def width(self): ...\n    def canonical(self, x, y): ...\n"
        "    def partner(self, k, x): return self.check(k)\n    def check(self, x): ...\n"
        "    def __eq__(self, other): ...\n"
        "class Hidden:\n    def unused(self): ...\n"
    )
    user = "from lib import Space as S\nS.bits(3).partner(1, 2)\n"
    used = attribute_references(library) | attribute_references(user)
    found = methods(library, {"Step", "Space"})
    assert [name for name in found if name.partition(".")[2] not in used] == [
        "Space.width",
        "Space.canonical",
    ]


def test_every_exported_method_has_a_library_caller():
    used = set().union(*(attribute_references(path.read_text()) for path in CALLERS))
    test_only = [
        name
        for path in LIBRARY
        for name in methods(path.read_text(), swapornot.__all__)
        if name.partition(".")[2] not in used and name not in PUBLIC_METHODS
    ]
    assert test_only == []


def test_public_methods_exist_and_the_acceptance_suite_calls_them():
    defined = {name for path in LIBRARY for name in methods(path.read_text(), swapornot.__all__)}
    called = attribute_references(ACCEPTANCE.read_text())
    assert PUBLIC_METHODS <= defined
    assert {name.partition(".")[2] for name in PUBLIC_METHODS} <= called


def int_checks(source: str) -> list[str]:
    """The functions that call ``isinstance(<x>, int)``, or int in a tuple of types."""

    def is_int_check(node) -> bool:
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
            return False
        kinds = node.args[-1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(getattr(kind, "id", None) == "int" for kind in kinds)

    def visit(node, where: str) -> Iterator[str]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
            else:
                if is_int_check(child):
                    yield where
                yield from visit(child, where)

    return list(visit(ast.parse(source), "<module>"))


def test_int_checks_are_found():
    source = (
        "def check(v):\n    return isinstance(v, int)\n"
        "def other(v):\n    if isinstance(v, (bytes, int)): pass\n"
        "    isinstance(v, bytes)\n"
        "x = [isinstance(y, int) for y in ()]\n"
    )
    assert int_checks(source) == ["check", "other", "<module>"]


def test_one_integer_type_test():
    # Every integer check goes through errors.check_int, so its message and
    # error class cannot drift apart between copies.
    found = [f"{path.stem}.{where}" for path in LIBRARY for where in int_checks(path.read_text())]
    assert found == ["errors.check_int"]


def imported_modules(source: str) -> set[str]:
    """The top-level packages a source imports, absolute imports only."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


def test_imported_modules_are_found():
    source = "import os.path\ndef f():\n    from mpmath import mp\nfrom . import bounds\n"
    assert imported_modules(source) == {"os", "mpmath"}


def test_library_never_imports_mpmath():
    # The bounds are exact integer arithmetic; mpmath is a test oracle only.
    assert [path.stem for path in LIBRARY if "mpmath" in imported_modules(path.read_text())] == []


def header_spellings(source: str) -> list[str]:
    """The ``Struct(">cI")``, ``pack(">cI", ...)`` and ``.to_bytes(4, ...)`` calls in a source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        args = node.args + [kw.value for kw in node.keywords if kw.arg in ("format", "length")]
        first = args[0].value if args and isinstance(args[0], ast.Constant) else None
        if (name, first) in (("Struct", ">cI"), ("pack", ">cI"), ("to_bytes", 4)):
            found.append(f"{name}({first!r})")
    return found


def test_header_spellings_are_found():
    source = (
        'import struct\nH = struct.Struct(">cI")\nW = struct.Struct(">QQ")\n'
        "from struct import Struct\nStruct('>cI')\nstruct.pack('>cI', b'K', 1)\n"
        'def f(i):\n    return b"B" + i.to_bytes(4, "big") + i.to_bytes(16, "big")\n'
        'def g(i):\n    return i.to_bytes(length=4, byteorder="big")\n'
    )
    found = ["Struct('>cI')", "Struct('>cI')", "pack('>cI')", "to_bytes(4)", "to_bytes(4)"]
    assert header_spellings(source) == found


def test_one_message_header_packer():
    # The 5-byte header of every subkey draw and round bit (a tag byte, then a
    # 4-byte big-endian counter or index) comes from one packer, prf._HEADER.
    found = [
        f"{path.stem}.{call}" for path in LIBRARY for call in header_spellings(path.read_text())
    ]
    assert found == ["prf.Struct('>cI')"]


def load_time_imports(source: str) -> set[str]:
    """The modules a source imports outside its functions: run when it loads.

    ``import a.b`` and ``from a.b import c`` give ``a.b``, ``from .a import c``
    gives ``a``, and ``from . import a, b`` gives ``a`` and ``b``.
    """
    found = set()

    def visit(node) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.update([child.module] if child.module else (a.name for a in child.names))
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child)

    visit(ast.parse(source))
    return found


def test_load_time_imports_are_found():
    source = (
        "import hashlib\nfrom .cipher import A\nfrom . import fpe as f, mixing\n"
        "def g():\n    from .prf import K\n    import string\n"
        "class C:\n    import struct\n"
        "if True:\n    from os.path import join\n"
    )
    assert load_time_imports(source) == {"hashlib", "cipher", "fpe", "mixing", "struct", "os.path"}


def test_analysis_modules_load_no_crypto():
    # bounds, mixing and cli import the PRF, the cipher and FPE only inside
    # the functions that use them, so the analysis commands never load them.
    crypto = {"prf", "cipher", "fpe", "hashlib"}
    found = {
        path.stem: sorted(load_time_imports(path.read_text()) & crypto)
        for path in LIBRARY
        if path.stem in ("bounds", "mixing", "cli")
    }
    assert found == {"bounds": [], "cli": [], "mixing": []}


PICKLE_HOOKS = {"__reduce__", "__reduce_ex__", "__getstate__", "__setstate__"}


def pickle_hooks(source: str) -> list[str]:
    """``Class.hook`` for each pickle hook a class of the source defines, nested ones included."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, FUNCTIONS) and item.name in PICKLE_HOOKS
    ]


def test_pickle_hooks_are_found():
    source = (
        "class Key:\n    def __reduce__(self): ...\n    def __repr__(self): ...\n"
        "class Plain:\n    def reduce(self): ...\n"
        "def f():\n    class Local:\n        def __setstate__(self, state): ...\n"
        "        def __getstate__(self): ...\n"
        "class Outer:\n    class Inner:\n        def __reduce_ex__(self, protocol): ...\n"
    )
    found = ["Key.__reduce__", "Local.__setstate__", "Local.__getstate__", "Inner.__reduce_ex__"]
    assert sorted(pickle_hooks(source)) == sorted(found)


def test_only_the_keyed_hasher_defines_a_pickle_hook():
    # Every other object pickles and copies by default, from its fields and
    # plain cached values; a hook would be one more copy path to keep right.
    found = [f"{path.stem}.{hook}" for path in LIBRARY for hook in pickle_hooks(path.read_text())]
    assert found == ["prf.PrfKey.__reduce__"]


def bare_starred_keys(source: str) -> list[int]:
    """The lines of subscripts like ``a[0, *b]``: a starred item in a bare tuple key.

    That spelling is Python 3.11 syntax (PEP 646), and ``pyproject.toml`` says
    ``requires-python = ">=3.10"``: on 3.10 the module fails to import.
    ``a[(0, *b)]`` runs on 3.10 too and parses to the same tree, and
    ``ast.parse(..., feature_version=(3, 10))`` accepts both.  So the key's own
    text is read back as a list item: with its own parentheses it is one tuple,
    without them its items.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        key = node.slice if isinstance(node, ast.Subscript) else None
        if isinstance(key, ast.Tuple) and any(isinstance(item, ast.Starred) for item in key.elts):
            items = ast.parse(f"[{ast.get_source_segment(source, key)}]", mode="eval").body.elts
            if not (len(items) == 1 and isinstance(items[0], ast.Tuple)):
                found.append(node.lineno)
    return sorted(found)


def test_bare_starred_keys_are_found():
    # Line 1 is how mixing._transition once spelled its mirror key; the flagged
    # lines are the ones CPython 3.10 rejects.
    source = (
        "mirror = [slot_of[0, *((rep[-1] - y) % n for y in reversed(rep[:-1]))] // n"
        " for rep in reps]\n"
        "mirror = [slot_of[(0, *((rep[-1] - y) % n for y in reversed(rep[:-1])))] // n"
        " for rep in reps]\n"
        "a[(x), *b, (y)]\na[*b,]\na[0,\n  *b]\na[(0,\n  *b,)]\na[((0, *b))]\n"
        "a[*b]\na[(0, *b), 1]\na[0, b]\nf(0, *b)\n"
    )
    assert bare_starred_keys(source) == [1, 3, 4, 5, 10]


def test_no_subscript_needs_python_3_11():
    found = [f"{path.stem}:{n}" for path in LIBRARY for n in bare_starred_keys(path.read_text())]
    assert found == []


@pytest.mark.parametrize("module,attr", BOUNDARIES, ids=[f"{m}.{a}" for m, a in BOUNDARIES])
def test_trace_boundary_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"swapornot.{module}"), attr, None))


def test_fpe_reaches_the_codec_through_its_globals(monkeypatch):
    calls = {"encode_digits": 0, "decode_digits": 0}
    for name in calls:
        original = getattr(fpe, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fpe, name, counting)
    fpe.fpe_encrypt(PrfKey(bytes(32)), FormatSpec(10, 9), "123456789", b"", 10)
    assert calls == {"encode_digits": 1, "decode_digits": 1}
