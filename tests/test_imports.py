"""Lints on ``ast``: every name a module imports is used, and every
definition is read.

Each module of the package except ``__init__`` (which exists to re-export)
is parsed, and every name an import binds must be read somewhere in the
module.  ``from __future__`` imports and names listed in ``__all__`` are
exempt.  Every top-level function and class of those modules must be read
outside its own definition somewhere in ``src/``, ``bench/``, ``tools/`` or
``demos/``: a loaded name, an attribute, a name imported from a module or
an entry of ``__all__``.  Every method and property of those modules'
classes, except the dunder methods Python calls, must be read there as an
attribute outside its own body.  Tests do not count, so a definition only
tests use is reported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fewshot_ibp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for d in ("src", "bench", "tools", "demos") for p in (ROOT / d).rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["line 2: os", "line 3: b"]


def test_names_in_all_are_exempt():
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def names_read(source: str) -> set[str]:
    """The names ``source`` reads: loaded names, attributes, names imported
    from a module and the entries of ``__all__``.  A top-level definition's
    reads of its own name (a recursion) do not count."""
    read = set()
    for top in ast.parse(source).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
        read |= (names - {top.name}) if isinstance(top, DEFINITIONS) else names
    return read


def dead_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The top-level functions and classes of ``modules`` (name to source)
    that no source of ``readers`` reads."""
    read = set().union(*map(names_read, readers))
    return [
        f"{name}:{node.lineno}: {node.name}"
        for name, source in modules.items()
        for node in ast.parse(source).body
        if isinstance(node, DEFINITIONS) and node.name not in read
    ]


def test_every_definition_is_read():
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_definitions(modules, [p.read_text(encoding="utf-8") for p in READERS]) == []


def test_an_unread_definition_is_reported():
    module = (
        "def imported():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Unread:\n    pass\n"
        "def exported():\n    pass\n"
        "def attribute():\n    pass\n"
        "__all__ = ['exported']\n"
    )
    reader = "from m import imported\nimport m\nm.attribute()\n"
    got = dead_definitions({"m.py": module}, [module, reader])
    assert got == ["m.py:3: recursive", "m.py:5: Unread"]


def attributes_read(source: str) -> set[str]:
    """The attribute names ``source`` reads, except a method's reads of its
    own name inside its body (a recursion)."""
    tree = ast.parse(source)
    own = set()
    for cls in ast.walk(tree):
        for method in cls.body if isinstance(cls, ast.ClassDef) else ():
            if isinstance(method, FUNCTIONS):
                own.update(id(node) for node in ast.walk(method)
                           if isinstance(node, ast.Attribute) and node.attr == method.name)
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in own}


def dead_methods(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The methods and properties of the top-level classes of ``modules``
    (name to source) that no source of ``readers`` reads as an attribute;
    dunder methods are exempt."""
    read = set().union(*map(attributes_read, readers))
    return [
        f"{name}:{node.lineno}: {cls.name}.{node.name}"
        for name, source in modules.items()
        for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, FUNCTIONS) and node.name not in read
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_method_is_read():
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert dead_methods(modules, [p.read_text(encoding="utf-8") for p in READERS]) == []


def test_an_unread_method_is_reported():
    module = (
        "class C:\n"
        "    def __init__(self):\n        pass\n"
        "    def called(self):\n        pass\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    @property\n    def unread(self):\n        return 1\n"
    )
    reader = "C().called()\n"
    got = dead_methods({"m.py": module}, [module, reader])
    assert got == ["m.py:6: C.recursive", "m.py:9: C.unread"]
