"""Every name a module imports is used: an unused-import lint on ``ast``.

Each module of the package except ``__init__`` (which exists to re-export)
is parsed, and every name an import binds must be read somewhere in the
module.  ``from __future__`` imports and names listed in ``__all__`` are
exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fewshot_ibp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
