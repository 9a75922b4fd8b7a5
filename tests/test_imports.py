"""Every name a package module imports is used by that module."""

import ast
from pathlib import Path

import pytest

import particlesim

MODULES = sorted(p for p in Path(particlesim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of `source` (`from __future__`
    imports excepted) that no other expression of it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport json as js\n"
              "from typing import Optional, Callable\nx: Optional[int] = js.dumps(1)\n")
    assert unused_imports(source) == ["os", "Callable"]
