"""Every name a library module imports at top level is used in that module.

A stdlib stand-in for an unused-import lint: each ``src/pri/*.py`` file
except ``__init__.py`` is parsed with ``ast``, and every name its top-level
imports bind must appear as a name somewhere in the module.  An import
statement carrying ``# noqa: F401`` on any of its lines is exempt, as are
``__future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pri"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {lineno}: {name}" for name, lineno in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_stray_import():
    source = "import os\nimport sys\nfrom typing import IO, Iterable\n" \
             "def f(x: IO) -> None:\n    sys.exit(x)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Iterable"]


def test_the_check_honours_noqa_and_future():
    source = ("from __future__ import annotations\n"
              "from json import (  # noqa: F401\n    dumps,\n    loads,\n)\n")
    assert unused_imports(source) == []


def test_there_are_modules_to_check():
    assert len(MODULES) >= 10
