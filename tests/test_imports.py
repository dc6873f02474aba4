"""Every name a library module imports at top level is used in that module,
and every private helper is used somewhere in the package.

A stdlib stand-in for an unused-import lint: each ``src/pri/*.py`` file
except ``__init__.py`` is parsed with ``ast``, and every name its top-level
imports bind must appear as a name somewhere in the module.  An import
statement carrying ``# noqa: F401`` on any of its lines is exempt, as are
``__future__`` imports.

A second check stands in for a dead-code lint: every module-level function,
class or assigned name of ``src/pri/*.py`` that starts with ``_`` must be
read, as a name, an attribute or an imported name, somewhere in
``src/pri``.  Assigning to a name does not count as reading it.

A third check keeps memos per value rather than per process: every
``functools.lru_cache`` or ``functools.cache`` decorator in ``src/pri`` must
be ``lru_cache(maxsize=1)``, a singleton.

A fourth check keeps the test oracle independent: ``tests/oracle.py`` may
import nothing from ``pri``, at top level or inside a function, so that a
reference never shares a rule table or a helper with the code it checks.

A fifth check keeps start-up cheap: a fresh interpreter that imports
``pri.cli`` loads neither ``dataclasses`` nor ``inspect``, whose import and
generated classes cost every command tens of milliseconds, nor ``hashlib``,
whose OpenSSL binding costs a few milliseconds that only campaigns and
simulated sessions need.  A fresh ``import pri`` loads no ``pri.*``
submodule, so that importing one module, such as ``pri.porter``, loads only
what that module needs.

A sixth check keeps every output file in one byte form: each
``write_text`` call, and each ``open`` for writing, in ``src/pri`` passes
``newline="\n"``, so that no platform turns line ends into ``\r\n``.

A seventh check keeps one CSV dialect: ``csv.writer`` is called only in
``pri/reports.py``, whose ``csv_text`` every CSV output goes through.

An eighth check keeps one reader of ``key = value`` settings: only
``pri/config.py`` raises the ``unknown ... setting`` and ``bad value for``
errors, from ``typed_settings``, which engine and campaign files both go
through.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pri"
ORACLE = Path(__file__).resolve().parent / "oracle.py"
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


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each private top-level function, class or assigned
    name of a module; dunder names such as ``__all__`` are not private."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, node.lineno) for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    return [(name, line) for name, line in found
            if name.startswith("_") and not name.endswith("__")]


def unreferenced_private_helpers(sources: dict[str, str]) -> list[str]:
    """``module:line name`` of each private top-level function, class or
    assigned name that no module of ``sources`` (module name -> source)
    reads."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for name, line in private_definitions(tree):
            defined[name] = f"{module}:{line}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in referenced)


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


def test_no_unreferenced_private_helpers():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.glob("*.py")}
    assert unreferenced_private_helpers(sources) == []


def test_the_check_finds_a_stray_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _stray():\n    pass\n\n"
             "class _Gone:\n    pass\n",
        "b": "from .a import _used\n\ndef public():\n    return _used()\n",
    }
    assert unreferenced_private_helpers(sources) == ["a:4 _stray", "a:7 _Gone"]


def test_the_check_finds_a_stray_constant():
    sources = {
        "a": "_USED = 2\n_UNUSED = 1\n_PAIR: tuple = (1, 2)\n",
        "b": "from .a import _USED\n\nx = _USED * 2\n",
    }
    assert unreferenced_private_helpers(sources) == ["a:2 _UNUSED",
                                                     "a:3 _PAIR"]


def test_the_check_counts_attribute_references():
    sources = {"a": "def _helper():\n    pass\n",
               "b": "from . import a\n\nx = a._helper\n"}
    assert unreferenced_private_helpers(sources) == []


def unbounded_caches(source: str) -> list[str]:
    """``line name`` of each functools cache decorator of a module that is
    not ``lru_cache(maxsize=1)``."""
    tree = ast.parse(source)
    names = {"functools.lru_cache": "lru_cache", "functools.cache": "cache"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update({alias.asname or alias.name: alias.name
                          for alias in node.names
                          if alias.name in ("lru_cache", "cache")})
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            name = names.get(ast.unparse(call.func if call else decorator))
            if name is None:
                continue
            sizes = [] if call is None else call.args + [
                keyword.value for keyword in call.keywords
                if keyword.arg == "maxsize"]
            if name != "lru_cache" or list(map(ast.unparse, sizes)) != ["1"]:
                found.append(f"line {decorator.lineno} {node.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_caches_are_singletons(path):
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_unbounded_caches():
    source = ("import functools\nfrom functools import cache, lru_cache as lc\n"
              "@lc(maxsize=1)\ndef a(): pass\n"
              "@functools.lru_cache(1)\ndef b(): pass\n"
              "@lc(maxsize=4096)\ndef c(x): pass\n"
              "@lc\ndef d(x): pass\n"
              "@cache\ndef e(x): pass\n"
              "@functools.lru_cache(maxsize=None)\ndef f(x): pass\n"
              "@functools.cache\ndef g(x): pass\n")
    assert unbounded_caches(source) == [
        "line 7 c", "line 9 d", "line 11 e", "line 13 f", "line 15 g"]


def package_imports(source: str, package: str = "pri") -> list[str]:
    """``line module`` of each import, anywhere in a module, of ``package``
    or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno} {module}" for module in modules
                  if module == package or module.startswith(package + ".")]
    return found


def test_oracle_imports_nothing_from_pri():
    assert package_imports(ORACLE.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_package_import():
    source = ("import json\nimport pricing\nfrom . import helpers\n"
              "import os, pri.textproc\n"
              "def f():\n    from pri.porter import _STEP2_RULES\n"
              "    import pri\n    return _STEP2_RULES\n")
    assert package_imports(source) == [
        "line 4 pri.textproc", "line 6 pri.porter", "line 7 pri"]


# Modules a fresh ``import pri.cli`` must not load.
STARTUP_FORBIDDEN = ("dataclasses", "inspect", "hashlib")


def modules_after(code: str) -> set[str]:
    """``sys.modules`` after a new interpreter runs ``code`` with ``src`` on
    its path.  ``-S`` skips site-packages hooks, so only the code's own
    imports count."""
    probe = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); {code}; "
             "print(' '.join(sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                          capture_output=True, text=True)
    return set(done.stdout.split())


def loaded_in_fresh_interpreter(code: str) -> list[str]:
    """Those of STARTUP_FORBIDDEN that ``code`` loads in a new interpreter."""
    loaded = modules_after(code)
    return [m for m in STARTUP_FORBIDDEN if m in loaded]


def test_cli_import_loads_no_dataclasses_or_inspect():
    assert loaded_in_fresh_interpreter("import pri.cli") == []


def test_the_check_finds_a_stray_startup_import():
    assert loaded_in_fresh_interpreter("import pri.cli; import dataclasses") == [
        "dataclasses", "inspect"]
    assert loaded_in_fresh_interpreter("import pri.cli; import hashlib") == [
        "hashlib"]


def pri_submodules_after(code: str) -> list[str]:
    return sorted(m for m in modules_after(code) if m.startswith("pri."))


def test_package_import_loads_no_submodule():
    assert pri_submodules_after("import pri") == []


def test_the_check_finds_a_loaded_submodule():
    assert pri_submodules_after("import pri.porter") == ["pri.porter"]


def writes_without_newline(source: str) -> list[str]:
    """``line call`` of each ``write_text`` call, and each ``open`` call
    with a writing mode, that does not pass ``newline="\\n"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = (node.func.attr if isinstance(node.func, ast.Attribute)
                else getattr(node.func, "id", None))
        if name == "open":
            # builtin open(path, mode); Path.open(mode)
            modes = (node.args[1:2] if isinstance(node.func, ast.Name)
                     else node.args[:1])
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if not any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                       and "b" not in m.value and set("wax+") & set(m.value)
                       for m in modes):
                continue
        elif name != "write_text":
            continue
        if not any(k.arg == "newline" and isinstance(k.value, ast.Constant)
                   and k.value.value == "\n" for k in node.keywords):
            found.append(f"line {node.lineno} {name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_writes_name_the_line_end(path):
    assert writes_without_newline(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_a_platform_line_end():
    source = ("from pathlib import Path\n"
              "Path('a').write_text('x', encoding='utf-8')\n"
              "Path('b').write_text('x', newline='\\n')\n"
              "open('c', 'w', encoding='utf-8')\n"
              "open('d', mode='a', newline='\\n')\n"
              "open('e', encoding='utf-8')\n"
              "open('f', 'wb')\n"
              "Path('g').open('w')\n")
    assert writes_without_newline(source) == [
        "line 2 write_text", "line 4 open", "line 8 open"]


def csv_writer_calls(source: str) -> list[str]:
    """``line N`` of each call of ``csv.writer``, by that name or by a name
    ``from csv import writer`` binds."""
    tree = ast.parse(source)
    names = {"csv.writer"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "csv":
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name == "writer")
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func) in names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_reports_writes_csv(path):
    calls = csv_writer_calls(path.read_text(encoding="utf-8"))
    if path.name == "reports.py":
        assert len(calls) == 1
    else:
        assert calls == []


def test_the_check_finds_a_stray_csv_writer():
    source = ("import csv\nfrom csv import writer as w, reader\n"
              "csv.writer(out, lineterminator='\\n')\n"
              "csv.reader(lines)\nw(out)\nreader(lines)\n")
    assert csv_writer_calls(source) == ["line 3", "line 5"]


SETTINGS_ERROR = re.compile(r"unknown (\S+ )?setting|bad value for")


def settings_errors_raised(source: str) -> list[str]:
    """``line N`` of each ``raise`` whose message, with each f-string field
    read as ``{}``, is a settings error: ``unknown ... setting`` or ``bad
    value for``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        texts = []
        for part in ast.walk(node.exc):
            if isinstance(part, ast.JoinedStr):
                texts.append("".join(
                    field.value if isinstance(field, ast.Constant) else "{}"
                    for field in part.values))
            elif isinstance(part, ast.Constant) and isinstance(part.value, str):
                texts.append(part.value)
        if any(SETTINGS_ERROR.search(text) for text in texts):
            found.append(node.lineno)
    return [f"line {lineno}" for lineno in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_config_raises_settings_errors(path):
    raised = settings_errors_raised(path.read_text(encoding="utf-8"))
    if path.name == "config.py":
        assert len(raised) == 2
    else:
        assert raised == []


def test_the_check_finds_a_stray_settings_error():
    source = ("def f(key, text, kind):\n"
              "    if kind:\n"
              "        raise ValidationError(f'unknown {kind} setting {key!r}')\n"
              "    if text:\n"
              "        raise ValueError('engine ' f'bad value for {key}: {text}')\n"
              "    note = 'unknown engine setting'\n"
              "    raise ValidationError('unknown engine '\n"
              "                          'setting')\n")
    assert settings_errors_raised(source) == ["line 3", "line 5", "line 7"]
