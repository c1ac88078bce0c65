"""Every name a ``linkcert`` module imports is read by that module, every
name in its ``__all__`` is defined by the module itself, every
module-level ``_private`` def, class or constant is read somewhere in the
package, every name in a module's ``__all__`` is read by some program (a
module of the package, a demo or a benchmark script, not a test) unless
``UNREAD_EXPORTS`` says why it is kept, only ``metric_core`` gathers blocks
of a matrix itself or seals a ``DistanceMatrix`` (``_seal``), and only
``linkage_engine`` reads ``Dendrogram.members_map`` (a certificate replay
reads the live clusters' point sets from its own point -> cluster map).

pyflakes would catch the first, but it is not a dependency; the standard
library's ``ast`` is enough.  A name listed in the module's ``__all__``
counts as read, so the second check keeps ``__all__`` from holding an
otherwise unused import alive.  The package ``__init__`` is not checked: it
imports only to re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "linkcert"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= set(exported(tree))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


def exported(tree: ast.Module) -> list[str]:
    """The names in the module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def foreign_exports(source: str) -> list[str]:
    """``__all__`` names that no top-level def, class or assignment defines."""
    tree = ast.parse(source)
    defined: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)}
    return [name for name in exported(tree) if name not in defined]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_private`` (not dunder) defs, classes and assigned
    names, each with its line."""
    found: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return found


def loaded_names(tree: ast.Module) -> set[str]:
    """The names a module reads, as a loaded name or an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}


def dead_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level names that no module of ``sources`` reads, as a
    loaded name or an attribute (an import alone is not a read)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*map(loaded_names, trees.values()))
    return [f"{mod} line {line}: {name}" for mod, tree in sorted(trees.items())
            for name, line in sorted(private_definitions(tree).items(),
                                     key=lambda item: item[1])
            if name not in read]


def unread_exports(modules: dict[str, str], programs: dict[str, str]) -> list[str]:
    """``__all__`` names of ``modules`` that no source of ``programs`` reads,
    as a loaded name, an attribute or an imported name (the strings of an
    ``__all__`` are not reads)."""
    read: set[str] = set()
    for src in programs.values():
        tree = ast.parse(src)
        read |= loaded_names(tree)
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    return [f"{mod}: {name}" for mod, src in sorted(modules.items())
            for name in exported(ast.parse(src)) if name not in read]


# Exported names that no program reads, each kept for the reason given.
UNREAD_EXPORTS = [
    "metric_core.py: cohesion",  # the package's cohesion measure of one cluster
]


# numpy's gathers, which only ``metric_core._submatrix`` calls
GATHERS = {"take", "ix_"}


def foreign_uses(source: str, names: set[str]) -> list[str]:
    """Lines that read one of ``names`` as an attribute or import it by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
    return [f"line {line}: {name}" for line, name in sorted(found)]


MODULES = sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined_here(path):
    assert foreign_exports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "metric_core.py"],
                         ids=lambda p: p.name)
def test_only_metric_core_gathers(path):
    assert foreign_uses(path.read_text(), GATHERS) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "metric_core.py"],
                         ids=lambda p: p.name)
def test_only_metric_core_seals(path):
    assert foreign_uses(path.read_text(), {"_seal"}) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linkage_engine.py"],
                         ids=lambda p: p.name)
def test_only_linkage_engine_reads_members_map(path):
    assert foreign_uses(path.read_text(), {"members_map"}) == []


def test_checker_sees_gathers():
    source = ("import numpy as np\nfrom numpy import ix_, take\n"
              "def f(M, i, j, take=None):\n"
              "    a = M.take(i, 0).take(j, 1)\n"
              "    b = M[np.ix_(i, j)]\n"
              "    gather = M.take\n"
              "    return a, b, gather, ix_(i, j), np.take(M, i), take\n")
    assert foreign_uses(source, GATHERS) == [
        "line 2: ix_", "line 2: take", "line 4: take", "line 4: take",
        "line 5: ix_", "line 6: take", "line 7: take"]


def test_checker_sees_members_map():
    source = ("from .linkage_engine import members_map\n"
              "def f(dg, members_map=None):\n"
              "    members = dg.members_map()\n"
              "    view = dg.members_map\n"
              "    return members, view\n")
    assert foreign_uses(source, {"members_map"}) == [
        "line 1: members_map", "line 3: members_map", "line 4: members_map"]


def test_no_dead_private_helpers():
    assert dead_privates({p.name: p.read_text() for p in SRC.glob("*.py")}) == []


def test_every_export_is_read_by_a_program():
    """Tests, the package ``__init__`` and ``benchmarks/test_smoke.py`` do
    not count as programs.  The list must match exactly, so a listed name
    that a program starts to read must leave it."""
    programs = [*MODULES, *(ROOT / "demos").glob("*.py"),
                *(p for p in (ROOT / "benchmarks").glob("*.py")
                  if not p.name.startswith("test_"))]
    assert unread_exports({p.name: p.read_text() for p in MODULES},
                          {str(p): p.read_text() for p in programs}) == UNREAD_EXPORTS


def test_checker_sees_unread_exports():
    modules = {
        "a.py": ("__all__ = ['called', 'imported', 'attribute', 'unread', 'local']\n"
                 "def called():\n    return local()\n"
                 "def imported():\n    pass\n"
                 "def attribute():\n    pass\n"
                 "def unread():\n    pass\n"
                 "def local():\n    pass\n"),
        "b.py": "__all__ = ['only_listed']\nonly_listed = 1\n",
    }
    programs = {**modules, "demo.py": ("from a import called, imported\nimport a\n"
                                       "called()\na.attribute()\nunread = 2\n")}
    assert unread_exports(modules, programs) == ["a.py: unread", "b.py: only_listed"]


def test_checker_sees_dead_privates():
    sources = {
        "a.py": ("import numpy as np\n"
                 "_USED, _DEAD = 1, 2\n"
                 "_SHARED: int = 3\n"
                 "__version__ = '0'\n"
                 "def _helper():\n    return _USED\n"
                 "def _unused():\n    return np.zeros(1)\n"
                 "class _Orphan:\n    def _method(self):\n        pass\n"
                 "def public():\n    return _helper()\n"),
        "b.py": ("from .a import _DEAD\nfrom . import a\n"
                 "def g():\n    return a._SHARED\n"),
    }
    assert dead_privates(sources) == [
        "a.py line 2: _DEAD", "a.py line 7: _unused", "a.py line 9: _Orphan"]


def test_checker_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import json\nimport numpy as np\nimport os.path\n"
              "from typing import Iterable, Sequence\n"
              "from .a import shown, hidden\n"
              "__all__ = ['shown']\n"
              "def f(x: Iterable) -> None:\n    return np.sum(x)\n")
    assert unused_imports(source) == [
        "line 5: Sequence", "line 6: hidden", "line 2: json", "line 4: os"]


def test_checker_sees_foreign_exports():
    source = ("from .a import shown, kept\n"
              "__all__ = ['kept', 'f', 'C', 'X', 'Y', 'Z', 'T', 'missing']\n"
              "def f():\n    return shown\n"
              "class C:\n    pass\n"
              "X = 1\nY, Z = 2, 3\nT: int = 4\n")
    assert foreign_exports(source) == ["kept", "missing"]
    assert unused_imports(source) == []
