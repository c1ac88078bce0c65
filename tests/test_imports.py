"""Every name a ``linkcert`` module imports is read by that module.

pyflakes would catch this, but it is not a dependency; the standard
library's ``ast`` is enough.  A name listed in the module's ``__all__``
counts as read.  The package ``__init__`` is not checked: it imports only
to re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "linkcert"


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
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_names():
    source = ("from __future__ import annotations\n"
              "import json\nimport numpy as np\nimport os.path\n"
              "from typing import Iterable, Sequence\n"
              "from .a import shown, hidden\n"
              "__all__ = ['shown']\n"
              "def f(x: Iterable) -> None:\n    return np.sum(x)\n")
    assert unused_imports(source) == [
        "line 5: Sequence", "line 6: hidden", "line 2: json", "line 4: os"]
