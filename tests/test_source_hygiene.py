"""Source hygiene: no module of the package imports a name it never uses.

A deletion that leaves its import behind fails here. __init__.py is skipped,
since its imports are the public re-exports. A name counts as used wherever
it appears, a TYPE_CHECKING block included, and inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chaintable"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in source and never used, in source order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((name for name in imported if name not in used), key=imported.__getitem__)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import_and_counts_annotation_uses():
    source = (
        "from __future__ import annotations\n"
        "import os, re\n"
        "from typing import TYPE_CHECKING\n"
        "from .errors import Gone, Used\n"
        "if TYPE_CHECKING:\n"
        "    from .chain import Ledger, Quoted\n"
        "def f(x: Ledger) -> 'Quoted':\n"
        "    return os.sep, Used\n"
    )
    assert unused_imports(source) == ["re", "Gone"]
