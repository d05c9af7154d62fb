"""Source hygiene: no module of the package imports a name it never uses,
no module-level name is left that nothing refers to, and one function hashes.

A deletion that leaves its import behind, or a helper or pattern it no longer
needs, fails here. __init__.py is skipped, since its imports are the public
re-exports. An import counts as used wherever the name appears, a
TYPE_CHECKING block included, and inside a string annotation. A module-level
name counts as referenced by code outside its own definition, in src/ or
perfbench/ (whose tracer names layers as "module.function" strings), or by
being in __all__.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chaintable

SRC = Path(__file__).resolve().parent.parent / "src" / "chaintable"
PERFBENCH = SRC.parent.parent / "perfbench"
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


def test_the_package_and_cli_import_neither_dataclasses_nor_inspect():
    """A CLI process pays for no module it does not run: dataclasses pulls in
    inspect, ast, dis and tokenize, and only tamper runs chaintable.attack.
    -S keeps site's own imports out of the check."""
    child = (
        "import sys, chaintable, chaintable.cli\n"
        "unwanted = {'dataclasses', 'inspect', 'chaintable.attack'}\n"
        "loaded = sorted(unwanted & sys.modules.keys())\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-S", "-c", child], env=env, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")


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


_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers tree refers to outside skip: names, attributes, imported
    names and the parts of a dotted-name string."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                found.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _definitions(tree: ast.Module):
    """(name, node) for each function, class and assignment at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from ((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))


def unreferenced_names(modules: dict[str, str], others: list[str], exported: set[str]) -> list[str]:
    """module:name for each module-level name of modules that nothing refers
    to: not the rest of its module, another module, others or exported."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    references = {module: _references(tree) for module, tree in trees.items()}
    outside = set(exported).union(*(_references(ast.parse(source)) for source in others))
    orphans = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(refs for m, refs in references.items() if m != module))
        for name, node in _definitions(tree):
            if name not in elsewhere and name not in _references(tree, skip=node):
                orphans.append(f"{module}:{name}")
    return orphans


def test_every_module_level_name_is_referenced():
    modules = {module: (SRC / module).read_text(encoding="utf-8") for module in MODULES}
    others = [(SRC / "__init__.py").read_text(encoding="utf-8")]
    others += [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.glob("*.py"))]
    assert unreferenced_names(modules, others, set(chaintable.__all__)) == []


def test_scan_finds_a_name_nothing_references():
    modules = {
        "a.py": (
            "import re\n"
            "_PART = 'x'\n"
            "_USED = re.compile(f'{_PART}+')\n"
            "_GONE = 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def traced():\n"
            "    return _USED\n"
            "class Exported:\n"
            "    pass\n"
            "def imported():\n"
            "    pass\n"
        ),
        "b.py": "from .a import imported\ndef main() -> 'Quoted':\n    return imported()\n",
    }
    others = ["TRACED = ('a.traced',)\n"]
    assert unreferenced_names(modules, others, {"Exported"}) == [
        "a.py:_GONE",
        "a.py:recursive",
        "b.py:main",
    ]


def hashing_functions(modules: dict[str, str]) -> list[str]:
    """module:function for each function that refers to hashlib or to a name
    imported from it; module:<module> for such a reference outside any function."""
    found = []
    for module, source in modules.items():
        tree = ast.parse(source)
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "hashlib"
            for alias in node.names
        }
        names = {"hashlib", *imported}
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        inside = {id(n) for f in functions for n in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in names and id(node) not in inside:
                found.append(f"{module}:<module>")
        for function in functions:
            if any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(function)):
                found.append(f"{module}:{function.name}")
    return sorted(set(found))


def test_one_function_computes_every_hash():
    """hashlib is used by compute_hash alone, so counting compute_hash counts
    every hash the package computes."""
    modules = {module: (SRC / module).read_text(encoding="utf-8") for module in MODULES}
    assert hashing_functions(modules) == ["chain.py:compute_hash"]


def test_scan_finds_every_hashing_function():
    modules = {
        "a.py": (
            "import hashlib\n"
            "def one(b):\n"
            "    return hashlib.sha256(b)\n"
            "def two(b):\n"
            "    digest = hashlib.new('sha256', b)\n"
            "    return digest\n"
            "def other(b):\n"
            "    return b\n"
        ),
        "b.py": "from hashlib import sha256 as h\nTOP = h(b'')\ndef three():\n    return h\n",
    }
    assert hashing_functions(modules) == ["a.py:one", "a.py:two", "b.py:<module>", "b.py:three"]
