"""Every module under ``src/repro`` must be reachable from code that runs.

A module that only its own unit tests import is code that no CLI verb,
experiment, benchmark, example or tool exercises.  This test follows
the static imports (stdlib ``ast`` only) from the entry points —
``repro.cli``, ``repro.__main__`` and every ``.py`` file under
``benchmarks/``, ``examples/`` and ``tools/`` — and fails listing each
``repro`` module it never reaches.

``from pkg import name`` reaches the submodule that ``pkg/__init__.py``
imports ``name`` from.  A package's other re-exports are not followed,
so being re-exported does not keep a module alive.  Imports inside a
package ``__init__``'s functions are followed like any module's.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("benchmarks", "examples", "tools")


def _dotted(path: Path, base: Path) -> str:
    parts = path.relative_to(base).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


#: Dotted name -> source file of every module in the ``repro`` package.
MODULES: Dict[str, Path] = {
    _dotted(path, SRC): path for path in (SRC / "repro").rglob("*.py")
}


def _is_package(name: str) -> bool:
    return name in MODULES and MODULES[name].name == "__init__.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _absolute(node: ast.ImportFrom, package: str) -> str:
    """The absolute module name a (possibly relative) import names."""
    if node.level == 0:
        return node.module or ""
    parts = package.split(".")
    base = parts[: len(parts) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _reexports(package: str) -> Dict[str, Tuple[str, str]]:
    """Name bound by a package ``__init__``'s top-level ``from X import
    a as b`` -> (X, a)."""
    bound = {}
    for stmt in _parse(MODULES[package]).body:
        if isinstance(stmt, ast.ImportFrom):
            source = _absolute(stmt, package)
            for alias in stmt.names:
                bound[alias.asname or alias.name] = (source, alias.name)
    return bound


def _followed_imports(tree: ast.Module, *, init: bool) -> Iterator[ast.AST]:
    """The import statements whose targets the walk follows.  For a
    package ``__init__`` the top-level re-exports are skipped."""
    if not init:
        roots: List[ast.AST] = [tree]
    else:
        roots = [
            stmt
            for stmt in tree.body
            if not isinstance(stmt, (ast.Import, ast.ImportFrom))
        ]
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node


class _Walk:
    def __init__(self) -> None:
        self.reached: Set[str] = set()
        self._pending: List[str] = []

    def reach(self, name: str) -> None:
        # Importing a.b.c runs the a and a.b package __init__s first.
        parts = name.split(".")
        for i in range(1, len(parts) + 1):
            prefix = ".".join(parts[:i])
            if prefix in MODULES and prefix not in self.reached:
                self.reached.add(prefix)
                self._pending.append(prefix)

    def import_from(self, module: str, name: str) -> None:
        self.reach(module)
        if not _is_package(module):
            return
        submodule = f"{module}.{name}"
        if submodule in MODULES:
            self.reach(submodule)
            return
        source = _reexports(module).get(name)
        if source is not None:
            self.import_from(*source)

    def follow(self, tree: ast.Module, package: str, *, init: bool) -> None:
        for node in _followed_imports(tree, init=init):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.reach(alias.name)
            else:
                module = _absolute(node, package)
                for alias in node.names:
                    self.import_from(module, alias.name)

    def run(self) -> Set[str]:
        for name in ENTRY_MODULES:
            self.reach(name)
        for directory in ENTRY_DIRS:
            for path in sorted((ROOT / directory).rglob("*.py")):
                package = _dotted(path.parent / "__init__.py", ROOT)
                self.follow(_parse(path), package, init=False)
        while self._pending:
            name = self._pending.pop()
            init = _is_package(name)
            package = name if init else name.rpartition(".")[0]
            self.follow(_parse(MODULES[name]), package, init=init)
        return self.reached


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - _Walk().run())
    assert not unreached, (
        "modules that no CLI verb, benchmark, example or tool imports: "
        + ", ".join(unreached)
    )
