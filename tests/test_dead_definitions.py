"""No function, class or method in ``src`` is defined and never named.

The companion of :mod:`tests.test_unused_imports`, on the same AST walk.
A definition in ``src`` that is not decorated (a decorator may register
it, so it is reached through the registry) must have its name read
somewhere in ``src``, ``tests``, ``benchmarks``, ``examples`` or
``perfbench``: as a name, an attribute, an imported name, an ``__all__``
entry or another identifier-shaped string (``getattr`` targets, registry
keys). Docstrings do not count. Dunder methods are exempt: the language
calls them.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.test_unused_imports import _used_names

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples", "perfbench")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read_names(tree: ast.Module) -> set[str]:
    names = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def dead_definitions(root: Path) -> list[str]:
    """``"<path>:<line>: <name>"`` for each undecorated definition in
    ``root/src`` whose name nothing under ``root`` reads."""
    read: set[str] = set()
    defined: list[tuple[str, int, str]] = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            read |= _read_names(tree)
            if top == "src":
                defined += [
                    (path.relative_to(root).as_posix(), node.lineno, node.name)
                    for node in ast.walk(tree)
                    if isinstance(node, _DEFINITIONS)
                    and not node.decorator_list
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                ]
    return [
        f"{path}:{line}: {name}" for path, line, name in sorted(defined) if name not in read
    ]


def test_scan_finds_a_dead_definition(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "class A:\n"
        "    def used(self):\n"
        "        return getattr(self, 'by_string')\n"
        "    def dead(self):\n"
        "        '''Named only in its own docstring: dead.'''\n"
        "    @property\n"
        "    def decorated(self):\n"
        "        pass\n"
        "    def __eq__(self, other):\n"
        "        pass\n"
        "    def by_string(self):\n"
        "        pass\n"
        "def dead_fn():\n"
        "    pass\n"
    )
    (tmp_path / "tests" / "t.py").write_text("from m import A\nA().used()\n")
    assert dead_definitions(tmp_path) == ["src/m.py:4: dead", "src/m.py:13: dead_fn"]


def test_no_dead_definitions():
    assert dead_definitions(ROOT) == []
