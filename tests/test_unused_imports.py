"""No module imports a name it never uses.

CI lints with ``ruff check`` (whose default rules include F401, unused
imports), but the lint only runs where ruff is installed. This scan runs
the same check in tier 1: every module-level import of ``src``,
``tests``, ``benchmarks`` and ``examples`` must bind a name the module
reads somewhere — in code, in a string annotation, or in ``__all__``.
Package ``__init__.py`` files are exempt (their imports are
re-exports), and so is a line marked ``# noqa``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                parsed = ast.parse(annotation.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return used


def unused_imports(path: Path) -> list[str]:
    """``"<line>: <name>"`` for each module-level import never read."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name != "*" and bound not in used:
                found.append(f"{node.lineno}: {alias.name}")
    return found


def _modules() -> list[Path]:
    return sorted(
        path
        for top in SCANNED
        for path in (ROOT / top).rglob("*.py")
        if path.name != "__init__.py"
    )


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport sys\nfrom typing import Any, Iterator\n"
        "def f(x: 'Iterator[int]') -> None:\n    return sys.argv\n"
    )
    assert unused_imports(module) == ["1: os", "3: Any"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in _modules()
        if (unused := unused_imports(path))
    }
    assert found == {}
