"""One exported name, one object, across ``repro`` and its subpackages.

``repro`` and each direct ``repro.*`` subpackage publish their surface
through ``__all__``. When two of them export different objects under the
same name, ``from repro.x import Name`` silently picks one of two
classes depending on the import path. This scan fails on any such name.
"""

from __future__ import annotations

import importlib
import pkgutil
from types import ModuleType

import repro


def _packages() -> list[ModuleType]:
    """``repro`` and every direct ``repro.*`` subpackage."""
    names = sorted(
        info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    )
    return [repro] + [importlib.import_module(f"repro.{name}") for name in names]


def export_clashes(modules: list[ModuleType]) -> dict[str, list[str]]:
    """``name -> [module, ...]`` for each ``__all__`` name bound to more
    than one distinct object across ``modules``."""
    owners: dict[str, dict[int, list[str]]] = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            owners.setdefault(name, {}).setdefault(id(obj), []).append(
                module.__name__
            )
    return {
        name: sorted(m for mods in by_obj.values() for m in mods)
        for name, by_obj in sorted(owners.items())
        if len(by_obj) > 1
    }


def test_scan_finds_a_clash():
    one, two, same = ModuleType("one"), ModuleType("two"), ModuleType("same")
    one.Config, two.Config = type("Config", (), {}), type("Config", (), {})
    same.Config = one.Config
    for module in (one, two, same):
        module.__all__ = ["Config"]
    assert export_clashes([one, same]) == {}
    assert export_clashes([one, two, same]) == {"Config": ["one", "same", "two"]}


def test_no_name_exports_two_objects():
    assert export_clashes(_packages()) == {}
