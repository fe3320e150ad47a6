"""Every name in an __all__ resolves, so a deleted name cannot linger there."""

import importlib
import pkgutil

import hyperhom


def test_all_exports_resolve():
    modules = [hyperhom] + [
        importlib.import_module(f"hyperhom.{info.name}")
        for info in pkgutil.iter_modules(hyperhom.__path__)
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
