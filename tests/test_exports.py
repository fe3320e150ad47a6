"""Every name in an __all__ resolves, so a deleted name cannot linger there;
and every function the benchmark's tracer wraps still exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import hyperhom


def test_all_exports_resolve():
    modules = [hyperhom] + [
        importlib.import_module(f"hyperhom.{info.name}")
        for info in pkgutil.iter_modules(hyperhom.__path__)
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"


def test_traced_functions_resolve():
    # perfbench/tracing.py wraps functions by dotted name; a missing one
    # breaks `perfbench/run.py --trace 1` at install time
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for name in tracing.WRAPPED:
        home, _, func = name.partition(".")
        mod = importlib.import_module(f"hyperhom.{home}")
        assert callable(getattr(mod, func, None)), f"perfbench traces missing {name!r}"
