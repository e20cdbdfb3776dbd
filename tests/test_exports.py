"""The package namespace is exactly what the library modules export."""

import importlib
import inspect
import pkgutil

import shapecorr

# every module but the command-line front end feeds the package namespace
LIBRARY_MODULES = sorted(m.name for m in pkgutil.iter_modules(shapecorr.__path__)
                         if m.name != "cli")


def test_namespace_is_the_union_of_module_exports():
    exported = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"shapecorr.{name}")
        missing = [item for item in module.__all__ if not hasattr(module, item)]
        assert not missing, f"shapecorr.{name}.__all__ lists undefined {missing}"
        assert len(set(module.__all__)) == len(module.__all__)
        exported |= set(module.__all__)
    public = {name for name, value in vars(shapecorr).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == exported
