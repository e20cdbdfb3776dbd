"""The package namespace is exactly what the library modules export."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize adds about 17 MB to every process, and scipy.cluster
    # and scipy.spatial more; the assignment and the detector solve on
    # scipy.sparse.csgraph, which the mesh code loads anyway
    env = dict(os.environ, PYTHONPATH=str(Path(shapecorr.__file__).parents[1]))
    code = ("import sys, shapecorr; "
            "print(sorted(name for name, module in list(sys.modules.items()) "
            "if name.startswith('scipy.') and name.count('.') == 1 "
            "and not name.startswith('scipy._') and hasattr(module, '__path__')))")
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.strip() == "['scipy.linalg', 'scipy.sparse']"
