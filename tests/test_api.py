"""The public surface: every exported name exists.

Catches dangling entries in a module's __all__ or in the package's
re-exports after code is deleted or renamed, and a heavy import reaching
the CLI's start-up.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rkld

MODULES = sorted(f"rkld.{m.name}" for m in pkgutil.iter_modules(rkld.__path__))


def test_every_module_is_listed():
    assert {"rkld.spectral", "rkld.dynamics", "rkld.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    for entry in getattr(importlib.import_module(name), "__all__", ()):
        assert entry in namespace


def test_package_reexports_exist():
    tree = ast.parse(inspect.getsource(rkld))
    reexports = [
        (node.module, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    for module, name in reexports:
        source = importlib.import_module(f"rkld.{module}")
        assert getattr(rkld, name) is getattr(source, name), f"rkld.{name}"


def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize alone costs about 20 MB of RSS and a quarter second of
    # start-up; a fresh interpreter shows what `import rkld.cli` pulls in
    src = str(Path(rkld.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, rkld.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
