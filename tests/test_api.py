"""The public surface: every exported name exists.

Catches dangling entries in a module's __all__ or in the package's
re-exports after code is deleted or renamed, a heavy import reaching the
CLI's start-up, and a third-party import missing from pyproject.toml.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import re
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


def test_cli_import_loads_no_scipy():
    # scipy.linalg alone added 24 MB of RSS and 0.3 s to `import rkld.cli`
    # (2 cores, scipy 1.17); a fresh interpreter shows what the CLI pulls in
    src = str(Path(rkld.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, rkld, rkld.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_third_party_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    package = Path(rkld.__file__).resolve().parent
    imported = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"rkld"}
    pyproject = tomllib.loads((package.parent.parent / "pyproject.toml").read_text())
    declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in pyproject["project"]["dependencies"]}
    assert third_party == declared
