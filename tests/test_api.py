"""The public surface: every exported name exists, and nothing is public or
settable that only tests use.

Catches dangling entries in a module's __all__ after code is deleted or
renamed, a re-export in the package's __init__, a heavy import reaching the
CLI's start-up, a third-party import missing from pyproject.toml, a public
function, method or class that no code in src/ or perfbench/ reaches, a
defaulted parameter that no call there passes, a default that every call
there overrides (a second statement of a value the config decides), and a
defaulted dataclass field that no code there sets.  Tests do not count as
callers.  The package's version matches pyproject.toml's.
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
from rkld.config import Manifest

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


def test_package_imports_no_submodule():
    # each name has one import path, its module's: `import rkld` re-exports nothing
    def own(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or node.module.split(".")[0] == "rkld"
        return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "rkld" for a in node.names)

    imports = [ast.unparse(node) for node in ast.walk(ast.parse(inspect.getsource(rkld))) if own(node)]
    assert not imports, f"rkld/__init__.py imports {imports}"


def test_cli_import_loads_no_scipy():
    # scipy.linalg alone added 24 MB of RSS and 0.3 s to `import rkld.cli`
    # (2 cores, scipy 1.17); a fresh interpreter shows what the CLI pulls in
    src = str(Path(rkld.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, rkld, rkld.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_one_version_string():
    # pyproject.toml states the version; the package and every manifest read it from there
    tomllib = pytest.importorskip("tomllib")
    version = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["version"]
    assert rkld.__version__ == version
    assert Manifest(config_hash="0" * 16).tool_version == f"rkld {version}"


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


# Public callables that no src/ or perfbench/ code reaches yet, each with the
# reason it stays; its parameters are judged once it has a caller.
UNREACHED: dict[str, str] = {}

# Defaulted parameters that no scanned call can pass by name or position,
# because the callee is only reached through a callback.
CALLBACK_PARAMETERS = {
    "ExperimentConfig.build_objective(n_modes)": "galerkin_error_vs_n calls it as make_objective(n_modes)",
}

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = (ROOT / "src" / "rkld", ROOT / "perfbench")  # test_*.py files excluded


def _parsed(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            if not path.name.startswith("test_"):
                yield ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        "dataclass" in ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in cls.decorator_list
    )


def _parameters(fn: ast.FunctionDef, method: bool):
    """(positional names, keyword-only names, defaulted names), self or cls dropped."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    keyword_only = [p.arg for p in a.kwonlyargs]
    defaulted = positional[len(positional) - len(a.defaults):]
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional[1:] if method else positional, keyword_only, defaulted


def _callables(tree):
    """(label, the name a call uses, parameters) of every public function,
    public method of a public class and non-dataclass __init__."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, _parameters(node, method=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name == "__init__" and not _is_dataclass(node):
                    called_as = node.name
                elif not fn.name.startswith("_"):
                    called_as = fn.name
                else:
                    continue
                static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
                yield f"{node.name}.{fn.name}", called_as, _parameters(fn, method=not static)


def _passed(positional, keyword_only, call: ast.Call) -> set[str]:
    """The parameters that `call` sets, by position or by keyword."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return {*positional, *keyword_only}
    return set(positional[: len(call.args)]) | {k.arg for k in call.keywords}


def _public_callables():
    for tree in _parsed(ROOT / "src" / "rkld"):
        yield from _callables(tree)


def _root(node):
    """The name an attribute chain starts from (`np` in `np.random.Generator`), or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _program_calls() -> dict[str, list[tuple[str | None, ast.Call]]]:
    """Every call in program code that can reach rkld, by the name it calls, with
    the public rkld class it is made on when it names one (`Manifest.load(p)`).
    A call on an imported module other than rkld's (`json.load(fh)`,
    `np.zeros(n)`) is left out."""
    classes = {node.name for tree in _parsed(ROOT / "src" / "rkld") for node in tree.body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}
    calls: dict[str, list[tuple[str | None, ast.Call]]] = {}
    for tree in _parsed(*PROGRAM):
        foreign = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "rkld"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append((None, node))
                elif isinstance(func, ast.Attribute) and _root(func.value) not in foreign:
                    on = func.value.id if isinstance(func.value, ast.Name) and func.value.id in classes else None
                    calls.setdefault(func.attr, []).append((on, node))
    return calls


def _reaching(calls, label, called_as) -> list[ast.Call]:
    """The program calls that may reach the callable `label`: a method's calls made
    on another rkld class (`Manifest.load` for `ExperimentConfig.load`) are not."""
    cls = label.split(".")[0] if "." in label else None
    return [call for on, call in calls.get(called_as, []) if on in (None, cls)]


def test_every_defaulted_parameter_has_a_caller():
    # a parameter that the program never passes is a knob nobody turns: hard-code its value
    calls = _program_calls()
    unpassed, defaulted = [], set()
    for label, called_as, (positional, keyword_only, defaulted_names) in _public_callables():
        if label in UNREACHED:
            continue
        passed = set().union(*(_passed(positional, keyword_only, c) for c in _reaching(calls, label, called_as)))
        for name in defaulted_names:
            key = f"{label}({name})"
            defaulted.add(key)
            if name not in passed and key not in CALLBACK_PARAMETERS:
                unpassed.append(key)
    assert not unpassed, f"no call in src/ or perfbench/ passes {unpassed}"
    assert set(CALLBACK_PARAMETERS) <= defaulted, "stale CALLBACK_PARAMETERS entry"


def test_every_default_is_relied_on():
    # a default that every program call overrides states a value nobody uses: a
    # second, possibly different, copy of one decided elsewhere (a config key)
    calls = _program_calls()
    overridden = []
    for label, called_as, (positional, keyword_only, defaulted_names) in _public_callables():
        reaching = _reaching(calls, label, called_as)
        if not reaching:
            continue
        passed = set.intersection(*(_passed(positional, keyword_only, c) for c in reaching))
        overridden += [f"{label}({name})" for name in defaulted_names if name in passed]
    assert not overridden, f"every call in src/ or perfbench/ passes {overridden}: drop the default"


def test_every_public_callable_is_reached():
    # a public function, method or class that only tests reach is API that nobody runs
    referenced = set()
    for tree in _parsed(*PROGRAM):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreached = {label for label, called_as, _ in _public_callables() if called_as not in referenced}
    assert unreached <= set(UNREACHED), f"nothing in src/ or perfbench/ reaches {sorted(unreached - set(UNREACHED))}"
    assert set(UNREACHED) <= unreached, "stale UNREACHED entry"


def test_only_theory_constants_branches_on_the_regime():
    # the regime is decided once; every other rule reads the constants it picked
    branching = []
    for tree in _parsed(ROOT / "src" / "rkld"):
        for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            operands = [
                operand for node in ast.walk(fn) if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators)
            ]
            if any(isinstance(o, ast.Constant) and o.value in ("strict", "bounded") for o in operands):
                branching.append(fn.name)
    assert branching == ["theory_constants"]


# Defaulted fields of public dataclasses that no src/ or perfbench/ code sets,
# each with the reason it stays.
TEST_ONLY_FIELDS = {
    "ChainConfig.x0": "acceptance tests 5 and 6 start chains away from the origin; no config key reaches it",
}


def _dataclasses():
    """(name, field names in order, defaulted field names) of every public dataclass in src/."""
    for tree in _parsed(ROOT / "src" / "rkld"):
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node):
                annotated = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                yield node.name, [s.target.id for s in annotated], [s.target.id for s in annotated if s.value]


def _field_setters():
    """The calls to each name in program code, `cls(...)` inside a class
    counting as a call to that class, and (field name, class that sets it)
    for every replace(...) keyword, setattr name and assignment to an
    attribute of an object other than `self`.  String mapping keys (dict
    literal keys and `d["key"] = ...` targets) count only in a module that
    makes a call with a `**` expansion, the one way such a key becomes a
    field's keyword."""
    calls, named = {}, []
    for tree in _parsed(*PROGRAM):
        expands = any(
            isinstance(node, ast.Call) and any(k.arg is None for k in node.keywords) for node in ast.walk(tree)
        )
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(owner if name == "cls" else name, []).append(node)
                    if name == "replace":
                        named += [(k.arg, owner) for k in node.keywords if k.arg]
                    elif name in ("setattr", "__setattr__") and isinstance(node.args[1], ast.Constant):
                        named.append((node.args[1].value, owner))
                elif isinstance(node, ast.Dict) and expands:
                    named += [(k.value, owner) for k in node.keys if isinstance(k, ast.Constant)]
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                        if isinstance(target, ast.Attribute) and not (
                            isinstance(target.value, ast.Name) and target.value.id == "self"
                        ):
                            named.append((target.attr, owner))
                        elif isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Constant) and expands:
                            named.append((target.slice.value, owner))
    return calls, named


def test_every_defaulted_field_is_set():
    # a field that the program never sets is a knob nobody turns: hard-code its value
    calls, named = _field_setters()
    unset = set()
    for cls, names, defaulted_names in _dataclasses():
        passed = set().union(*(_passed(names, [], call) for call in calls.get(cls, [])))
        # a class normalizing its own field in __post_init__ does not set it
        passed |= {name for name, owner in named if owner != cls}
        unset |= {f"{cls}.{name}" for name in defaulted_names if name not in passed}
    assert unset <= set(TEST_ONLY_FIELDS), f"nothing in src/ or perfbench/ sets {sorted(unset - set(TEST_ONLY_FIELDS))}"
    assert set(TEST_ONLY_FIELDS) <= unset, "stale TEST_ONLY_FIELDS entry"
