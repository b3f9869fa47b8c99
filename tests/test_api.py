"""The public surface: every exported name exists, and nothing is public or
settable that only tests use.

Catches dangling entries in a module's __all__ after code is deleted or
renamed, a re-export in the package's __init__, a heavy import reaching the
CLI's start-up, a third-party import missing from pyproject.toml, a public
function, method or class that no code in src/ or perfbench/ reaches, a
private function, class, constant or method that nothing there names, a
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
from rkld.objective import _LOSSES

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
    """(positional names, defaulted names), self or cls dropped."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):]
    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return positional[1:] if method else positional, defaulted


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


def _passed(positional, call: ast.Call, keys: set[str]) -> set[str]:
    """The parameters that `call` sets, by position or by keyword.  A `*` expansion
    may reach every positional parameter.  A `**` expansion of a dict
    comprehension sets none, since its computed keys may leave any name out
    (`Manifest.load` copies only the keys a file has); any other `**` expansion
    sets only the names in keys, the string keys that the call's module writes
    into mappings."""
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    passed = set(positional if starred else positional[: len(call.args)])
    for k in call.keywords:
        if k.arg:
            passed.add(k.arg)
        elif not isinstance(k.value, ast.DictComp):
            passed |= keys
    return passed


def _mapping_keys(tree) -> set[str]:
    """The string keys that a module writes into mappings: dict literal keys and
    `d["key"] = ...` targets, the one way such a key becomes the keyword of a
    call with a `**` expansion."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys.update(k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Constant):
                    keys.add(target.slice.value)
    return keys


def _public_callables():
    for tree in _parsed(ROOT / "src" / "rkld"):
        yield from _callables(tree)


def _root(node):
    """The name an attribute chain starts from (`np` in `np.random.Generator`), or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _program_calls() -> dict[str, list[tuple[str | None, ast.Call, set[str]]]]:
    """Every call in program code that can reach rkld, by the name it calls, with
    the public rkld class it is made on when it names one (`Manifest.load(p)`)
    and its module's mapping keys.  A call on an imported module other than
    rkld's (`json.load(fh)`, `np.zeros(n)`) is left out."""
    classes = {node.name for tree in _parsed(ROOT / "src" / "rkld") for node in tree.body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")}
    calls: dict[str, list[tuple[str | None, ast.Call, set[str]]]] = {}
    for tree in _parsed(*PROGRAM):
        keys = _mapping_keys(tree)
        foreign = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "rkld"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append((None, node, keys))
                elif isinstance(func, ast.Attribute) and _root(func.value) not in foreign:
                    on = func.value.id if isinstance(func.value, ast.Name) and func.value.id in classes else None
                    calls.setdefault(func.attr, []).append((on, node, keys))
    return calls


def _reaching(calls, label, called_as) -> list[tuple[ast.Call, set[str]]]:
    """The program calls that may reach the callable `label`, each with its module's
    mapping keys: a method's calls made on another rkld class (`Manifest.load` for
    `ExperimentConfig.load`) are not."""
    cls = label.split(".")[0] if "." in label else None
    return [(call, keys) for on, call, keys in calls.get(called_as, []) if on in (None, cls)]


def test_every_defaulted_parameter_has_a_caller():
    # a parameter that the program never passes is a knob nobody turns: hard-code its value
    calls = _program_calls()
    unpassed, defaulted = [], set()
    for label, called_as, (positional, defaulted_names) in _public_callables():
        if label in UNREACHED:
            continue
        reaching = _reaching(calls, label, called_as)
        passed = set().union(*(_passed(positional, c, keys) for c, keys in reaching))
        for name in defaulted_names:
            key = f"{label}({name})"
            defaulted.add(key)
            if name not in passed and key not in CALLBACK_PARAMETERS:
                unpassed.append(key)
    assert not unpassed, f"no call in src/ or perfbench/ passes {unpassed}"
    assert set(CALLBACK_PARAMETERS) <= defaulted, "stale CALLBACK_PARAMETERS entry"


def test_every_default_is_relied_on():
    # a default that every program call or construction overrides states a value
    # nobody uses: a second, possibly different, copy of one decided elsewhere
    # (a config key)
    calls = _program_calls()
    overridden = []
    for label, called_as, (positional, defaulted_names) in _public_callables():
        reaching = _reaching(calls, label, called_as)
        if not reaching:
            continue
        passed = set.intersection(*(_passed(positional, c, keys) for c, keys in reaching))
        overridden += [f"{label}({name})" for name in defaulted_names if name in passed]
    constructions, _ = _field_setters()
    for cls, names, defaulted_names in _dataclasses():
        made = constructions.get(cls, [])
        if not made:
            continue
        passed = set.intersection(*(_passed(names, c, keys) for c, keys in made))
        overridden += [f"{cls}.{name}" for name in defaulted_names if name in passed]
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and name != "_" and not (name.startswith("__") and name.endswith("__"))


def _private_definitions():
    """(label, name) of every private module-level function, class and
    constant, and every private method, in src/."""
    for path in sorted((ROOT / "src" / "rkld").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_private(node.name):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and _is_private(fn.name):
                        yield f"{path.stem}.{node.name}.{fn.name}", fn.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and _is_private(name.id):
                            yield f"{path.stem}.{name.id}", name.id


def test_every_private_name_is_used():
    # the public-name guard cannot see a private leftover, such as a rule that no key
    # parses with; a read, an attribute or a string naming it (perfbench's instrumented
    # "_CesaroTracker.__call__") counts, a docstring does not
    used = set()
    for tree in _parsed(*PROGRAM):
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                used.update(re.findall(r"\w+", node.value))
    unused = [label for label, name in _private_definitions() if name not in used]
    assert not unused, f"nothing in src/ or perfbench/ uses {unused}"


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


def test_only_the_quadratic_oracle_names_a_loss():
    # a loss's bounds, margin kind and formulas live in its one _LOSSES row; only
    # the exact Gaussian law, which exists for the squared loss alone, asks which
    # loss it has
    def names_a_loss(operand):
        if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
            return any(map(names_a_loss, operand.elts))
        if isinstance(operand, ast.Attribute):
            return operand.attr == "tag"
        return isinstance(operand, ast.Constant) and operand.value in _LOSSES

    naming = []
    for tree in _parsed(ROOT / "src" / "rkld"):
        for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            operands = [
                operand for node in ast.walk(fn) if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators)
            ]
            if any(map(names_a_loss, operands)):
                naming.append(fn.name)
    assert naming == ["quadratic_discrete_invariant"]


def test_no_function_names_a_chain_kind():
    # a chain is GLD or SGLD by its minibatch and the OU chain by its zero loss: no
    # rule asks for a chain's name, which only `rkld run`'s summary reports
    naming = []
    for tree in _parsed(ROOT / "src" / "rkld"):
        for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
            operands = [
                operand for node in ast.walk(fn) if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators)
            ]
            if any(isinstance(o, ast.Constant) and o.value in ("gld", "sgld", "ou") for o in operands):
                naming.append(fn.name)
    assert naming == []


def test_one_routine_draws_the_random_inputs():
    # run_blocks opens every stream of a call before any fork, and one routine draws
    # each chunk, in the step loop or in the noise worker
    callers = {name: set() for name in ("make_rng", "standard_normal", "permuted")}
    tree = ast.parse((ROOT / "src" / "rkld" / "dynamics.py").read_text())
    for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if name in callers:
                    callers[name].add(fn.name)
    assert callers == {"make_rng": {"run_blocks"}, "standard_normal": {"_draw"}, "permuted": {"_draw"}}


# Defaulted fields of public dataclasses that no src/ or perfbench/ code sets,
# each with the reason it stays.
TEST_ONLY_FIELDS = {
    "ChainConfig.x0": "acceptance tests 5 and 6 start chains away from the origin; no config key reaches it",
}


def _has_default(value) -> bool:
    """Whether a field's right-hand side gives it a default: `field(repr=False)` does not."""
    if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def _dataclasses():
    """(name, field names in order, defaulted field names) of every public dataclass in src/."""
    for tree in _parsed(ROOT / "src" / "rkld"):
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node):
                annotated = [s for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                yield node.name, [s.target.id for s in annotated], [s.target.id for s in annotated if _has_default(s.value)]


def _field_setters():
    """The calls to each name in program code, each with its module's mapping
    keys, `cls(...)` inside a class counting as a call to that class, and
    (field name, class that sets it) for every replace(...) keyword, setattr
    name and assignment to an attribute of an object other than `self`.  A
    module's mapping keys count as set fields only in a module that makes a
    call with a `**` expansion, the one way such a key becomes a field's
    keyword, even through a call by another name (`build(**args)` in
    `ExperimentConfig.loads`)."""
    calls, named = {}, []
    for tree in _parsed(*PROGRAM):
        keys = _mapping_keys(tree)
        expands = any(
            isinstance(node, ast.Call) and any(k.arg is None for k in node.keywords) for node in ast.walk(tree)
        )
        for top in tree.body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            if expands:
                named += [(key, owner) for key in _mapping_keys(top)]
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    calls.setdefault(owner if name == "cls" else name, []).append((node, keys))
                    if name == "replace":
                        named += [(k.arg, owner) for k in node.keywords if k.arg]
                    elif name in ("setattr", "__setattr__") and isinstance(node.args[1], ast.Constant):
                        named.append((node.args[1].value, owner))
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                        if isinstance(target, ast.Attribute) and not (
                            isinstance(target.value, ast.Name) and target.value.id == "self"
                        ):
                            named.append((target.attr, owner))
    return calls, named


def test_every_defaulted_field_is_set():
    # a field that the program never sets is a knob nobody turns: hard-code its value
    calls, named = _field_setters()
    unset = set()
    for cls, names, defaulted_names in _dataclasses():
        # the mapping keys that a `**` expansion passes are in named already
        passed = set().union(*(_passed(names, call, set()) for call, _ in calls.get(cls, [])))
        # a class normalizing its own field in __post_init__ does not set it
        passed |= {name for name, owner in named if owner != cls}
        unset |= {f"{cls}.{name}" for name in defaulted_names if name not in passed}
    assert unset <= set(TEST_ONLY_FIELDS), f"nothing in src/ or perfbench/ sets {sorted(unset - set(TEST_ONLY_FIELDS))}"
    assert set(TEST_ONLY_FIELDS) <= unset, "stale TEST_ONLY_FIELDS entry"
