"""Every name a module of the library, the tests or the scripts imports is
used in that module; no library module samples at random; only the JSON
edge converts between dense lists and pair vectors; import ringext loads
a pinned set of outside modules."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "ringext").glob("*.py")
                 if p.name != "__init__.py")
CHECKED = MODULES + sorted((ROOT / "tests").glob("*.py")) + \
    sorted((ROOT / "scripts").glob("*.py"))


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + \
                    [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as "Matrix" name their types inside a string
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(n.id for n in ast.walk(ast.parse(node.value))
                             if isinstance(n, ast.Name))
    return names


# library modules keep their bare file names as ids
@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name if p in MODULES
                         else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(_imported(tree) - _used(tree))
    assert not unused, f"{path.name} imports but never uses {unused}"


def _modules_imported(tree: ast.Module) -> set:
    """Top-level names of the modules a tree imports, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_random_sampling(path):
    # every check is exact; randomness belongs to the tests that feed them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "random" not in _modules_imported(tree), \
        f"{path.name} imports random"


def test_only_the_json_edge_imports_the_dense_views():
    """Every vector below the JSON edge is a pair vector, so of the library
    modules only serialize imports dense or sparse (linalg defines them)."""
    importers = sorted(p.name for p in MODULES if {"dense", "sparse"}
                       & _imported(ast.parse(p.read_text(encoding="utf-8"))))
    assert importers == ["serialize.py"]


# the outside modules that the modules `import ringext` loads import (gmpy2
# only if installed): a new one is import-time work that every run pays
LOADED_IMPORTS = {"collections", "dataclasses", "datetime", "fractions",
                  "functools", "gmpy2", "importlib", "itertools", "json",
                  "math", "re", "reprlib", "typing"}


def test_import_ringext_imports_a_pinned_set_of_modules():
    """The library modules loaded by a fresh import ringext, cli not among
    them, import exactly the pinned outside modules."""
    src = ROOT / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    loaded = subprocess.run(
        [sys.executable, "-c", "import ringext, sys; print(*sorted(m for m in "
         "sys.modules if m.startswith('ringext.')))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "ringext.cli" not in loaded
    assert "ringext.canonical" in loaded
    imported = set()
    for name in ["__init__", *(m.split(".", 1)[1] for m in loaded)]:
        path = src / "ringext" / f"{name}.py"
        imported |= _modules_imported(ast.parse(path.read_text(encoding="utf-8")))
    assert imported - {"__future__"} == LOADED_IMPORTS
