"""How a tensor product is presented (its relation space and free columns)
is known to bimodule.py alone; every other library module goes through
the methods of TensorProduct."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ringext"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "bimodule.py")
PRESENTATION = {"presentation", "relations", "free_cols"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_presentation_is_read_only_in_bimodule(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = sorted(f"line {node.lineno}: .{node.attr}"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in PRESENTATION)
    assert not reads, f"{path.name} reads a tensor presentation: {reads}"
