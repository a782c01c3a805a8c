"""How a Matrix stores its entries is known to linalg.py alone; every
other library module goes through its pair rows and accessors, never the
dense rows that Matrix.data builds."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ringext"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dense_rows_are_read_only_in_linalg(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = sorted(f"line {node.lineno}: .data"
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "data")
    assert not reads, f"{path.name} reads dense matrix rows: {reads}"
