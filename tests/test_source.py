"""Source-level rules for the package modules."""

import ast
from pathlib import Path

import clifflag

SOURCE_DIR = Path(clifflag.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_kernel_imports_neither_fractions_nor_multivector():
    # one-way layering: Multivector stores the kernel's integer layout and
    # imports the kernel, which works on integers alone
    path = SOURCE_DIR / "_quaternion.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.module is None:
                imported.update("." + alias.name for alias in node.names)
    assert imported.isdisjoint({"fractions", ".multivector", "clifflag.multivector"}), imported
