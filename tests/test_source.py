"""Source-level rules for the package modules."""

import ast
import os
import subprocess
import sys
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


def imported_names(path: Path) -> set[str]:
    """Every module name an import statement of the file names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            if node.module is None:
                imported.update("." + alias.name for alias in node.names)
    return imported


def test_kernel_imports_neither_fractions_nor_multivector():
    # one-way layering: Multivector stores the kernel's integer layout and
    # imports the kernel, which works on integers alone
    imported = imported_names(SOURCE_DIR / "_quaternion.py")
    assert imported.isdisjoint({"fractions", ".multivector", "clifflag.multivector"}), imported


def test_multivector_does_not_import_linsolve():
    # the general inverse runs in the algebra; elimination serves the
    # coordinate oracle and the tests' reference only
    imported = imported_names(SOURCE_DIR / "multivector.py")
    assert imported.isdisjoint({".linsolve", "clifflag.linsolve"}), imported


def test_kernel_has_no_true_division_and_no_float_constant():
    # the kernel works on integers alone: a stray `/` where `//` was meant
    # would turn a numerator into a float without failing
    path = SOURCE_DIR / "_quaternion.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Constant) and type(node.value) in (float, complex)
    ]
    assert found == []


def test_no_module_imports_dataclasses():
    # every CLI process imports the package; dataclasses would bring in
    # inspect, ast, dis and tokenize with it
    found = [path.name for path in sorted(SOURCE_DIR.glob("*.py")) if "dataclasses" in imported_names(path)]
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: a fresh interpreter without site, so the modules listed are the
    # ones importing the CLI brings in
    code = "import sys, clifflag.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SOURCE_DIR.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    assert out.strip() == "[]"
