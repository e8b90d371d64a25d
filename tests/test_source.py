"""Source-level rules for the package modules."""

import ast
import json
import os
import subprocess
import sys
import textwrap
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


def test_bench_tracer_finds_every_name_it_wraps():
    # bench/tracing.py wraps the package's functions and methods by name, so
    # a moved or renamed one would otherwise break only traced benchmark
    # runs. In a fresh interpreter: install the wrappers, check that each
    # listed name was wrapped where it is defined, that a sampled family's
    # search still reaches the traced classpoints layer and a census with a
    # real root and a whole sphere the traced poly.divide layer (the
    # r03-roots benchmark reads both counts), and remove the wrappers again.
    bench = Path(__file__).resolve().parents[1] / "bench"
    code = textwrap.dedent(
        """
        import json, sys, tracing
        import clifflag as cl
        tracer = tracing.Tracer()
        instrumentation = tracing.Instrumentation(tracer)
        instrumentation.install()
        saved = list(instrumentation.saved)
        wrapped = {(owner, attr) for owner, attr, _ in saved}
        listed = [(sys.modules[m], a) for m, table in tracing.FUNCTIONS.items() for a in table]
        listed += [(getattr(sys.modules[m], c), a) for (m, c), table in tracing.METHODS.items() for a in table]
        basis = cl.Multivector.basis
        # (1 - e123) + X (e1 + e23): plus half free, minus half pinned at i
        p = cl.Polynomial(cl.R03, (cl.Multivector.one(cl.R03) - basis(cl.R03, 1, 2, 3),
                                   basis(cl.R03, 1) + basis(cl.R03, 2, 3)))
        family = cl.roots_in_class(p, cl.ConjugacyClassId.sphere(0, 1))
        # (X - 1)(X^2 + 1): a real root and a whole sphere, counted by division
        whole = cl.ConjugacyClassId.sphere(0, 1)
        q = cl.Polynomial.from_scalars(cl.R03, (-1, 1)) * cl.characteristic_poly(whole, cl.R03)
        census = cl.paravector_root_census(q, [cl.ConjugacyClassId.real(1), whole])
        instrumentation.remove()
        print(json.dumps({
            "missing": [a for owner, a in listed if (owner, a) not in wrapped],
            "restored": all(vars(owner)[a] is original for owner, a, original in saved),
            "family": not family.exhaustive and len(family.points) > 1,
            "sampled": sum(span[0] == "classpoints.sample" for span in tracer.spans),
            "census": census,
            "divided": sum(span[0] == "poly.divide" for span in tracer.spans),
        }))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCE_DIR.parent), str(bench)]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout
    report = json.loads(out)
    assert report["missing"] == [] and report["restored"] and report["family"], report
    assert report["sampled"] >= 1, report
    assert report["census"] == [1, 1, 0] and report["divided"] >= 1, report
