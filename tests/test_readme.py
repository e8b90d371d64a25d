"""The README's examples, demo list and limits, checked against the code.

Every ``python`` block runs in order in one namespace, and each
``print(...)  # text`` line must print exactly ``text``. Every
``clifflag ...`` line of the CLI section runs in process through
``clifflag.cli.main``, next to the section's JSON block saved as
``problem.json``; the ``# `` lines below it are its standard output, where
``# ...`` stands for any number of lines. The limits table names each
constant beside its value, and the ``diagnose`` table gives the point cap
that ``cmd_diagnose`` derives for each dimension.
"""

import ast
import contextlib
import importlib
import io
import re
import shlex
import tokenize
from pathlib import Path

import clifflag
from clifflag import Signature, cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def section(title):
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match[1]


def table(text, header):
    """The header cells and the rows of cells of the table whose first
    cell is ``header``."""
    lines = text[text.index(f"| {header} |") :].splitlines()
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    end = next((k for k, line in enumerate(lines) if not line.startswith("|")), len(lines))
    return cells[0], cells[2:end]


def print_comments(code):
    """{line number: expected text} for each ``# text`` comment on a line of ``code``."""
    return {
        tok.start[0]: tok.string[2:]
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT and tok.string.startswith("# ")
    }


def is_print(node):
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "print"
    )


def test_python_blocks_print_what_they_say():
    namespace = {}
    checked = 0
    for code in blocks(README, "python"):
        comments = print_comments(code)
        for node in ast.parse(code).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            if is_print(node):
                assert node.end_lineno in comments, f"print without '# output': {ast.unparse(node)}"
                assert out.getvalue() == comments[node.end_lineno] + "\n", ast.unparse(node)
                checked += 1
    assert checked >= 8


def matches(expected, lines):
    """True when ``lines`` fit ``expected``, where "..." matches any run of lines."""
    if not expected:
        return not lines
    if expected[0] == "...":
        return any(matches(expected[1:], lines[k:]) for k in range(len(lines) + 1))
    return bool(lines) and lines[0] == expected[0] and matches(expected[1:], lines[1:])


def cli_examples():
    text = section("CLI")
    (problem,) = blocks(text, "json")
    examples = []
    for block in blocks(text, "sh"):
        for chunk in block.strip().split("\n\n"):
            command, *output = chunk.splitlines()
            assert command.startswith("clifflag "), command
            assert all(line.startswith("# ") for line in output), chunk
            examples.append((command, [line[2:] for line in output]))
    return problem, examples


def test_cli_examples_print_what_they_say(tmp_path, monkeypatch, capsys):
    problem, examples = cli_examples()
    (tmp_path / "problem.json").write_text(problem, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert len(examples) >= 5
    for command, expected in examples:
        code = cli.main(shlex.split(command)[1:])
        out, err = capsys.readouterr()
        assert (code, err) == (cli.EXIT_OK, ""), command
        assert matches(expected, out.splitlines()), f"{command}\n{out}"


def test_every_demo_is_named():
    demos = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
    assert demos
    assert [name for name in demos if f"demos/{name}" not in section("Demos")] == []


def constant(name):
    """The object that a README name such as ``cli.MAX_POINTS``,
    ``Multivector.inverse`` or ``clifflag.interpolate`` (the module) stands for."""
    first, *rest = name.removeprefix("clifflag.").split(".")
    try:
        obj = importlib.import_module(f"clifflag.{first}")
    except ModuleNotFoundError:
        obj = getattr(clifflag, first)
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_limits_table_matches_the_constants():
    _, rows = table(section("CLI"), "Limit or exit code")
    names = [row[2].strip("`") for row in rows]
    assert {name for name in names if name.startswith("cli.EXIT_")} == {
        f"cli.{name}" for name in vars(cli) if name.startswith("EXIT_")
    }
    for _, value, name in rows:
        assert constant(name.strip("`")) == int(value), name


def test_diagnose_caps_match_cmd_diagnose(capsys):
    header, ((_, *caps),) = table(section("CLI"), "dim")
    assert len(header[1:]) == len(caps) == 5
    for dims, cap in zip(header[1:], map(int, caps)):
        for dim in map(int, dims.split(",")):
            sig = f"0,{dim.bit_length() - 1}"
            assert Signature(0, dim.bit_length() - 1).dim == dim
            # one point above the cap is refused, naming it, before any point is read
            assert cli.main(["diagnose", "-s", sig] + ["?"] * (cap + 1)) == cli.EXIT_PARSE
            assert f"at most {cap} " in capsys.readouterr().err
            # at the cap the points are read, and "?" is a parse error of its own
            assert cli.main(["diagnose", "-s", sig] + ["?"] * cap) == cli.EXIT_PARSE
            assert "cannot parse '?'" in capsys.readouterr().err


def test_each_mechanism_line_names_a_documented_object():
    names = re.findall(r"`([\w.]+)`", section("How it works"))
    assert len(names) >= 10
    for name in names:
        doc = constant(name).__doc__
        assert doc and len(doc.split()) >= 12, name
