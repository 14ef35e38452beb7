"""A launch loads only what its command runs, and the package namespace is lazy.

Each row of LOADS runs one command through `cfkit.cli.run` in a fresh
interpreter and names every cfkit submodule it may load: no more, no
fewer. json, argparse, decimal and __future__ are watched too. No row
loads __future__, json or argparse: no cfkit module imports __future__,
every --json line is written from a template, and a well-formed command
line is read without argparse, which is loaded, with cfkit._cli_usage,
only to write help or a usage error. decimal, with
cfkit._decimals, is loaded by the commands that step their values in
Decimal: seq, convergents and a lemma sweep. README's Start-up table
gives the code lines each command compiles; a test sums them from LOADS
and the modules' current text.
The `cfkit` namespace resolves its public names and submodules on first use
(PEP 562); the tests below check that it still behaves like the eager one.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cfkit

_PROBE = """
import sys
before = set(sys.modules)
{body}
print(sorted(m for m in set(sys.modules) - before if m.startswith("cfkit.") or m in {watched!r}))
"""


def _loaded(body: str, watched: set[str] = frozenset()) -> set[str]:
    """The cfkit submodules, and those of `watched`, that running `body` in a fresh interpreter loads."""
    src = os.path.dirname(os.path.dirname(cfkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = _PROBE.format(body=body, watched=set(watched))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(ast.literal_eval(out.stdout.splitlines()[-1]))


def _command(argv: str) -> str:
    return f"from cfkit.cli import run; run({argv.split()!r})"


def test_import_cfkit_loads_no_submodule():
    assert _loaded("import cfkit") == set()


_CLI = {"cfkit.cli", "cfkit.errors"}
# eval parses with _parse and evaluates with _products, and compiles none of contfrac.
_EVAL = _CLI | {"cfkit._cli_eval", "cfkit._parse", "cfkit._products", "cfkit.rational"}
_CF = _CLI | {"cfkit._cli_cf", "cfkit.contfrac", "cfkit._parse", "cfkit._products", "cfkit.rational"}
_SEQ = _CLI | {"cfkit._cli_seq", "cfkit.sequences"}
_ORACLE = _CLI | {"cfkit._cli_oracle", "cfkit.tiling"}
# check, sweep and fit evaluate with _products, and compile none of contfrac.
_IDENTITIES = _CLI | {"cfkit._cli_cases", "cfkit.identities", "cfkit._products", "cfkit.rational", "cfkit.sequences"}

# argv -> every cfkit submodule it loads, and decimal where it does (never
# json, argparse or __future__); README's Start-up table.
LOADS = {
    "eval [2,3,7]": _EVAL,
    "eval [2,3,7] --digits 5": _EVAL,
    "eval [2,3,7] --json": _EVAL,
    "expand 5/3": _CF,
    "expand -13/3 --json": _CF,
    "convergents [1,2]": _CF | {"cfkit._decimals", "decimal"},
    "convergents [1,2] --json": _CF | {"cfkit._decimals", "decimal"},
    "surd 19": _CF,
    "surd 19 --json": _CF,
    "seq fib --from 0 --to 3": _SEQ | {"cfkit._decimals", "decimal"},
    "seq gib --k 2 --from 0 --to 3 --json": _SEQ | {"cfkit._decimals", "decimal"},
    "oracle board 5": _ORACLE,
    "oracle stacked 2,3 --json": _ORACLE,
    "check ID117 --m 2": _IDENTITIES,
    "check ID117 --m 2 --json": _IDENTITIES,
    "fit 29": _IDENTITIES | {"cfkit._engine"},
    "fit 29 --json": _IDENTITIES | {"cfkit._engine"},
    "sweep ID117 --m 0..3": _IDENTITIES | {"cfkit._engine"},
    "sweep ID117 --m 0..3 --json": _IDENTITIES | {"cfkit._engine"},
    "sweep LEM_3F --m 0..3": _IDENTITIES | {"cfkit._engine", "cfkit._decimals", "decimal"},
    "sweep LEM_3F --m 0..3 --json": _IDENTITIES | {"cfkit._engine", "cfkit._decimals", "decimal"},
    "check LEM_3F --m 3": _IDENTITIES,
}


@pytest.mark.parametrize("argv", LOADS)
def test_command_loads_exactly_what_it_runs(argv):
    assert _loaded(_command(argv), {"json", "argparse", "decimal", "__future__"}) == LOADS[argv]


README = Path(__file__).resolve().parents[1] / "README.md"


def _startup_table() -> dict[str, int]:
    """README's Start-up table: subcommand (a lemma sweep as "lemma sweep") -> the code lines its launch compiles."""
    text = README.read_text(encoding="utf-8")
    rows = text[text.index("| subcommand | loads | code lines compiled |") :].split("\n\n", 1)[0].splitlines()[2:]
    table = {}
    for row in rows:
        subcommands, _, lines = row.strip("|").split("|")
        prefix = "lemma " if subcommands.strip().startswith("a lemma") else ""
        for name in re.findall(r"`(\w+)`", subcommands):
            table[prefix + name] = int(lines.replace(" ", ""))
    return table


def _row(argv: str) -> str:
    command, *rest = argv.split()
    return f"lemma {command}" if command == "sweep" and rest[0].startswith("LEM_") else command


def _code_lines(path: Path) -> int:
    """The module's code lines: non-blank, not a comment, and not inside a module, class or function docstring."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def _compiled_lines(loads: set[str]) -> int:
    """The README's rule: the code lines of the cfkit modules a launch loads, cli.py and errors.py in, __init__.py out."""
    package = Path(cfkit.__file__).parent
    modules = [name.removeprefix("cfkit.") for name in loads if name.startswith("cfkit.")]
    return sum(_code_lines(package / f"{module}.py") for module in modules)


def test_readme_startup_table_counts_the_lines_each_command_compiles():
    lines = {argv: _compiled_lines(loads) for argv, loads in LOADS.items()}
    table = _startup_table()
    assert set(table) == {_row(argv) for argv in LOADS}
    assert {argv: table[_row(argv)] for argv in LOADS} == lines


@pytest.mark.parametrize(
    "argv",
    [
        "--help",
        "eval --help",
        "sweep ID117 --m 0..3 -h",
        "bogus",
        "eval",  # a missing argument
        "eval [1] --digits -1",  # a bad value
        "sweep ID117 --m=0..3",  # well formed to argparse only
    ],
)
def test_help_and_usage_errors_load_argparse(argv):
    body = f"import contextlib, io\nwith contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n    {_command(argv)}"
    assert {"argparse", "cfkit._cli_usage"} <= _loaded(body, {"argparse"})


@pytest.mark.parametrize("name", cfkit.__all__)
def test_every_exported_name_is_its_modules_object(name):
    value = getattr(cfkit, name)
    assert value.__module__.startswith("cfkit.")
    assert getattr(sys.modules[value.__module__], name) is value


@pytest.mark.parametrize("name", ["cli", "contfrac", "errors", "identities", "rational", "sequences", "tiling"])
def test_submodules_resolve_as_attributes(name):
    module = getattr(cfkit, name)
    assert module is sys.modules[f"cfkit.{name}"]


def test_dir_lists_all_and_every_export():
    names = dir(cfkit)
    assert "__all__" in names and "__version__" in names
    assert set(cfkit.__all__) <= set(names)
    assert "identities" in names


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cfkit import *", namespace)
    assert set(cfkit.__all__) <= set(namespace)
    assert namespace["fib"](10) == 55


@pytest.mark.parametrize(
    "module, name",
    [
        ("contfrac", "ConvergentTable"),
        ("identities", "SweepReport"),
        ("identities", "iter_sweep"),
        ("errors", "ZeroReciprocal"),
    ],
)
def test_deleted_names_are_gone_from_the_package_and_their_modules(module, name):
    # convergents() returns rows and sweep() is the stream; their old forms
    # are not kept as aliases. Rational has no reciprocal, so nothing raises
    # ZeroReciprocal.
    assert name not in cfkit.__all__
    assert not hasattr(cfkit, name)
    assert not hasattr(getattr(cfkit, module), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cfkit.no_such_name
