"""A launch loads only what its command runs, and the package namespace is lazy.

Each row of LOADS runs one command through `cfkit.cli.run` in a fresh
interpreter and names every cfkit submodule it may load: no more, no
fewer. json, argparse and decimal are watched too. No row loads json or
argparse: every --json line is written from a template, and a well-formed
command line is read without argparse, which is loaded only to write help
or a usage error. decimal is loaded by a lemma sweep alone, which steps its
values in Decimal.
The `cfkit` namespace resolves its public names and submodules on first use
(PEP 562); the tests below check that it still behaves like the eager one.
"""

import ast
import os
import subprocess
import sys

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
_CF = _CLI | {"cfkit._cli_cf", "cfkit.contfrac", "cfkit._products", "cfkit.rational"}
_SEQ = _CLI | {"cfkit._cli_seq", "cfkit.sequences"}
_ORACLE = _CLI | {"cfkit._cli_oracle", "cfkit.tiling"}
# check, sweep and fit evaluate with _products, and compile none of contfrac.
_IDENTITIES = _CLI | {"cfkit._cli_cases", "cfkit.identities", "cfkit._products", "cfkit.rational", "cfkit.sequences"}

# argv -> every cfkit submodule it loads, and decimal where it does (never
# json or argparse); README's Start-up table.
LOADS = {
    "eval [2,3,7]": _CF,
    "eval [2,3,7] --digits 5": _CF,
    "eval [2,3,7] --json": _CF,
    "expand 5/3": _CF,
    "expand -13/3 --json": _CF,
    "convergents [1,2]": _CF,
    "convergents [1,2] --json": _CF,
    "surd 19": _CF,
    "surd 19 --json": _CF,
    "seq fib --from 0 --to 3": _SEQ,
    "seq gib --k 2 --from 0 --to 3 --json": _SEQ,
    "oracle board 5": _ORACLE,
    "oracle stacked 2,3 --json": _ORACLE,
    "check ID117 --m 2": _IDENTITIES,
    "check ID117 --m 2 --json": _IDENTITIES,
    "fit 29": _IDENTITIES | {"cfkit._engine"},
    "fit 29 --json": _IDENTITIES | {"cfkit._engine"},
    "sweep ID117 --m 0..3": _IDENTITIES | {"cfkit._engine"},
    "sweep ID117 --m 0..3 --json": _IDENTITIES | {"cfkit._engine"},
    "sweep LEM_3F --m 0..3": _IDENTITIES | {"cfkit._engine", "decimal"},
    "sweep LEM_3F --m 0..3 --json": _IDENTITIES | {"cfkit._engine", "decimal"},
    "check LEM_3F --m 3": _IDENTITIES,
}


@pytest.mark.parametrize("argv", LOADS)
def test_command_loads_exactly_what_it_runs(argv):
    assert _loaded(_command(argv), {"json", "argparse", "decimal"}) == LOADS[argv]


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
    assert "argparse" in _loaded(body, {"argparse"})


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


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cfkit.no_such_name
