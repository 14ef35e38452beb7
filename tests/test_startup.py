"""A launch loads only what its command runs, and the package namespace is lazy.

Each row of LOADS runs one command through `cfkit.cli.run` in a fresh
interpreter and names every cfkit submodule it may load: no more, no
fewer. json is watched too, and no command loads it: every --json line is
written from a template. The `cfkit` namespace resolves its public names and
submodules on first use (PEP 562); the tests below check that it still
behaves like the eager one.
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


_CF = {"cfkit.cli", "cfkit.errors", "cfkit.contfrac", "cfkit.rational"}
_IDENTITIES = _CF | {"cfkit.identities", "cfkit.sequences"}

# argv -> every cfkit submodule it loads (and never json); README's Start-up table.
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
    "seq fib --from 0 --to 3": {"cfkit.cli", "cfkit.errors", "cfkit.sequences"},
    "seq gib --k 2 --from 0 --to 3 --json": {"cfkit.cli", "cfkit.errors", "cfkit.sequences"},
    "oracle board 5": {"cfkit.cli", "cfkit.errors", "cfkit.tiling"},
    "oracle stacked 2,3 --json": {"cfkit.cli", "cfkit.errors", "cfkit.tiling"},
    "check ID117 --m 2": _IDENTITIES,
    "check ID117 --m 2 --json": _IDENTITIES,
    "fit 29": _IDENTITIES | {"cfkit._engine"},
    "fit 29 --json": _IDENTITIES | {"cfkit._engine"},
    "sweep ID117 --m 0..3": _IDENTITIES | {"cfkit._engine"},
    "sweep ID117 --m 0..3 --json": _IDENTITIES | {"cfkit._engine"},
}


@pytest.mark.parametrize("argv", LOADS)
def test_command_loads_exactly_what_it_runs(argv):
    assert _loaded(_command(argv), {"json"}) == LOADS[argv]


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
