"""The benchmark's tracing launcher wraps cfkit functions by name.

perfbench/launch.py replaces the attributes listed in its _WRAPPED table;
a name missing from its module would crash every traced benchmark run.
The table is read from the file's syntax tree, so nothing is imported
from perfbench.

Its measure for contfrac.convergents reads `.final()` of the result, which
the list of rows convergents() returns has not got. The traced runs stay
whole only while no CLI command calls that name, identities.sweep or
build_uniform; the last test pins that.
"""

import ast
import importlib
from pathlib import Path

from cfkit import cli, contfrac, identities

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


def _wrapped_table() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(LAUNCH.read_text()).body:
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["_WRAPPED"]
        ):
            return {key.id: ast.literal_eval(value) for key, value in zip(node.value.keys, node.value.values)}
    raise AssertionError(f"no _WRAPPED table in {LAUNCH}")


def test_every_traced_name_exists():
    table = _wrapped_table()
    assert table, "the _WRAPPED table is empty"
    missing = [
        f"cfkit.{module}.{name}"
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"cfkit.{module}"), name, None))
    ]
    assert missing == []


# The commands whose handlers step the private routes (contfrac._rows,
# _engine.sweep_cases) rather than the wrapped names, with their exit codes.
_PRIVATE_ROUTES = {
    "convergents [11x40]": 0,
    "convergents [11x40] --json": 0,
    "sweep THM2_FIB_FORM --m 0..3 --k -2..2 --json": 0,
    "sweep LEM_BRIDGE --m 0..40": 1,  # fails from m = 20 on
    "fit 29": 0,
    "check ID117 --m 2": 0,
}


def test_the_cli_never_calls_the_wrapped_names_whose_results_changed(capsys, monkeypatch):
    # launch.py's measure calls .final() on what contfrac.convergents
    # returns, which a list of rows has not got, and its wrapper on the
    # stream identities.sweep would time only the grid check. build_uniform
    # waits for launch.py to stop wrapping it.
    usual = {}
    for argv, code in _PRIVATE_ROUTES.items():
        assert cli.run(argv.split()) == code, argv
        usual[argv] = capsys.readouterr().out

    def unreachable(*args, **kwargs):
        raise AssertionError("a CLI command called a wrapped name")

    for module, name in ((contfrac, "convergents"), (identities, "sweep"), (contfrac, "build_uniform")):
        monkeypatch.setattr(module, name, unreachable)
    for argv, code in _PRIVATE_ROUTES.items():
        assert cli.run(argv.split()) == code, argv
        out, err = capsys.readouterr()
        assert (out, err) == (usual[argv], ""), argv
