"""The benchmark's tracing launcher wraps cfkit functions by name.

perfbench/launch.py replaces the attributes listed in its _WRAPPED table;
a name missing from its module would crash every traced benchmark run.
The table is read from the file's syntax tree, so nothing is imported
from perfbench and nothing is patched.
"""

import ast
import importlib
from pathlib import Path

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
