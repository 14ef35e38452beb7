"""argparse's reading of a command line, for help and usage errors alone (see `cli`).

cli.run() imports this module only when cli._read() leaves argv to
argparse: -h, --, --opt=value, an abbreviation, a repeat, an unknown,
missing or extra argument, or a bad value. A value type of `cli` that
rejects its text raises argparse's ArgumentTypeError, imported from here,
and ends on this path too. No well-formed command line loads this module
or argparse.
"""

import argparse
import re
from argparse import ArgumentTypeError  # raised by cli's value types

from .cli import _SUBCOMMANDS, _VALUE


def parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand of cli._SUBCOMMANDS, so help and errors list all of them.

    argparse reads only plain negative numbers (-5, -1.5, -.5) as values; any
    other token that starts with '-' is an option name to it. Its test is the
    private `_negative_number_matcher`, which each parser here widens to
    cli._VALUE, so -3..3 and -13/3 are values too.
    """
    matcher = re.compile(_VALUE)
    top = argparse.ArgumentParser(
        prog="cfkit",
        description="Exact continued-fraction arithmetic and identity verification.",
    )
    top._negative_number_matcher = matcher
    sub = top.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = matcher
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return top
