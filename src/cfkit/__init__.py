"""Exact continued-fraction arithmetic with a Fibonacci/Lucas identity harness.

Everything is computed over Python's arbitrary-precision integers; there
is no floating point anywhere. The public surface:

  * rational.Rational            reduced exact fractions
  * sequences                    fib / fib_comb / lucas / lucas_swapped /
                                 gibonacci / scaled_fib generators
  * contfrac                     convergents, evaluation of term lists and
                                 of (value, count) runs, parsing,
                                 canonical expansion, sqrt(d) periods
  * tiling                       brute-force square/domino counting oracles
  * identities                   the identity catalog, run_case/sweep harness
                                 (sweep streams a grid case by case) and
                                 the uniform-base pattern fitter
  * cli                          the `cfkit` command-line front end

Names are loaded on first use (PEP 562): `import cfkit` imports no
submodule, and `cfkit.fib` or `cfkit.identities` imports the one module it
needs. The command line relies on this to load only what a subcommand runs.
"""

import sys

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "contfrac": (
            "SurdExpansion", "build_uniform", "convergents", "eval_fold", "evaluate", "evaluate_runs",
            "expand_rational", "parse_cf", "parse_runs", "surd_cf",
        ),
        "identities": (
            "CaseParams", "CheckOutcome", "IdentityId", "Status", "fit_uniform", "run_case", "sweep",
        ),
        "rational": ("Rational",),
        "sequences": ("fib", "fib_comb", "gibonacci", "lucas", "lucas_odd_index_of", "lucas_swapped", "scaled_fib"),
        "tiling": ("count_board", "count_bracelet", "count_stacked"),
    }.items()
    for name in names
}
__all__ = sorted(_EXPORTS)
_SUBMODULES = {"cli", "contfrac", "errors", "identities", "rational", "sequences", "tiling"}


def __getattr__(name: str):
    module = _EXPORTS.get(name, name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ and sys.modules rather than importlib, which a bare
    # interpreter has not loaded.
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    value = sys.modules[qualified]
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
