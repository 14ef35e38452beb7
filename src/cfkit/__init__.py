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
  * identities                   the identity catalog, check/sweep harness
                                 and the uniform-base pattern fitter
  * cli                          the `cfkit` command-line front end
"""

from .contfrac import (
    ConvergentTable,
    SurdExpansion,
    build_uniform,
    convergents,
    eval_fold,
    evaluate,
    evaluate_runs,
    expand_rational,
    parse_cf,
    parse_runs,
    surd_cf,
)
from .identities import (
    CaseParams,
    CheckOutcome,
    IdentityId,
    Status,
    SweepReport,
    check,
    check_lemma,
    fit_uniform,
    lhs_terms,
    rhs_value,
    run_case,
    sweep,
)
from .rational import Rational
from .sequences import (
    fib,
    fib_comb,
    gibonacci,
    lucas,
    lucas_odd_index_of,
    lucas_swapped,
    scaled_fib,
)
from .tiling import count_board, count_bracelet, count_stacked

__version__ = "0.1.0"

__all__ = [
    "CaseParams",
    "CheckOutcome",
    "ConvergentTable",
    "IdentityId",
    "Rational",
    "Status",
    "SurdExpansion",
    "SweepReport",
    "build_uniform",
    "check",
    "check_lemma",
    "convergents",
    "count_board",
    "count_bracelet",
    "count_stacked",
    "eval_fold",
    "evaluate",
    "evaluate_runs",
    "expand_rational",
    "fib",
    "fib_comb",
    "fit_uniform",
    "gibonacci",
    "lhs_terms",
    "lucas",
    "lucas_odd_index_of",
    "lucas_swapped",
    "parse_cf",
    "parse_runs",
    "rhs_value",
    "run_case",
    "scaled_fib",
    "surd_cf",
    "sweep",
]
