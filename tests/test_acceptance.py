"""Acceptance suite: every criterion prints one line and asserts exactly.

All arithmetic is exact; every assertion is equality of integers, of
reduced rationals, or of whole reports. Two criteria are marked
strict-xfail because the catalog entries they sweep genuinely stop
holding beyond small indices (the failures are themselves pinned by
tests in test_identities.py); see the notes in cfkit.identities.
"""

import json
import random

import pytest

from cfkit.cli import run
from cfkit.contfrac import (
    convergents,
    eval_fold,
    evaluate,
    expand_rational,
    parse_cf,
    surd_cf,
)
from cfkit.errors import IntermediateZero, PerfectSquare, UndefinedValue
from cfkit.identities import CaseParams, IdentityId, Status, fit_uniform, run_case, sweep
from cfkit.rational import Rational
from cfkit.sequences import fib_comb, gibonacci, lucas
from cfkit.tiling import count_board, count_bracelet, count_stacked

I = IdentityId


def report(line, ok):
    print(f"[acceptance] {line}: {'PASS' if ok else 'FAIL'}")
    assert ok, line


# --- criterion 1: point values ---------------------------------------------

POINT_VALUES = [
    ("[2,3,7]", Rational(51, 22)),
    ("[1,5,6,8]", Rational(302, 253)),
    ("[4,3]", Rational(13, 3)),
    ("[4,4,3]", Rational(55, 13)),
    ("[4,7]", Rational(29, 7)),
    ("[4,4,7]", Rational(123, 29)),
    ("[4,9]", Rational(37, 9)),
    ("[4,4,9]", Rational(157, 37)),
    ("[11,3]", Rational(34, 3)),
    ("[11,11,3]", Rational(377, 34)),
    ("[11,11]", Rational(122, 11)),
    ("[11,11,11]", Rational(1353, 122)),
    ("[29,29]", Rational(842, 29)),
    ("[4,4,-5]", Rational(81, 19)),
]


def test_c1_point_values():
    bad = [text for text, want in POINT_VALUES if evaluate(parse_cf(text)) != want]
    report(f"C1 point values ({len(POINT_VALUES)} evaluations)", not bad)


# --- criterion 2: erratum values --------------------------------------------


def test_c2_erratum_values():
    ok = (
        evaluate([4, 4, -1]) == Rational(13, 3)
        and evaluate([4, 4, -1]) == Rational(gibonacci(-2, 10), gibonacci(-2, 7))
        and evaluate([4, 4, -3]) == Rational(47, 11)
        and evaluate([4, 4, -3]) == Rational(gibonacci(-3, 10), gibonacci(-3, 7))
    )
    report("C2 erratum values [4,4,-1]=13/3 and [4,4,-3]=47/11", ok)


# --- criterion 3: sequence tables -------------------------------------------

FIB_COMB_TABLE = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
LUCAS_TABLE = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199]
GIBONACCI_TABLES = {
    3: [3, 1, 4, 5, 9, 14, 23, 37, 60, 97, 157, 254],
    4: [4, 1, 5, 6, 11, 17, 28, 45, 73, 118, 191, 309],
    5: [5, 1, 6, 7, 13, 20, 33, 53, 86, 139, 225, 364],
    6: [6, 1, 7, 8, 15, 23, 38, 61, 99, 160, 259, 419],
    -1: [-1, 1, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34],
    -2: [-2, 1, -1, 0, -1, -1, -2, -3, -5, -8, -13, -21],
    -3: [-3, 1, -2, -1, -3, -4, -7, -11, -18, -29, -47, -76],
    -4: [-4, 1, -3, -2, -5, -7, -12, -19, -31, -50, -81, -131],
}


def test_c3_sequence_tables():
    ok = [fib_comb(n) for n in range(12)] == FIB_COMB_TABLE
    ok = ok and [lucas(n) for n in range(12)] == LUCAS_TABLE
    for k, row in GIBONACCI_TABLES.items():
        ok = ok and [gibonacci(k, n) for n in range(12)] == row
    report("C3 sequence tables (f, L, G for k in {3..6, -1..-4})", ok)


# --- criterion 4: identity sweeps -------------------------------------------


def _tally(ident, m_range, k_range=None):
    """(passed, failed, skipped) over the cases sweep() streams."""
    statuses = [outcome.status for _, outcome in sweep(ident, m_range, k_range)]
    return tuple(statuses.count(status) for status in (Status.PASS, Status.FAIL, Status.SKIPPED))


def _clean_sweep(ident, m_range, k_range=None, forbid_skips=False):
    passed, failed, skipped = _tally(ident, m_range, k_range)
    label = f"C4 {ident.name} sweep m={m_range[0]}..{m_range[1]}"
    if k_range is not None:
        label += f" k={k_range[0]}..{k_range[1]}"
    ok = failed == 0 and (not forbid_skips or skipped == 0)
    report(f"{label} (pass={passed} fail={failed} skip={skipped})", ok)


def test_c4_id117():
    _clean_sweep(I.ID117, (0, 200))


def test_c4_id118():
    _clean_sweep(I.ID118, (0, 200))


def test_c4_id_lucas7():
    _clean_sweep(I.ID_LUCAS7, (0, 200))


def test_c4_thm1():
    _clean_sweep(I.THM1_GIBONACCI, (0, 100), (-50, 50), forbid_skips=True)


def test_c4_thm2():
    _clean_sweep(I.THM2_FIB_FORM, (0, 100), (-50, 50), forbid_skips=True)


def test_c4_thm3():
    cases = list(sweep(I.THM3_ONES, (0, 100), (-50, 50)))
    skipped = {(p.m, p.k) for p, o in cases if o.status is Status.SKIPPED}
    failed = sum(o.status is Status.FAIL for _, o in cases)

    both_undefined = set()
    for params, _ in cases:
        try:
            evaluate([1] * params.m + [params.k])
            lhs_defined = True
        except UndefinedValue:
            lhs_defined = False
        rhs_defined = run_case(I.THM3_ONES, params).rhs is not None
        if not lhs_defined and not rhs_defined:
            both_undefined.add((params.m, params.k))

    ok = failed == 0 and skipped == both_undefined == {(1, 0), (2, -1)}
    report(
        f"C4 THM3_ONES sweep m=0..100 k=-50..50 "
        f"(fail={failed}, skipped exactly at {sorted(skipped)})",
        ok,
    )


@pytest.mark.xfail(
    strict=True,
    reason="[1,1,-1] (m=2, k=-1) is a second two-sided-undefined case: its final "
    "convergent denominator and the stated denominator F(3) - 2*F(2) are both zero, "
    "so the skip set cannot be the single case (1, 0)",
)
def test_c4_thm3_skip_set_is_single_case():
    skipped = {(p.m, p.k) for p, o in sweep(I.THM3_ONES, (0, 100), (-50, 50)) if o.status is Status.SKIPPED}
    report("C4 THM3_ONES skip set == {(1, 0)} alone", skipped == {(1, 0)})


def test_c4_thm4():
    _clean_sweep(I.THM4_ELEVEN3, (0, 100))


@pytest.mark.xfail(
    strict=True,
    reason="the swapped-Lucas difference form holds only for m <= 2; from m = 3 on "
    "the ten-step index shift crosses the irregular seeds l_0 = 1, l_1 = 2 and the "
    "right side drops below the true convergent ([11,11,11,11] = 15005/1353 vs "
    "15004/1353)",
)
def test_c4_thm5():
    _clean_sweep(I.THM5_SWAPPED_LUCAS, (0, 100))


def test_c4_thm5_small_cases():
    report(
        "C4 THM5_SWAPPED_LUCAS holds on m=0..2 (the range its seeds cover)",
        _tally(I.THM5_SWAPPED_LUCAS, (0, 2)) == (3, 0, 0),
    )


def test_c4_thm6():
    _clean_sweep(I.THM6_ELEVEN_FIB, (0, 100))


def test_c4_thm7():
    _clean_sweep(I.THM7_FOURS, (0, 60))


def test_c4_thm8():
    _clean_sweep(I.THM8_TWENTYNINES, (0, 60))


def test_c4_cor_general_lucas():
    _clean_sweep(I.COR_GENERAL_LUCAS, (0, 60), (0, 8))


def test_c4_ext_eleven8():
    _clean_sweep(I.EXT_ELEVEN8, (0, 60))


def test_c4_ext_eleven13():
    _clean_sweep(I.EXT_ELEVEN13, (0, 60))


# --- criterion 5: lemma sweeps ----------------------------------------------


def test_c5_lemmas():
    for ident in (I.LEM_3F, I.LEM_4F, I.LEM_L32, I.LEM_F9, I.LEM_11F, I.LEM_29F):
        passed, failed, _ = _tally(ident, (0, 300))
        report(
            f"C5 {ident.name} sweep m=0..300 (pass={passed} fail={failed})",
            failed == 0 and passed == 301,
        )


def test_c5_bridge_small_indices():
    outcome = run_case(I.LEM_BRIDGE, CaseParams(10))
    ok = outcome.status is Status.PASS and outcome.lhs == Rational(610)
    for m in (0, 5, 15):
        ok = ok and run_case(I.LEM_BRIDGE, CaseParams(m)).status is Status.PASS
    report("C5 LEM_BRIDGE holds at m in {0,5,10,15}, incl. 5*(l10-l0) = 610", ok)


@pytest.mark.xfail(
    strict=True,
    reason="5*(l_m - l_{m-10}) = F(m+5) fails from m = 20 on (75020 vs 75025): the "
    "swapped seeds and the negative-index clamp compensate the index shift only "
    "through m = 15",
)
def test_c5_lem_bridge():
    passed, failed, _ = _tally(I.LEM_BRIDGE, (0, 500))
    report(
        f"C5 LEM_BRIDGE sweep m=0,5,...,500 (pass={passed} fail={failed})",
        failed == 0 and passed == 101,
    )


# --- criterion 6: pattern fitter --------------------------------------------


def test_c6_pattern_fitter():
    hits = {1: 1, 4: 3, 11: 5, 29: 7, 76: 9, 199: 11}
    ok = all(fit_uniform(c, 10) == t for c, t in hits.items())
    ok = ok and all(fit_uniform(c, 10) is None for c in (2, 3, 7, 18))
    report("C6 fit_uniform on 1,4,11,29,76,199 and misses 2,3,7,18", ok)


# --- criterion 7: surd expansion --------------------------------------------


def test_c7_surd_19():
    expansion = surd_cf(19)
    report(
        "C7 sqrt(19) = [4; 2,1,3,1,2,8] with period length 6",
        expansion.a0 == 4 and expansion.period == (2, 1, 3, 1, 2, 8),
    )


def test_c7_surd_structure():
    ok = True
    for d in range(2, 201):
        try:
            expansion = surd_cf(d)
        except PerfectSquare:
            continue
        ok = ok and expansion.period[-1] == 2 * expansion.a0
        ok = ok and expansion.period[:-1] == expansion.period[:-1][::-1]
    report("C7 sqrt(d) periods for d <= 200: last term 2*a0, palindromic body", ok)


# --- criterion 8: oracle equivalence ----------------------------------------


def test_c8_board_oracle():
    ok = all(count_board(n) == fib_comb(n) for n in range(23))
    report("C8 count_board(n) == fib_comb(n) for n <= 22", ok)


def test_c8_bracelet_oracle():
    ok = all(count_bracelet(n) == lucas(n) for n in range(19))
    report("C8 count_bracelet(n) == lucas(n) for n <= 18", ok)


def test_c8_stacked_oracle():
    rng = random.Random(1501)
    ok = True
    for _ in range(200):
        heights = [rng.randint(1, 5) for _ in range(rng.randint(1, 8))]
        p, q = convergents(heights)[-1]
        ok = ok and count_stacked(heights) == p
        if len(heights) > 1:
            ok = ok and count_stacked(heights[1:]) == q
    report("C8 count_stacked == convergent numerator/denominator on 200 samples", ok)


# --- criterion 9: structural properties -------------------------------------


def test_c9_determinant_invariant():
    rng = random.Random(1502)
    ok = True
    for _ in range(1000):
        terms = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        ps, qs = zip(*convergents(terms))
        p = (0, 1) + ps
        q = (1, 0) + qs
        for i in range(1, len(terms)):
            ok = ok and p[i + 2] * q[i + 1] - p[i + 1] * q[i + 2] == (-1) ** (i + 1)
    report("C9 determinant invariant on 1000 random continued fractions", ok)


def test_c9_round_trip():
    rng = random.Random(1503)
    ok = True
    for _ in range(1000):
        r = Rational(rng.randint(-10**18, 10**18), rng.randint(1, 10**18))
        terms = expand_rational(r)
        ok = ok and evaluate(terms) == r
        ok = ok and all(a >= 1 for a in terms[1:])
        ok = ok and (len(terms) == 1 or terms[-1] >= 2)
    report("C9 expand/eval round trip and canonical form on 1000 rationals", ok)


def test_c9_fold_agreement():
    rng = random.Random(1504)
    ok = True
    checked = 0
    for _ in range(1000):
        terms = [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
        try:
            folded = eval_fold(terms)
        except IntermediateZero:
            continue
        ok = ok and folded == evaluate(terms)
        checked += 1
    report(f"C9 eval_fold agrees with evaluate on {checked} defined samples", ok and checked > 400)


def test_c9_sweep_determinism(capsys):
    args = ["sweep", "THM2_FIB_FORM", "--m", "0..20", "--k", "-10..10", "--json"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert run(args[:-1] + ["--jobs", "4", "--json"]) == 0
    threaded = capsys.readouterr().out
    ok = first == second == threaded
    for line in first.splitlines():
        json.loads(line)
    report("C9 sweep reports byte-identical across runs and --jobs", ok)
