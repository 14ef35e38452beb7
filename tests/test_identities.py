import pytest

from cfkit.contfrac import eval_fold, evaluate
from cfkit.errors import (
    BadDomain,
    ExtraParam,
    IntermediateZero,
    MissingParam,
    NotACFIdentity,
)
from cfkit.identities import (
    CaseParams,
    IdentityId,
    Status,
    check,
    check_lemma,
    fit_uniform,
    lhs_terms,
    rhs_value,
    sweep,
)
from cfkit.rational import Rational
from cfkit.sequences import fib, gibonacci

I = IdentityId


def test_lhs_terms_shapes():
    assert lhs_terms(I.THM1_GIBONACCI, CaseParams(2, 3)) == [4, 4, 9]
    assert lhs_terms(I.THM4_ELEVEN3, CaseParams(0)) == [3]
    assert lhs_terms(I.COR_GENERAL_LUCAS, CaseParams(1, 4)) == [76, 76]
    assert lhs_terms(I.THM5_SWAPPED_LUCAS, CaseParams(2)) == [11, 11, 11]
    assert lhs_terms(I.EXT_ELEVEN8, CaseParams(1)) == [11, 8]


def test_lemmas_have_no_cf_side():
    with pytest.raises(NotACFIdentity):
        lhs_terms(I.LEM_4F, CaseParams(3))
    with pytest.raises(NotACFIdentity):
        rhs_value(I.LEM_BRIDGE, CaseParams(5))


def test_rhs_values():
    assert rhs_value(I.THM2_FIB_FORM, CaseParams(2, 3)) == Rational(157, 37)
    assert rhs_value(I.THM6_ELEVEN_FIB, CaseParams(2)) == Rational(1353, 122)
    assert rhs_value(I.EXT_ELEVEN8, CaseParams(2)) == Rational(987, 89)
    assert rhs_value(I.THM3_ONES, CaseParams(1, 0)) is None


def test_check_known_cases():
    outcome = check(I.ID117, CaseParams(2))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(55, 13)

    outcome = check(I.THM1_GIBONACCI, CaseParams(2, -4))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(81, 19)

    outcome = check(I.THM3_ONES, CaseParams(1, 0))
    assert outcome.status is Status.SKIPPED
    assert outcome.lhs is None and outcome.rhs is None

    outcome = check(I.THM1_GIBONACCI, CaseParams(2, -2))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(13, 3)


def test_negative_tail_values_match_gibonacci_tables():
    # [4,4,-1] and [4,4,-3] evaluate to the ratios the G tables force
    assert evaluate([4, 4, -1]) == Rational(13, 3)
    assert evaluate([4, 4, -1]) == Rational(gibonacci(-2, 10), gibonacci(-2, 7))
    assert evaluate([4, 4, -3]) == Rational(47, 11)
    assert evaluate([4, 4, -3]) == Rational(gibonacci(-3, 10), gibonacci(-3, 7))


def test_check_lemma_cases():
    outcome = check_lemma(I.LEM_4F, CaseParams(10))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(220)  # 4*55 = 144 + 55 + 21

    outcome = check_lemma(I.LEM_BRIDGE, CaseParams(10))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(610)  # 5*(123 - 1)

    outcome = check_lemma(I.LEM_29F, CaseParams(0))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(377)  # 0 + 29*13


def test_lemma_bridge_domain():
    with pytest.raises(BadDomain):
        check_lemma(I.LEM_BRIDGE, CaseParams(7))


def test_check_lemma_rejects_cf_identities():
    with pytest.raises(ValueError):
        check_lemma(I.ID117, CaseParams(1))


def test_sweep_id117_base_cases():
    report = sweep(I.ID117, (0, 2))
    assert (report.passed, report.failed, report.skipped) == (3, 0, 0)
    values = [outcome.lhs for _, outcome in report.cases]
    assert values == [Rational(3, 1), Rational(13, 3), Rational(55, 13)]


def test_sweep_thm3_degenerate_column():
    report = sweep(I.THM3_ONES, (0, 5), (0, 0))
    statuses = [outcome.status for _, outcome in report.cases]
    assert statuses == [Status.PASS, Status.SKIPPED] + [Status.PASS] * 4
    # m = 0 gives [0] = 0, which the right-hand side also gives
    assert report.cases[0][1].lhs == Rational(0, 1)


def test_sweep_thm5_small_cases_pass():
    report = sweep(I.THM5_SWAPPED_LUCAS, (0, 2))
    assert (report.passed, report.failed, report.skipped) == (3, 0, 0)


def test_sweep_signature_validation():
    with pytest.raises(MissingParam):
        sweep(I.THM1_GIBONACCI, (0, 5))
    with pytest.raises(ExtraParam):
        sweep(I.ID117, (0, 5), (0, 1))
    with pytest.raises(MissingParam):
        check(I.THM3_ONES, CaseParams(1))
    with pytest.raises(ExtraParam):
        check(I.ID117, CaseParams(1, 3))


def test_sweep_orders_cases_lexicographically():
    report = sweep(I.THM2_FIB_FORM, (0, 2), (-1, 1))
    grid = [(params.m, params.k) for params, _ in report.cases]
    assert grid == sorted(grid)


def test_lem_bridge_sweep_steps_by_five():
    report = sweep(I.LEM_BRIDGE, (0, 25))
    assert [params.m for params, _ in report.cases] == [0, 5, 10, 15, 20, 25]


def test_thm5_diverges_from_m_equals_three():
    # The swapped-Lucas difference form tracks the true convergents only
    # while an index below 2 is involved; [11,11,11,11] is the first
    # length where the ten-step shift crosses the irregular seeds.
    outcome = check(I.THM5_SWAPPED_LUCAS, CaseParams(3))
    assert outcome.status is Status.FAIL
    assert outcome.lhs == Rational(15005, 1353)
    assert outcome.rhs == Rational(15004, 1353)  # reduces to 1364/123
    assert outcome.rhs == Rational(1364, 123)
    for m in range(3, 11):
        assert check(I.THM5_SWAPPED_LUCAS, CaseParams(m)).status is Status.FAIL


def test_thm5_and_thm6_right_sides_agree_only_up_to_two():
    for m in range(3):
        assert rhs_value(I.THM5_SWAPPED_LUCAS, CaseParams(m)) == rhs_value(
            I.THM6_ELEVEN_FIB, CaseParams(m)
        )
    for m in range(3, 51):
        assert rhs_value(I.THM5_SWAPPED_LUCAS, CaseParams(m)) != rhs_value(
            I.THM6_ELEVEN_FIB, CaseParams(m)
        )


@pytest.mark.xfail(
    strict=True,
    reason="the swapped-Lucas difference form drifts below F(5m+10)/F(5m+5) "
    "from m = 3 on; the irregular seeds only compensate the ten-step index "
    "shift while an index below 2 is involved",
)
def test_thm5_and_thm6_right_sides_agree_everywhere():
    for m in range(101):
        assert rhs_value(I.THM5_SWAPPED_LUCAS, CaseParams(m)) == rhs_value(
            I.THM6_ELEVEN_FIB, CaseParams(m)
        )


def test_lem_bridge_holds_only_through_fifteen():
    for m in (0, 5, 10, 15):
        assert check_lemma(I.LEM_BRIDGE, CaseParams(m)).status is Status.PASS
    outcome = check_lemma(I.LEM_BRIDGE, CaseParams(20))
    assert outcome.status is Status.FAIL
    assert outcome.lhs == Rational(75020)
    assert outcome.rhs == Rational(75025)


def test_gibonacci_and_fibonacci_forms_agree():
    for m in range(0, 31):
        for k in range(-10, 11):
            assert rhs_value(I.THM1_GIBONACCI, CaseParams(m, k)) == rhs_value(
                I.THM2_FIB_FORM, CaseParams(m, k)
            )


def test_general_lucas_specializations():
    for m in range(61):
        assert rhs_value(I.COR_GENERAL_LUCAS, CaseParams(m, 0)) == Rational(
            fib(m + 2), fib(m + 1)
        )
        assert rhs_value(I.COR_GENERAL_LUCAS, CaseParams(m, 1)) == rhs_value(
            I.THM7_FOURS, CaseParams(m)
        )
        assert rhs_value(I.COR_GENERAL_LUCAS, CaseParams(m, 2)) == rhs_value(
            I.THM6_ELEVEN_FIB, CaseParams(m)
        )
        assert rhs_value(I.COR_GENERAL_LUCAS, CaseParams(m, 3)) == rhs_value(
            I.THM8_TWENTYNINES, CaseParams(m)
        )


def test_general_lucas_rejects_negative_k():
    with pytest.raises(BadDomain):
        lhs_terms(I.COR_GENERAL_LUCAS, CaseParams(0, -1))


def test_eleven_tail_indices_derived_by_brute_force():
    # direct evaluation pins the index patterns for the 8- and 13-tail
    # families before the catalog is trusted with them
    for m in range(6):
        assert evaluate([11] * m + [8]) == Rational(fib(5 * m + 6), fib(5 * m + 1))
        assert evaluate([11] * m + [13]) == Rational(fib(5 * m + 7), fib(5 * m + 2))


def test_catalog_passes_survive_the_backward_fold():
    spots = [
        (I.ID117, CaseParams(5)),
        (I.ID118, CaseParams(5)),
        (I.ID_LUCAS7, CaseParams(5)),
        (I.THM1_GIBONACCI, CaseParams(4, -7)),
        (I.THM2_FIB_FORM, CaseParams(4, 9)),
        (I.THM3_ONES, CaseParams(6, 5)),
        (I.THM4_ELEVEN3, CaseParams(4)),
        (I.THM6_ELEVEN_FIB, CaseParams(4)),
        (I.THM7_FOURS, CaseParams(4)),
        (I.THM8_TWENTYNINES, CaseParams(4)),
        (I.COR_GENERAL_LUCAS, CaseParams(4, 4)),
        (I.EXT_ELEVEN8, CaseParams(4)),
        (I.EXT_ELEVEN13, CaseParams(4)),
    ]
    for ident, params in spots:
        outcome = check(ident, params)
        assert outcome.status is Status.PASS
        try:
            folded = eval_fold(lhs_terms(ident, params))
        except IntermediateZero:
            continue
        assert folded == outcome.lhs


def test_fit_uniform():
    assert fit_uniform(11, 10) == 5
    assert fit_uniform(7, 10) is None
    assert fit_uniform(1, 10) == 1
    assert fit_uniform(4, 10) == 3
    with pytest.raises(ValueError):
        fit_uniform(0, 10)
    with pytest.raises(ValueError):
        fit_uniform(11, 2)
