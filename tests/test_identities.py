import pickle

import pytest

from cfkit import contfrac, identities, sequences
from cfkit.contfrac import eval_fold, evaluate
from cfkit.errors import BadDomain, ExtraParam, IntermediateZero, MissingParam
from cfkit.identities import CaseParams, IdentityId, Status, fit_uniform, run_case, sweep
from cfkit.rational import Rational
from cfkit.sequences import fib, gibonacci, lucas, lucas_odd_index_of

I = IdentityId


def _lhs_terms(ident, params):
    """The term list of a continued-fraction entry's left side at a case, as run_case() evaluates it in runs."""
    return contfrac._expand(identities._runs(ident.lhs, *params))


def test_identity_members_keep_their_numbering_repr_and_pickles():
    assert [i.value for i in IdentityId] == list(range(1, 22))  # declaration order
    assert repr(I.ID117) == "<IdentityId.ID117: 1>"
    for ident in IdentityId:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(ident, protocol)) is ident
        assert IdentityId(ident.value) is ident
        assert IdentityId[ident.name] is ident


def test_lhs_terms_shapes():
    assert _lhs_terms(I.THM1_GIBONACCI, CaseParams(2, 3)) == [4, 4, 9]
    assert _lhs_terms(I.THM4_ELEVEN3, CaseParams(0)) == [3]
    assert _lhs_terms(I.COR_GENERAL_LUCAS, CaseParams(1, 4)) == [76, 76]
    assert _lhs_terms(I.THM5_SWAPPED_LUCAS, CaseParams(2)) == [11, 11, 11]
    assert _lhs_terms(I.EXT_ELEVEN8, CaseParams(1)) == [11, 8]


def test_the_lemmas_are_exactly_the_lem_entries():
    lemmas = {ident.name for ident in IdentityId if ident.is_lemma}
    assert lemmas == {"LEM_3F", "LEM_4F", "LEM_L32", "LEM_F9", "LEM_11F", "LEM_29F", "LEM_BRIDGE"}
    assert lemmas == {ident.name for ident in IdentityId if ident.name.startswith("LEM_")}


def test_rhs_values():
    assert run_case(I.THM2_FIB_FORM, CaseParams(2, 3)).rhs == Rational(157, 37)
    assert run_case(I.THM6_ELEVEN_FIB, CaseParams(2)).rhs == Rational(1353, 122)
    assert run_case(I.EXT_ELEVEN8, CaseParams(2)).rhs == Rational(987, 89)
    assert run_case(I.THM3_ONES, CaseParams(1, 0)).rhs is None


def test_check_known_cases():
    outcome = run_case(I.ID117, CaseParams(2))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(55, 13)

    outcome = run_case(I.THM1_GIBONACCI, CaseParams(2, -4))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(81, 19)

    outcome = run_case(I.THM3_ONES, CaseParams(1, 0))
    assert outcome.status is Status.SKIPPED
    assert outcome.lhs is None and outcome.rhs is None

    outcome = run_case(I.THM1_GIBONACCI, CaseParams(2, -2))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(13, 3)


def test_negative_tail_values_match_gibonacci_tables():
    # [4,4,-1] and [4,4,-3] evaluate to the ratios the G tables force
    assert evaluate([4, 4, -1]) == Rational(13, 3)
    assert evaluate([4, 4, -1]) == Rational(gibonacci(-2, 10), gibonacci(-2, 7))
    assert evaluate([4, 4, -3]) == Rational(47, 11)
    assert evaluate([4, 4, -3]) == Rational(gibonacci(-3, 10), gibonacci(-3, 7))


def test_check_lemma_cases():
    outcome = run_case(I.LEM_4F, CaseParams(10))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(220)  # 4*55 = 144 + 55 + 21

    outcome = run_case(I.LEM_BRIDGE, CaseParams(10))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(610)  # 5*(123 - 1)

    outcome = run_case(I.LEM_29F, CaseParams(0))
    assert outcome.status is Status.PASS
    assert outcome.lhs == Rational(377)  # 0 + 29*13


def test_lemma_bridge_domain():
    with pytest.raises(BadDomain):
        run_case(I.LEM_BRIDGE, CaseParams(7))


def test_sweep_id117_base_cases():
    cases = list(sweep(I.ID117, (0, 2)))
    assert [outcome.status for _, outcome in cases] == [Status.PASS] * 3
    values = [outcome.lhs for _, outcome in cases]
    assert values == [Rational(3, 1), Rational(13, 3), Rational(55, 13)]


def test_sweep_thm3_degenerate_column():
    cases = list(sweep(I.THM3_ONES, (0, 5), (0, 0)))
    statuses = [outcome.status for _, outcome in cases]
    assert statuses == [Status.PASS, Status.SKIPPED] + [Status.PASS] * 4
    # m = 0 gives [0] = 0, which the right-hand side also gives
    assert cases[0][1].lhs == Rational(0, 1)


def test_sweep_thm5_small_cases_pass():
    assert [outcome.status for _, outcome in sweep(I.THM5_SWAPPED_LUCAS, (0, 2))] == [Status.PASS] * 3


def test_sweep_signature_validation():
    with pytest.raises(MissingParam):
        sweep(I.THM1_GIBONACCI, (0, 5))
    with pytest.raises(ExtraParam):
        sweep(I.ID117, (0, 5), (0, 1))
    with pytest.raises(MissingParam):
        run_case(I.THM3_ONES, CaseParams(1))
    with pytest.raises(ExtraParam):
        run_case(I.ID117, CaseParams(1, 3))


def test_sweep_orders_cases_lexicographically():
    grid = [(params.m, params.k) for params, _ in sweep(I.THM2_FIB_FORM, (0, 2), (-1, 1))]
    assert grid == sorted(grid)


def test_lem_bridge_sweep_steps_by_five():
    assert [params.m for params, _ in sweep(I.LEM_BRIDGE, (0, 25))] == [0, 5, 10, 15, 20, 25]


def test_thm5_diverges_from_m_equals_three():
    # The swapped-Lucas difference form tracks the true convergents only
    # while an index below 2 is involved; [11,11,11,11] is the first
    # length where the ten-step shift crosses the irregular seeds.
    outcome = run_case(I.THM5_SWAPPED_LUCAS, CaseParams(3))
    assert outcome.status is Status.FAIL
    assert outcome.lhs == Rational(15005, 1353)
    assert outcome.rhs == Rational(15004, 1353)  # reduces to 1364/123
    assert outcome.rhs == Rational(1364, 123)
    for m in range(3, 11):
        assert run_case(I.THM5_SWAPPED_LUCAS, CaseParams(m)).status is Status.FAIL


def test_thm5_and_thm6_right_sides_agree_only_up_to_two():
    for m in range(3):
        assert run_case(I.THM5_SWAPPED_LUCAS, CaseParams(m)).rhs == (
            run_case(I.THM6_ELEVEN_FIB, CaseParams(m)).rhs
        )
    for m in range(3, 51):
        assert run_case(I.THM5_SWAPPED_LUCAS, CaseParams(m)).rhs != (
            run_case(I.THM6_ELEVEN_FIB, CaseParams(m)).rhs
        )


@pytest.mark.xfail(
    strict=True,
    reason="the swapped-Lucas difference form drifts below F(5m+10)/F(5m+5) "
    "from m = 3 on; the irregular seeds only compensate the ten-step index "
    "shift while an index below 2 is involved",
)
def test_thm5_and_thm6_right_sides_agree_everywhere():
    for m in range(101):
        assert run_case(I.THM5_SWAPPED_LUCAS, CaseParams(m)).rhs == (
            run_case(I.THM6_ELEVEN_FIB, CaseParams(m)).rhs
        )


def test_lem_bridge_holds_only_through_fifteen():
    for m in (0, 5, 10, 15):
        assert run_case(I.LEM_BRIDGE, CaseParams(m)).status is Status.PASS
    outcome = run_case(I.LEM_BRIDGE, CaseParams(20))
    assert outcome.status is Status.FAIL
    assert outcome.lhs == Rational(75020)
    assert outcome.rhs == Rational(75025)


def test_lem_bridge_gap_is_fib_m_minus_15():
    # From m = 20 on the right side exceeds the left by exactly F(m-15);
    # the unscaled difference l(m) - l(m-10) falls short of F(m+5)/5 by F(m-15)/5.
    for m in range(20, 2001, 5):
        outcome = run_case(I.LEM_BRIDGE, CaseParams(m))
        assert outcome.rhs.num - outcome.lhs.num == fib(m - 15)


def test_gibonacci_and_fibonacci_forms_agree():
    for m in range(0, 31):
        for k in range(-10, 11):
            assert run_case(I.THM1_GIBONACCI, CaseParams(m, k)).rhs == (
                run_case(I.THM2_FIB_FORM, CaseParams(m, k)).rhs
            )


def test_general_lucas_specializations():
    for m in range(61):
        assert run_case(I.COR_GENERAL_LUCAS, CaseParams(m, 0)).rhs == Rational(
            fib(m + 2), fib(m + 1)
        )
        assert run_case(I.COR_GENERAL_LUCAS, CaseParams(m, 1)).rhs == (
            run_case(I.THM7_FOURS, CaseParams(m)).rhs
        )
        assert run_case(I.COR_GENERAL_LUCAS, CaseParams(m, 2)).rhs == (
            run_case(I.THM6_ELEVEN_FIB, CaseParams(m)).rhs
        )
        assert run_case(I.COR_GENERAL_LUCAS, CaseParams(m, 3)).rhs == (
            run_case(I.THM8_TWENTYNINES, CaseParams(m)).rhs
        )


def test_general_lucas_rejects_negative_k():
    with pytest.raises(BadDomain):
        run_case(I.COR_GENERAL_LUCAS, CaseParams(0, -1))


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
        outcome = run_case(ident, params)
        assert outcome.status is Status.PASS
        try:
            folded = eval_fold(_lhs_terms(ident, params))
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


def _fit_by_run_case(c, n_max):
    """fit_uniform() by its definition: the odd t with L(t) = c, if run_case() passes every m < n_max."""
    t = lucas_odd_index_of(c)
    if t is None:
        return None
    cases = (run_case(I.COR_GENERAL_LUCAS, CaseParams(m, t // 2)) for m in range(n_max))
    return t if all(outcome.status is Status.PASS for outcome in cases) else None


@pytest.mark.parametrize("n_max", [3, 4, 10, 37])
def test_fit_uniform_equals_its_run_case_definition(n_max):
    cs = list(range(1, 81)) + [lucas(t) for t in range(1, 22, 2)]
    assert [fit_uniform(c, n_max) for c in cs] == [_fit_by_run_case(c, n_max) for c in cs]


def _leaves(value):
    """The leaves of a catalog record, opening tuples, _Cf and _Lin by their fields."""
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, (identities._Cf, identities._Lin)):
        for name in type(value).__slots__:
            yield from _leaves(getattr(value, name))
    else:
        yield value


def test_every_record_is_plain_data():
    assert identities._Entry._fields == ("lhs", "rhs", "k_min", "m_step")
    for ident in IdentityId:
        for leaf in _leaves((ident.lhs, ident.rhs, ident.k_min, ident.m_step)):
            assert leaf is None or type(leaf) is int or type(leaf) is str, (ident.name, leaf)
            if type(leaf) is str:
                assert callable(getattr(sequences, leaf)), (ident.name, leaf)
        # Only a base names a sequence: the engine reads every other value's c0 and c1 as they are.
        tail = () if ident.is_lemma else (ident.lhs.tail,)
        others = [*tail, *(lin for form in ident.forms for coef, *_, p in form for lin in (coef, p))]
        assert all(lin is None or lin.of is None for lin in others), ident.name


def test_every_continued_fraction_entry_steps_m_by_one():
    # forms reads a convergent's denominator at m - 1, the numerator one term
    # back, and the engine's _left() appends one term per m: both hold only
    # where the entry is stated at every m.
    assert [ident.name for ident in IdentityId if not ident.is_lemma and ident.m_step != 1] == []


def test_takes_k_is_worked_out_from_the_record():
    takes_k = {ident for ident in IdentityId if ident.takes_k}
    assert takes_k == {I.THM1_GIBONACCI, I.THM2_FIB_FORM, I.THM3_ONES, I.COR_GENERAL_LUCAS}
    assert [I.COR_GENERAL_LUCAS.lhs.base(k) for k in range(6)] == [lucas(2 * k + 1) for k in range(6)]
