import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfkit.contfrac import (
    build_uniform,
    convergents,
    eval_fold,
    evaluate,
    expand_rational,
    parse_cf,
    surd_cf,
)
from cfkit.errors import (
    EmptyCF,
    IntermediateZero,
    ParseError,
    PerfectSquare,
    PeriodNotFound,
    UndefinedValue,
)
from cfkit.rational import Rational


def test_convergents_all_ones():
    table = convergents([1, 1, 1, 1, 1])
    assert table.final() == (8, 5)


def test_convergents_single_term():
    assert convergents([7]).final() == (7, 1)


def test_convergents_full_table():
    table = convergents([2, 3, 7])
    assert table.p == (2, 7, 51)
    assert table.q == (1, 3, 22)


def test_convergents_rejects_empty():
    with pytest.raises(EmptyCF):
        convergents([])


def test_determinant_invariant_on_random_terms():
    rng = random.Random(1301)
    for _ in range(1000):
        terms = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        table = convergents(terms)
        p = (0, 1) + table.p  # prepend the virtual seeds p_{-2}, p_{-1}
        q = (1, 0) + table.q
        for i in range(1, len(terms)):
            assert p[i + 2] * q[i + 1] - p[i + 1] * q[i + 2] == (-1) ** (i + 1)


def test_evaluate_known_values():
    assert evaluate([1, 5, 6, 8]) == Rational(302, 253)
    assert evaluate([4, 4, -5]) == Rational(81, 19)
    assert evaluate([11, 11, 11]) == Rational(1353, 122)
    assert evaluate([2, 3, 7]) == Rational(51, 22)


def test_evaluate_zero_final_denominator():
    with pytest.raises(UndefinedValue):
        evaluate([1, 0])


# Lengths are drawn uniformly from 1..300 so term lists fall on both sides
# of evaluate()'s product-tree leaf size, not only near the short end.
_term = st.integers(-9, 9) | st.integers(-(10**30), 10**30)
_terms = st.integers(1, 300).flatmap(lambda n: st.lists(_term, min_size=n, max_size=n))


def _with_zero_denominator(terms):
    """Extend terms by Y with q = 0 for the whole list.

    With prefix convergents (p, p'), (q, q') the combined denominator is
    q*p_Y + q'*q_Y, which vanishes when p_Y/q_Y = -q'/q.
    """
    table = convergents(terms)
    q = table.q[-1]
    q_prev = table.q[-2] if len(terms) > 1 else 0
    return terms + expand_rational(Rational(-q_prev, q))


_zero_q_terms = _terms.filter(lambda t: convergents(t).q[-1] != 0).map(_with_zero_denominator)


@settings(deadline=None)
@given(_terms | _zero_q_terms)
def test_evaluate_matches_final_convergent(terms):
    p, q = convergents(terms).final()
    if q == 0:
        with pytest.raises(UndefinedValue):
            evaluate(terms)
    else:
        assert evaluate(terms) == Rational(p, q)


@settings(deadline=None)
@given(_terms)
def test_evaluate_agrees_with_fold_where_fold_succeeds(terms):
    try:
        folded = eval_fold(terms)
    except IntermediateZero:
        return
    assert evaluate(terms) == folded


def test_eval_fold_known_values():
    assert eval_fold([4, 4, 3]) == Rational(55, 13)
    # hand evaluation: 0 + 1/3 = 1/3, then 2 + 3 = 5
    assert eval_fold([2, 0, 3]) == Rational(5, 1)
    assert evaluate([2, 0, 3]) == Rational(5, 1)


def test_eval_fold_rejects_zero_partial():
    with pytest.raises(IntermediateZero):
        eval_fold([0, 0])


def test_eval_fold_agrees_with_evaluate_when_defined():
    rng = random.Random(1302)
    checked = 0
    for _ in range(1000):
        terms = [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
        try:
            folded = eval_fold(terms)
        except IntermediateZero:
            continue
        assert folded == evaluate(terms)
        checked += 1
    assert checked > 500


def test_expand_known_values():
    assert expand_rational(Rational(51, 22)) == [2, 3, 7]
    assert expand_rational(Rational(5, 1)) == [5]
    assert expand_rational(Rational(302, 253)) == [1, 5, 6, 8]


def test_expand_negative_value_is_canonical():
    terms = expand_rational(Rational(-13, 3))
    assert terms == [-5, 1, 2]
    assert evaluate(terms) == Rational(-13, 3)


def test_expand_round_trip_and_canonical_form():
    rng = random.Random(1303)
    for _ in range(1000):
        r = Rational(rng.randint(-10**18, 10**18), rng.randint(1, 10**18))
        terms = expand_rational(r)
        assert evaluate(terms) == r
        assert all(a >= 1 for a in terms[1:])
        if len(terms) > 1:
            assert terms[-1] >= 2


def test_build_uniform():
    assert build_uniform(4, 2, 9) == [4, 4, 9]
    assert build_uniform(11, 3) == [11, 11, 11]
    assert build_uniform(4, 0, 3) == [3]
    with pytest.raises(EmptyCF):
        build_uniform(4, 0)


def test_parse_basic_and_repetition():
    assert parse_cf("[4x2, 9]") == [4, 4, 9]
    assert parse_cf("[2; 3, 7]") == [2, 3, 7]
    assert parse_cf("[4, 4, -5]") == [4, 4, -5]
    assert parse_cf("[7]") == [7]
    assert parse_cf(" [ 1 , 0 ] ") == [1, 0]
    assert parse_cf("[4 x 3]") == [4, 4, 4]


def test_parse_zero_count_contributes_nothing():
    assert parse_cf("[4x0, 3]") == [3]
    with pytest.raises(EmptyCF):
        parse_cf("[4x0]")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_cf("[ ]")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_cf("2,3,7")
    with pytest.raises(ParseError):
        parse_cf("[2,3,7] extra")
    with pytest.raises(ParseError):
        parse_cf("[2 3]")
    with pytest.raises(ParseError):
        parse_cf("[2; 3; 7]")  # ';' is only allowed as the first separator
    with pytest.raises(ParseError):
        parse_cf("[4x-2]")
    with pytest.raises(ParseError):
        parse_cf("[4,]")


def test_parse_round_trips_canonical_expansions():
    rng = random.Random(1304)
    for _ in range(200):
        r = Rational(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        terms = expand_rational(r)
        text = "[" + ",".join(str(a) for a in terms) + "]"
        assert parse_cf(text) == terms


def test_surd_19():
    expansion = surd_cf(19)
    assert expansion.a0 == 4
    assert expansion.period == (2, 1, 3, 1, 2, 8)
    assert len(expansion.period) == 6


def test_surd_2():
    expansion = surd_cf(2)
    assert expansion.a0 == 1
    assert expansion.period == (2,)


def test_surd_rejects_squares():
    with pytest.raises(PerfectSquare):
        surd_cf(16)
    with pytest.raises(PerfectSquare):
        surd_cf(1)
    with pytest.raises(ValueError):
        surd_cf(0)


def test_surd_respects_term_budget():
    with pytest.raises(PeriodNotFound):
        surd_cf(19, max_terms=3)


def test_surd_structure_up_to_200():
    # classical facts about sqrt(d) periods, used as oracle-free checks
    for d in range(2, 201):
        try:
            expansion = surd_cf(d)
        except PerfectSquare:
            continue
        assert expansion.period[-1] == 2 * expansion.a0
        body = expansion.period[:-1]
        assert body == body[::-1]
