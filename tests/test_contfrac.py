import random
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit.contfrac import (
    _LEAF_TERMS,
    _run_power,
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
    assert all(type(v) is int for v in table.p + table.q)


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


@settings(deadline=None)
@given(st.lists(st.integers(-9, 9) | st.integers(-(10**30), 10**30), min_size=1, max_size=60))
def test_determinant_invariant_holds_on_every_row(terms):
    table = convergents(terms)
    p = (1,) + table.p  # prepend the virtual seed p_{-1}
    q = (0,) + table.q
    for i in range(len(terms)):
        assert p[i + 1] * q[i] - p[i] * q[i + 1] == (-1) ** (i + 1)


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


def _tree_terms(n):
    """n terms of mixed sign and size, none zero."""
    return [(-1) ** i * (i % 9 + 1) * (10**20 if i % 5 == 0 else 1) for i in range(n)]


# The product tree's boundaries: one leaf, a leaf exactly full or one term
# over, two and three leaves, and 32*7 + 1 terms, whose odd number of
# leaves carries a last piece up a level.
@settings(deadline=None)
@given(_terms | _zero_q_terms)
@example(_tree_terms(1))
@example(_tree_terms(31))
@example(_tree_terms(32))
@example(_tree_terms(33))
@example(_tree_terms(64))
@example(_tree_terms(65))
@example(_tree_terms(97))
@example(_tree_terms(32 * 7 + 1))
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


# Runs mix counts below and above the leaf size (so both the flat leaves and
# the matrix powers are exercised) with zero counts, which contribute nothing.
_runs = st.lists(
    st.tuples(_term, st.integers(0, 3) | st.integers(0, 300)), min_size=1, max_size=8
).filter(lambda runs: any(count for _, count in runs))


def _expand(runs):
    return [a for a, count in runs for _ in range(count)]


# The same boundaries laid out flat, and short runs that fill one leaf
# exactly before a long run.
@settings(deadline=None)
@given(_runs)
@example([(a, 1) for a in _tree_terms(1)])
@example([(a, 1) for a in _tree_terms(31)])
@example([(a, 1) for a in _tree_terms(32)])
@example([(a, 1) for a in _tree_terms(33)])
@example([(a, 1) for a in _tree_terms(64)])
@example([(a, 1) for a in _tree_terms(65)])
@example([(a, 1) for a in _tree_terms(97)])
@example([(a, 1) for a in _tree_terms(32 * 7 + 1)])
@example([(3, 31), (-2, 1), (7, 40)])
@example([(2, 16), (5, 16), (7, 40), (1, 3)])
def test_evaluate_runs_matches_evaluate_on_expansion(runs):
    terms = _expand(runs)
    try:
        want = evaluate(terms)
    except UndefinedValue:
        with pytest.raises(UndefinedValue):
            evaluate_runs(runs)
        return
    assert evaluate_runs(runs) == want


def _runs_with_zero_denominator(runs):
    terms = _expand(runs)
    return runs + [(a, 1) for a in _with_zero_denominator(terms)[len(terms):]]


@settings(deadline=None)
@given(
    st.lists(st.tuples(_term, st.integers(1, 80)), min_size=1, max_size=5)
    .filter(lambda runs: convergents(_expand(runs)).q[-1] != 0)
    .map(_runs_with_zero_denominator)
)
def test_evaluate_runs_rejects_zero_denominator(runs):
    with pytest.raises(UndefinedValue):
        evaluate(_expand(runs))
    with pytest.raises(UndefinedValue):
        evaluate_runs(runs)


@given(st.lists(st.tuples(_term, st.just(0)), max_size=5))
def test_evaluate_runs_rejects_no_terms(runs):
    with pytest.raises(EmptyCF):
        evaluate_runs(runs)


def test_evaluate_runs_rejects_negative_count():
    with pytest.raises(ValueError):
        evaluate_runs([(4, -1), (3, 1)])


# A list of calls with counts that run past three leaves' worth of terms.
_power_call = st.tuples(_term | st.integers(-30, 30), st.integers(0, max(200, 3 * _LEAF_TERMS)))


@settings(deadline=None)
@given(st.lists(_power_call, min_size=1, max_size=40))
def test_run_power_equals_repeated_multiplication(calls):
    for a, n in calls:
        p, p_prev, q, q_prev = 1, 0, 0, 1
        for _ in range(n):
            p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
        assert _run_power(a, n) == (p, p_prev, q, q_prev)


@settings(deadline=None)
@given(_runs)
def test_evaluated_values_are_reduced(runs):
    for value in (lambda: evaluate(_expand(runs)), lambda: evaluate_runs(runs)):
        try:
            r = value()
        except UndefinedValue:
            return
        assert r.den > 0
        assert gcd(r.num, r.den) == 1


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


@given(
    st.integers(-(10**40), 10**40),
    st.integers(1, 10**40),
)
def test_expand_rational_inverts_evaluate(num, den):
    r = Rational(num, den)
    assert evaluate(expand_rational(r)) == r


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
    # '²'.isdigit() holds, but int() rejects it: it is no decimal digit
    with pytest.raises(ParseError) as err:
        parse_cf("[²]")
    assert err.value.position == 1
    with pytest.raises(ParseError) as err:
        parse_cf("[3x²]")
    assert err.value.position == 3
    assert parse_cf("[٣,2]") == [3, 2]  # Arabic-Indic digits are decimal


def test_parse_runs_keeps_items_unexpanded():
    assert parse_runs("[4x1000000000, 3]") == [(4, 1_000_000_000), (3, 1)]
    assert parse_runs("[2; 3, 7]") == [(2, 1), (3, 1), (7, 1)]
    assert parse_runs("[4x0, 3]") == [(4, 0), (3, 1)]
    with pytest.raises(EmptyCF):
        parse_runs("[4x0, 5x0]")
    assert evaluate_runs(parse_runs("[1x1000000]")).num.bit_length() > 690_000


# Malformed texts with the exception class, message and position each one
# raises; the grammar's spelling may change, these may not.
_REJECTED = [
    ("", ParseError, "expected '[' (at position 0)", 0),
    ("   ", ParseError, "expected '[' (at position 3)", 3),
    ("2,3", ParseError, "expected '[' (at position 0)", 0),
    ("[", ParseError, "expected an integer (at position 1)", 1),
    ("[ ]", ParseError, "expected an integer (at position 2)", 2),
    ("[+]", ParseError, "expected an integer (at position 1)", 1),
    ("[++2]", ParseError, "expected an integer (at position 1)", 1),
    ("[- 3]", ParseError, "expected an integer (at position 1)", 1),
    ("[;2]", ParseError, "expected an integer (at position 1)", 1),
    ("[4x]", ParseError, "expected an integer (at position 3)", 3),
    ("[4 x ]", ParseError, "expected an integer (at position 5)", 5),
    ("[4x-2]", ParseError, "expected an integer (at position 3)", 3),
    ("[4x+2]", ParseError, "expected an integer (at position 3)", 3),
    ("[4x3x2]", ParseError, "expected ',' or ']' (at position 4)", 4),
    ("[4x 3 x]", ParseError, "expected ',' or ']' (at position 6)", 6),
    ("[4X2]", ParseError, "expected ',' or ']' (at position 2)", 2),
    ("[4 5]", ParseError, "expected ',' or ']' (at position 3)", 3),
    ("[4,]", ParseError, "expected an integer (at position 3)", 3),
    ("[2;]", ParseError, "expected an integer (at position 3)", 3),
    ("[2,,3]", ParseError, "expected an integer (at position 3)", 3),
    ("[2; 3; 7]", ParseError, "expected ',' or ']' (at position 5)", 5),
    ("[2, 3; 7]", ParseError, "expected ',' or ']' (at position 5)", 5),
    ("[2,3", ParseError, "expected ',' or ']' (at position 4)", 4),
    ("[2x5", ParseError, "expected ',' or ']' (at position 4)", 4),
    ("[2]]", ParseError, "trailing input after ']' (at position 3)", 3),
    ("[2,3] x", ParseError, "trailing input after ']' (at position 6)", 6),
    ("[2,3,7] extra", ParseError, "trailing input after ']' (at position 8)", 8),
    ("[4x0]", EmptyCF, "expansion produced no terms", None),
    ("[4x0, 5x0]", EmptyCF, "expansion produced no terms", None),
]


@pytest.mark.parametrize(("text", "error", "message", "position"), _REJECTED)
def test_parse_runs_rejections_are_pinned(text, error, message, position):
    with pytest.raises(error) as err:
        parse_runs(text)
    assert type(err.value) is error
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


def test_parse_runs_takes_any_unicode_space():
    assert parse_runs("[\u30004\u3000,\u30003]") == [(4, 1), (3, 1)]  # ideographic space
    assert parse_runs("\x1c[\x1c4\x1cx\x1c2\x1c]\x1c") == [(4, 2)]  # U+001C, a str.isspace() character
    assert parse_runs(" [ 4 x 2 , 3 ] \u3000") == [(4, 2), (3, 1)]


# The grammar's characters, look-alikes of them and Unicode spaces and
# digits. Texts stay short, so no digit string reaches the interpreter's
# integer-string limit.
_grammar_text = st.text(st.sampled_from("[]x,;+-0123456789 \t\u3000\x1c\xa0²٣Xa"), max_size=24)


@given(_grammar_text)
def test_parse_runs_returns_runs_or_a_located_error(text):
    try:
        runs = parse_runs(text)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
        assert str(err).endswith(f" (at position {err.position})")
        return
    except EmptyCF:
        return
    assert runs and any(count for _, count in runs)
    assert all(type(a) is int and type(count) is int and count >= 0 for a, count in runs)


_item_text = st.tuples(
    st.integers(-(10**6), 10**6), st.none() | st.integers(0, 40), st.sampled_from(["", " ", "  "])
).map(lambda t: f"{t[2]}{t[0]}{t[2]}" + ("" if t[1] is None else f"x{t[2]}{t[1]}"))


@given(st.lists(_item_text, min_size=1, max_size=8), st.sampled_from([",", ";"]))
def test_parse_cf_is_the_expansion_of_parse_runs(items, first_sep):
    text = "[" + items[0] + "".join(
        (first_sep if i == 0 else ",") + item for i, item in enumerate(items[1:])
    ) + "]"
    try:
        runs = parse_runs(text)
    except EmptyCF:
        with pytest.raises(EmptyCF):
            parse_cf(text)
        return
    assert parse_cf(text) == _expand(runs)


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


def _surd_by_repeated_state(d):
    """Reference: run the (P, Q) recurrence until a state repeats; the period starts there."""
    a0 = isqrt(d)
    period, seen = [], {}
    p, q = a0, d - a0 * a0
    while (p, q) not in seen:
        seen[(p, q)] = len(period)
        a = (a0 + p) // q
        period.append(a)
        p = a * q - p
        q = (d - p * p) // q
    return a0, tuple(period[seen[(p, q)] :])


def test_surd_matches_the_repeated_state_reference_within_an_exact_budget():
    for d in range(2, 10**4 + 1):
        if isqrt(d) ** 2 == d:
            continue
        a0, period = _surd_by_repeated_state(d)
        assert surd_cf(d, max_terms=len(period)) == (a0, period), d
        with pytest.raises(PeriodNotFound):
            surd_cf(d, max_terms=len(period) - 1)


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


# Periods of sqrt(d) for d <= 10**5 stay far below surd_cf's default term budget.
@given(st.integers(2, 10**5))
def test_surd_period_is_a_palindrome_closed_by_twice_a0(d):
    try:
        expansion = surd_cf(d)
    except PerfectSquare:
        return
    assert expansion.period[-1] == 2 * expansion.a0
    body = expansion.period[:-1]
    assert body == body[::-1]


# The (P, Q) recurrence against a route that shares no value with it. With
# r the period length and p_i/q_i the convergents of [a0; a1, ..., a_{r-1}],
# the period without its final 2*a0, sqrt(d) = [a0; a1, ..., a_{r-1},
# a0 + sqrt(d)] holds exactly when p_{r-1} = a0*q_{r-1} + q_{r-2} and
# d*q_{r-1} = a0*p_{r-1} + p_{r-2}; then p_{r-1}^2 - d*q_{r-1}^2 = (-1)^r.
# This proves the value, not that the period is minimal.
@settings(deadline=None, max_examples=200)
@given(st.integers(2, 10**7).filter(lambda d: isqrt(d) ** 2 != d))
@example(19)  # the paper's opening example, period 6
@example(2)  # r = 1: p_{r-2}/q_{r-2} is 1/0
@example(9_999_991)  # a period of 8 096 terms
def test_surd_period_satisfies_the_convergent_certificate(d):
    a0, period = surd_cf(d, max_terms=10**5)
    r = len(period)
    table = convergents([a0, *period[:-1]])
    ps, qs = (1, *table.p), (0, *table.q)  # index i + 1 holds p_i, q_i; index 0 holds p_{-1}, q_{-1}
    p, p_prev, q, q_prev = ps[-1], ps[-2], qs[-1], qs[-2]
    assert p == a0 * q + q_prev
    assert d * q == a0 * p + p_prev
    assert p * p - d * q * q == (-1) ** r
