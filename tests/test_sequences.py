from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfkit.errors import EvenOrder, NegativeIndex
from cfkit.sequences import (
    _fib_pair,
    fib,
    fib_comb,
    gibonacci,
    lucas,
    lucas_odd_index_of,
    lucas_swapped,
    scaled_fib,
    walk,
)


def backward_fib(n):
    """Oracle for negative indices: run the recurrence backward from (F_0, F_1)."""
    assert n <= 0
    a, b = 0, 1
    for _ in range(-n):
        a, b = b - a, a
    return a


def backward_lucas(n):
    assert n <= 0
    a, b = 2, 1
    for _ in range(-n):
        a, b = b - a, a
    return a


def forward(x0, x1):
    """Oracle: x_0, x_1, x_2, ... of x_{n+1} = x_n + x_{n-1} from seeds x0, x1."""
    while True:
        yield x0
        x0, x1 = x1, x0 + x1


_N = 3000
_FIBS = list(islice(forward(0, 1), _N + 2))
_LUCAS = list(islice(forward(2, 1), _N + 1))


# Indices in any order and sign; the example adds every index 0..N in turn.
@settings(deadline=None)
@given(st.lists(st.integers(-_N, _N), min_size=1, max_size=120))
@example(list(range(_N + 1)))
def test_fib_and_lucas_match_linear_recurrence(indices):
    for n in indices:
        assert fib(n) == _FIBS[abs(n)] * (-1 if n < 0 and n % 2 == 0 else 1)
        assert lucas(n) == _LUCAS[abs(n)] * (-1 if n < 0 and n % 2 else 1)
        assert _fib_pair(abs(n)) == (_FIBS[abs(n)], _FIBS[abs(n) + 1])


def test_fib_large_index_matches_linear_recurrence():
    f_n, f_next = islice(forward(0, 1), 50_000, 50_002)
    assert fib(50_000) == f_n
    assert lucas(50_000) == 2 * f_next - f_n


def test_fib_values():
    assert [fib(n) for n in range(12)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert fib(10) == 55
    assert fib(-1) == 1
    assert fib(-2) == -1


def test_fib_negative_extension_matches_backward_recurrence():
    for n in range(-60, 1):
        assert fib(n) == backward_fib(n)


def test_fib_comb_values():
    assert fib_comb(0) == 1
    assert fib_comb(4) == 5
    assert fib_comb(11) == 144


def test_fib_comb_equals_shifted_fib():
    for n in range(201):
        assert fib_comb(n) == fib(n + 1)


def test_fib_comb_rejects_negative_index():
    with pytest.raises(NegativeIndex):
        fib_comb(-1)


def test_lucas_values():
    assert [lucas(n) for n in range(12)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123, 199]
    assert lucas(0) == 2
    assert lucas(11) == 199
    assert lucas(-3) == -4


def test_lucas_negative_extension_matches_backward_recurrence():
    for n in range(-60, 1):
        assert lucas(n) == backward_lucas(n)


def test_lucas_is_fib_neighbor_sum():
    for n in range(-20, 201):
        assert lucas(n) == fib(n + 1) + fib(n - 1)


def test_lucas_swapped_seeds_and_values():
    assert [lucas_swapped(n) for n in range(8)] == [1, 2, 3, 4, 7, 11, 18, 29]
    assert lucas_swapped(10) == 123
    assert lucas_swapped(15) == 1364
    assert lucas_swapped(5) == 11


def test_lucas_swapped_clamps_negative_indices():
    assert lucas_swapped(-1) == 0
    assert lucas_swapped(-5) == 0
    assert lucas_swapped(-10) == 0


def test_lucas_swapped_rejoins_lucas_from_index_two():
    for n in range(2, 3001):
        assert lucas_swapped(n) == lucas(n)


def test_gibonacci_values():
    assert gibonacci(3, 7) == 37
    assert gibonacci(-4, 10) == -81
    for n in range(21):
        assert gibonacci(0, n) == fib(n)


def test_gibonacci_rejects_negative_index():
    with pytest.raises(NegativeIndex):
        gibonacci(3, -1)


def test_gibonacci_closed_form_values():
    assert gibonacci(3, 0) == 3
    assert gibonacci(-2, 10) == -13
    assert gibonacci(5, 11) == 364


def test_gibonacci_matches_closed_form():
    for k in range(-50, 51):
        for n, value in zip(range(201), forward(k, 1)):
            assert gibonacci(k, n) == value


def test_recurrence_holds_for_every_kind():
    for n in range(2, 120):
        assert fib(n) == fib(n - 1) + fib(n - 2)
        assert fib_comb(n) == fib_comb(n - 1) + fib_comb(n - 2)
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)
        assert gibonacci(9, n) == gibonacci(9, n - 1) + gibonacci(9, n - 2)
    for n in range(4, 120):
        assert lucas_swapped(n) == lucas_swapped(n - 1) + lucas_swapped(n - 2)


def test_scaled_fib_values():
    assert scaled_fib(5, 4) == 1353
    assert scaled_fib(3, 2) == 4
    assert scaled_fib(7, 2) == 29
    assert scaled_fib(1, 9) == fib(9)


def test_scaled_fib_rejects_even_or_nonpositive_order():
    with pytest.raises(EvenOrder):
        scaled_fib(2, 3)
    with pytest.raises(EvenOrder):
        scaled_fib(0, 3)
    with pytest.raises(EvenOrder):
        scaled_fib(-3, 3)


def test_scaled_fib_satisfies_lucas_recurrence():
    # b_{n+1} = lucas(t) * b_n + b_{n-1}, the recurrence behind the
    # uniform continued fractions [L_t, L_t, ...].
    for t in (1, 3, 5, 7, 9, 11):
        for n in range(1, 101):
            assert scaled_fib(t, n + 1) == lucas(t) * scaled_fib(t, n) + scaled_fib(t, n - 1)


_KINDS = st.one_of(
    st.sampled_from([("fib", ()), ("fib_comb", ()), ("lucas", ()), ("lucas_swapped", ())]),
    st.tuples(st.just("gibonacci"), st.tuples(st.integers(-50, 50))),
    # odd t <= 9, and orders scaled_fib rejects
    st.tuples(st.just("scaled_fib"), st.tuples(st.integers(-2, 9))),
)


@settings(deadline=None, max_examples=300)
@given(_KINDS, st.integers(-15, 15), st.integers(1, 12))
@example(("lucas_swapped", ()), -1, 1)  # crosses the irregular start at 2
@example(("lucas_swapped", ()), -10, 5)
@example(("fib", ()), -7, 3)
@example(("scaled_fib", (9,)), 0, 12)
@example(("scaled_fib", (4,)), 3, 1)  # even order
@example(("gibonacci", (-7,)), -1, 2)  # negative index
def test_walk_equals_direct_calls(kind, start, stride):
    name, lead = kind
    fn = globals()[name]
    values = walk(name, lead, start, stride)
    try:
        fn(*lead, start)
    except (NegativeIndex, EvenOrder) as exc:
        with pytest.raises(type(exc)):
            next(values)
        return
    indices = range(start, start + 25 * stride, stride)
    stepped = list(islice(values, len(indices)))
    assert stepped == [fn(*lead, n) for n in indices]
    assert all(type(v) is int for v in stepped)  # Decimal only when asked for


def test_lucas_odd_index_of():
    assert lucas_odd_index_of(1) == 1
    assert lucas_odd_index_of(4) == 3
    assert lucas_odd_index_of(11) == 5
    assert lucas_odd_index_of(29) == 7
    assert lucas_odd_index_of(76) == 9
    assert lucas_odd_index_of(199) == 11
    assert lucas_odd_index_of(18) is None
    assert lucas_odd_index_of(2) is None
    assert lucas_odd_index_of(3) is None
    with pytest.raises(ValueError):
        lucas_odd_index_of(0)
