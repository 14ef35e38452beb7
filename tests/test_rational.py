import random
from math import gcd

import pytest

from cfkit.errors import ZeroDenominator
from cfkit.rational import Rational


def test_reduces_at_construction():
    assert str(Rational(51, 22)) == "51/22"
    r = Rational(6765, 610)
    assert (r.num, r.den) == (1353, 122)


def test_sign_normalizes_to_numerator():
    assert Rational(-13, -3) == Rational(13, 3)
    r = Rational(13, -3)
    assert (r.num, r.den) == (-13, 3)


def test_zero_is_zero_over_one():
    assert (Rational(0, 7).num, Rational(0, 7).den) == (0, 1)
    assert (Rational(0, -7).num, Rational(0, -7).den) == (0, 1)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        Rational(3, 0)


def test_equality_is_structural():
    assert Rational(1353, 122) == Rational(6765, 610)
    assert Rational(0, 1) == Rational(0, 5)
    assert Rational(13, 3) != Rational(13, 5)
    assert Rational(7, 1) == 7
    assert Rational(7, 2) != 7
    # Any other type is left to its own __eq__ (NotImplemented), so no float or string is equal
    assert (Rational(1) == 1.0) is False
    assert (Rational(1, 2) == "1/2") is False


def test_only_zero_is_false():
    assert not Rational(0, 7)
    assert Rational(1, 3) and Rational(-1, 3)


def test_no_arithmetic_is_offered():
    assert not hasattr(Rational, "reciprocal")
    with pytest.raises(TypeError):
        Rational(1, 3) + 4
    with pytest.raises(TypeError):
        4 + Rational(1, 3)


def test_hashable_and_usable_in_sets():
    assert len({Rational(1, 2), Rational(2, 4), Rational(3, 4)}) == 2


def test_invariants_hold_over_random_inputs():
    rng = random.Random(1201)
    for _ in range(2000):
        num = rng.randint(-10**12, 10**12)
        den = rng.randint(1, 10**12) * rng.choice((1, -1))
        r = Rational(num, den)
        assert r.den > 0
        assert gcd(abs(r.num), r.den) == 1
