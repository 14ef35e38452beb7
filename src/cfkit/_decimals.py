"""Exact integer arithmetic in decimal.Decimal, for the commands that print long runs of big integers.

str() of an int takes quadratic time in its digits on Python 3.10 and
3.11; str() of an integer-valued Decimal takes linear time, because
libmpdec keeps the digits in base 10**19. seq, convergents and a lemma
sweep therefore step their values in Decimal, inside exact_context(), and
print them with int_str(). Each imports this module only when it runs,
so no other command loads decimal.
"""

import decimal
import sys


def exact_context():
    """A decimal.localcontext in which integer-valued Decimals add, multiply and divide exactly.

    Its precision and exponents are the largest libmpdec takes, and it traps
    Inexact and Rounded, so a value that did not fit would raise rather than
    print a wrong digit.
    """
    context = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
    return decimal.localcontext(context)


# Interpreters before 3.10.7 have no integer-string digit limit: int() is 0, no limit.
_max_str_digits = getattr(sys, "get_int_max_str_digits", int)


def int_str(value: decimal.Decimal) -> str:
    """The digits str() gives for the int an integer-valued Decimal holds, in linear time.

    A zero prints as 0: a Decimal zero can carry a sign, an int's cannot.
    A value with more digits than the interpreter's integer-string limit
    goes through str(int(value)), so it fails with int's own ValueError,
    as the value's line did when it was an int (an internal error, exit 4).
    """
    if value.adjusted() >= _max_str_digits() > 0:
        return str(int(value))
    text = str(value)
    return "0" if text == "-0" else text
