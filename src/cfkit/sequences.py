"""Integer sequence generators: Fibonacci, Lucas and their relatives.

Index conventions are the whole game here, so each generator states its
seeds and its negative-index rule explicitly. The seeds plus the linear
recurrence x_{n+1} = x_n + x_{n-1} are the defining semantics. Every value
comes from one fast-doubling kernel for (F_n, F_{n+1}), which needs
O(log n) big-integer squarings and no table. The other sequences are
closed forms in F. The tests keep the O(n) recurrence as their oracle.

The kernel keeps nothing between calls: each call costs its own O(log n)
squarings. Runs of values at a fixed stride come from walk(), which calls
the kernel only for its seed and then steps a pair of values along the
recurrence; sweeps and the `seq` command both read their values from it.
"""

from .errors import EvenOrder, NegativeIndex, UsageError


def _fib_pair(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) for n >= 0 by fast doubling.

    Starts from (F_{k-1}, F_k) = (F_0, F_1) at k = 1, the top bit of n + 1,
    then walks the remaining bits, stepping k to 2k or 2k + 1 with two
    squarings:

        F_{2k+1} = 4 F_k^2 - F_{k-1}^2 + 2(-1)^k
        F_{2k-1} = F_k^2 + F_{k-1}^2
        F_{2k}   = F_{2k+1} - F_{2k-1}
    """
    a, b, sign = 0, 1, -2  # sign is 2(-1)^k
    for bit in bin(n + 1)[3:]:
        aa, bb = a * a, b * b
        odd = (bb << 2) - aa + sign
        lo = aa + bb
        even = odd - lo
        if bit == "1":
            a, b, sign = even, odd, -2
        else:
            a, b, sign = lo, even, 2
    return a, b


def fib(n: int) -> int:
    """Classical Fibonacci F_n (F_0 = 0, F_1 = 1), F_{-n} = (-1)^(n+1) F_n."""
    value = _fib_pair(abs(n))[0]
    return -value if n < 0 and n % 2 == 0 else value


def fib_comb(n: int) -> int:
    """Tiling-count Fibonacci f_n (f_0 = 1), defined only for n >= 0.

    f_n counts the square/domino tilings of a board of length n and
    equals fib(n + 1).
    """
    if n < 0:
        raise NegativeIndex(f"f_n is a tiling count, undefined for n = {n}")
    return _fib_pair(n)[1]


def lucas(n: int) -> int:
    """Lucas numbers L_n (L_0 = 2, L_1 = 1), L_{-n} = (-1)^n L_n.

    Computed as L_n = 2 F_{n+1} - F_n.
    """
    f, f_next = _fib_pair(abs(n))
    value = 2 * f_next - f
    return -value if n < 0 and n % 2 == 1 else value


def lucas_swapped(n: int) -> int:
    """Reordered Lucas sequence l_n = 1, 2, 3, 4, 7, 11, ...

    Seeds l_0..l_3 = 1, 2, 3, 4 (the first two Lucas values swapped, which
    makes l_3 = 4 irregular: l_1 + l_2 = 5); the recurrence applies from
    n = 4 on. Negative indices are clamped to 0. Since l_2, l_3 = 3, 4 are
    L_2, L_3, every l_n with n >= 2 is the Lucas number L_n.
    """
    if n < 0:
        return 0
    if n < 4:
        return (1, 2, 3, 4)[n]
    return lucas(n)


def gibonacci(k: int, n: int) -> int:
    """Fibonacci-recurrence sequence G with seeds G_0 = k, G_1 = 1.

    Computed by the closed form G_n = F_n + k F_{n-1}; n >= 0.
    """
    if n < 0:
        raise NegativeIndex(f"G is defined for n >= 0, got {n}")
    return fib(n) + k * fib(n - 1)


def scaled_fib(t: int, n: int) -> int:
    """Scaled Fibonacci F_{t*n} / F_t for odd t >= 1; always an integer.

    These are the convergent numerators of the uniform continued
    fractions [L_t, L_t, ...]: the family satisfies
    b_{n+1} = lucas(t)*b_n + b_{n-1}.
    """
    if t < 1 or t % 2 == 0:
        raise EvenOrder(f"order must be odd and positive, got {t}")
    if n < 0:
        raise NegativeIndex(f"scaled Fibonacci is defined for n >= 0, got {n}")
    value, rem = divmod(fib(t * n), fib(t))
    assert rem == 0
    return value


# Iterator is named only in an annotation, which postponed evaluation never
# resolves, so this module imports nothing for it.
def walk(name: str, lead: tuple[int, ...], start: int, stride: int, number=int) -> "Iterator[int]":
    """X(*lead, start), X(*lead, start + stride), ... for the function X named name; stride >= 0.

    The first value is a direct call, so a bad index or order raises where
    X raises. Every later value costs one constant step of a Fibonacci-type
    pair, (y_i, y_{i+1}) -> (y_{i+D}, y_{i+D+1}) =
    (F_{D-1} y_i + F_D y_{i+1}, F_D y_i + F_{D+1} y_{i+1}), which at D = 1
    is (y_{i+1}, y_i + y_{i+1}), one addition. y is X itself,
    stepped by D = stride, except for scaled_fib: there y is F at stride
    t, D = t*stride, and each value is divided by F_t, so S_t is never
    stepped with the recurrence b_{n+1} = L_t b_n + b_{n-1} of its
    continued fraction. lucas_swapped obeys the recurrence only from index
    2 on, so its values below that are direct calls. X is looked up in the
    module globals, so a wrapper put on the module attribute sees the seed
    calls.

    The values are of the type number: each direct call's int is
    converted after the call, and the step's constants once; the step is
    the same + and * for every type. number = decimal.Decimal, under
    a context whose precision holds every value and which traps Inexact
    and Rounded, steps exactly (a lemma sweep and `seq`, see `_decimals`),
    and str() of its integer values takes linear time. Decimal's // truncates
    toward zero where int's floors, but scaled_fib's division is exact, so
    the two agree on it.
    """
    fn = globals()[name]
    n = start
    if name == "lucas_swapped":
        while n < 2:
            yield number(fn(n))
            n += stride
    y = number(fn(*lead, n))
    yield y
    if name == "scaled_fib":
        s = lead[0]
        d = number(fib(s))
        y, y_next = number(fib(s * n)), number(fib(s * n + 1))
    else:
        s = d = 1
        y_next = number(fn(*lead, n + 1))
    if s * stride == 1:  # F_0 = 0 and F_1 = F_2 = 1
        while True:
            y, y_next = y_next, y + y_next
            yield y if d == 1 else y // d
    f, f_next = fib(s * stride), fib(s * stride + 1)
    f_prev, f, f_next = map(number, (f_next - f, f, f_next))
    while True:
        y, y_next = f_prev * y + f * y_next, f * y + f_next * y_next
        yield y if d == 1 else y // d


def lucas_odd_index_of(c: int) -> int | None:
    """The odd t with lucas(t) = c, or None if c is not an odd-index Lucas number.

    Odd-index Lucas numbers are strictly increasing (1, 4, 11, 29, 76, ...),
    so the scan stops as soon as they pass c.
    """
    if c < 1:
        raise UsageError(f"expected c >= 1, got {c}")
    t = 1
    while True:
        value = lucas(t)
        if value == c:
            return t
        if value > c:
            return None
        t += 2
