"""The tests' one linear-recurrence oracle: x_{n+1} = c*x_n + x_{n-1}, stepped one index at a time from two seeds.

It knows nothing of fast doubling, walks or Decimal, so it checks the
sequence kernel, `seq` and the convergent rows from outside.
"""


def recurrence(x0, x1, lo, hi, c=1):
    """[x_lo, ..., x_hi] from x_0 = x0 and x_1 = x1; below 0 it runs backward, x_{n-1} = x_{n+1} - c*x_n.

    Only the values in lo..hi are kept, so a window far from 0 costs its
    steps but not their memory.
    """
    n, x, x_next = 0, x0, x1
    while n > lo:
        n, x, x_next = n - 1, x_next - c * x, x
    values = []
    while n <= hi:
        if n >= lo:
            values.append(x)
        n, x, x_next = n + 1, x_next, c * x_next + x
    return values
