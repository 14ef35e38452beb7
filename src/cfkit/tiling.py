"""Brute-force square/domino tiling counters.

These are oracles: each function enumerates explicit tilings one by one
and never applies a Fibonacci-style recurrence or any identity it might
be used to check. One enumerator serves all three counters. It yields
each tiling as an int bitmask of the cells where a domino starts, in
increasing order, which is the lexicographic order of the piece widths
(squares first), and steps from one tiling to the next with a few
bitwise operations. Size bounds keep the exhaustive enumeration fast.
"""

from collections.abc import Iterator, Sequence

from .errors import BoundExceeded, UsageError

BOARD_MAX = 25
BRACELET_MAX = 20
STACK_MAX_CELLS = 10
STACK_MAX_HEIGHT = 12


def _tilings(length: int) -> Iterator[int]:
    """Yield every tiling of a 1 x length board as a bitmask of the cells where a domino starts.

    Bit length - 2 - c stands for cell c, so cell 0 is the highest bit. Two
    tilings first differ at a cell where one puts a square and the other
    starts a domino, and their higher bits agree, so the one with the
    square has the smaller mask: increasing masks are the lexicographic
    order of the widths, squares first. The tilings are the masks below
    2^(length - 1) (the last cell starts no domino) with no two adjacent
    bits (no two dominoes overlap). The next one after mask m sets the
    lowest bit that is clear in m and in the bit above it, the lowest zero
    of m | m >> 1, and clears every bit below that.
    """
    end = 1 << max(length - 1, 0)
    mask = 0
    while mask < end:
        yield mask
        blocked = mask | mask >> 1
        low = ~blocked & (blocked + 1)
        mask = (mask | low) & -low


def count_board(n: int) -> int:
    """Number of square/domino tilings of a board of length n (n = 0 has one: the empty tiling)."""
    if n < 0:
        raise UsageError(f"board length must be >= 0, got {n}")
    if n > BOARD_MAX:
        raise BoundExceeded(f"board enumeration is bounded at {BOARD_MAX}, got {n}")
    return sum(1 for _ in _tilings(n))


def count_bracelet(n: int) -> int:
    """Number of square/domino tilings of a circular board of length n.

    A domino may wrap the boundary between cells n-1 and 0, and the wrapped
    covering counts separately from the unwrapped one (so n = 2 has three
    tilings: two squares, a domino in phase, a domino out of phase).
    n = 0 has two tilings by convention: the empty tiling in each phase.
    """
    if n < 0:
        raise UsageError(f"bracelet length must be >= 0, got {n}")
    if n > BRACELET_MAX:
        raise BoundExceeded(f"bracelet enumeration is bounded at {BRACELET_MAX}, got {n}")
    if n == 0:
        return 2
    total = sum(1 for _ in _tilings(n))
    if n >= 2:
        total += sum(1 for _ in _tilings(n - 2))
    return total


def count_stacked(heights: Sequence[int]) -> int:
    """Weighted tiling count of a board with per-cell stack capacities.

    Every square/domino tiling of the len(heights)-cell board contributes
    the product of heights[i] over its square-covered cells (a square on
    cell i can be stacked heights[i] ways; dominoes cannot be stacked).
    The total equals the continuant of the height vector, i.e. the final
    convergent numerator of the same integer sequence.
    """
    heights = list(heights)
    if not heights:
        raise UsageError("height vector must not be empty")
    if any(h < 1 for h in heights):
        raise UsageError("stack capacities must be >= 1")
    if len(heights) > STACK_MAX_CELLS:
        raise BoundExceeded(f"stacked enumeration is bounded at {STACK_MAX_CELLS} cells")
    if max(heights) > STACK_MAX_HEIGHT:
        raise BoundExceeded(f"stack capacities are bounded at {STACK_MAX_HEIGHT}")

    total = 0
    for mask in _tilings(len(heights)):
        covered = mask << 1 | mask  # both cells of each domino; the last cell is bit 0
        weight = 1
        for h in reversed(heights):
            if not covered & 1:
                weight *= h
            covered >>= 1
        total += weight
    return total
