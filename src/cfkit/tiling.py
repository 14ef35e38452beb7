"""Brute-force square/domino tiling counters.

These are oracles: each function enumerates explicit tilings one by one
and never applies a Fibonacci-style recurrence or any identity it might
be used to check. One enumerator serves all three counters. It backtracks
over a single mutable list of piece widths, in lexicographic order (squares
first), and yields every tiling as its own tuple. Size bounds keep the
exhaustive enumeration fast.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .errors import BoundExceeded, UsageError

BOARD_MAX = 25
BRACELET_MAX = 20
STACK_MAX_CELLS = 10
STACK_MAX_HEIGHT = 12


def _tilings(length: int) -> Iterator[tuple[int, ...]]:
    """Yield every tiling of a 1 x length board as a tuple of piece widths.

    Starts from all squares. After each tiling it pops pieces off the end
    until it pops a square that has room for a domino in its place, puts
    the domino there and fills the rest of the board with squares.
    """
    widths = [1] * length
    filled = length  # cells the pieces in `widths` cover
    while True:
        yield tuple(widths)
        while widths:
            piece = widths.pop()
            filled -= piece
            if piece == 1 and filled + 2 <= length:
                break
        else:
            return
        widths.append(2)
        widths += [1] * (length - filled - 2)
        filled = length


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
    for tiling in _tilings(len(heights)):
        weight = 1
        cell = 0
        for width in tiling:
            if width == 1:
                weight *= heights[cell]
            cell += width
        total += weight
    return total
