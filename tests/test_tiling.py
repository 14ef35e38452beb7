import random
from itertools import islice

import pytest

from cfkit.contfrac import convergents
from cfkit.errors import BoundExceeded
from cfkit.sequences import fib_comb, lucas
from cfkit.tiling import BOARD_MAX, BRACELET_MAX, _tilings, count_board, count_bracelet, count_stacked


def _recursive_tilings(length):
    """The enumerator `tiling` used before it backtracked: a chain of nested generators."""
    if length == 0:
        yield ()
        return
    for rest in _recursive_tilings(length - 1):
        yield (1,) + rest
    if length >= 2:
        for rest in _recursive_tilings(length - 2):
            yield (2,) + rest


def _widths(mask, length):
    """The piece widths of a tiling that _tilings() yields: bit length - 2 - c set means a domino starts at cell c."""
    widths, cell = [], 0
    while cell < length:
        width = 2 if cell < length - 1 and mask >> (length - 2 - cell) & 1 else 1
        widths.append(width)
        cell += width
    return tuple(widths)


# Both tests read at most one tiling more than there are, so an enumerator
# that never stops fails them instead of hanging.


@pytest.mark.parametrize("n", range(16))
def test_tilings_equal_the_recursive_reference_in_order(n):
    reference = list(_recursive_tilings(n))
    assert [_widths(mask, n) for mask in islice(_tilings(n), len(reference) + 1)] == reference


@pytest.mark.parametrize("n", range(21))
def test_every_tiling_is_explicit_and_covers_the_board(n):
    masks = list(islice(_tilings(n), fib_comb(n) + 1))
    tilings = [_widths(mask, n) for mask in masks]
    for mask, tiling in zip(masks, tilings):
        assert type(mask) is int
        # Every bit is read by _widths: no two dominoes overlap, and none starts on the last cell.
        assert mask & mask >> 1 == 0 and mask >> max(n - 1, 0) == 0
        assert set(tiling) <= {1, 2}
        assert sum(tiling) == n
    assert tilings == sorted(set(tilings))  # distinct, squares first


def test_board_counts():
    assert count_board(0) == 1
    assert count_board(4) == 5
    assert count_board(10) == 89


def test_board_matches_combinatorial_fibonacci():
    for n in range(BOARD_MAX + 1):
        assert count_board(n) == fib_comb(n)


def test_board_bounds():
    with pytest.raises(BoundExceeded):
        count_board(26)
    with pytest.raises(ValueError):
        count_board(-1)


def test_bracelet_counts():
    assert count_bracelet(0) == 2
    assert count_bracelet(2) == 3  # two squares, domino in phase, domino out of phase
    assert count_bracelet(5) == 11


def test_bracelet_matches_lucas():
    for n in range(BRACELET_MAX + 1):
        assert count_bracelet(n) == lucas(n)


def test_bracelet_bounds():
    with pytest.raises(BoundExceeded):
        count_bracelet(21)


def test_stacked_counts():
    assert count_stacked([2, 3, 7]) == 51
    assert count_stacked([3, 7]) == 22
    for a in range(1, 6):
        assert count_stacked([a]) == a


def test_stacked_matches_convergent_numerator_and_denominator():
    rng = random.Random(1401)
    for _ in range(200):
        heights = [rng.randint(1, 5) for _ in range(rng.randint(1, 8))]
        p, q = convergents(heights)[-1]
        assert count_stacked(heights) == p
        if len(heights) > 1:
            assert count_stacked(heights[1:]) == q


def test_stacked_bounds_and_validation():
    with pytest.raises(BoundExceeded):
        count_stacked([1] * 11)
    with pytest.raises(BoundExceeded):
        count_stacked([13])
    with pytest.raises(ValueError):
        count_stacked([])
    with pytest.raises(ValueError):
        count_stacked([2, 0, 3])
