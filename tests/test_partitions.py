import pytest

from reference import recursive_compositions
from zkerov.partitions import compositions, compositions_any_length


def by_length(total, min_part, longest):
    """The recursive oracle's compositions of total, one list per length."""
    return [list(recursive_compositions(total, k, min_part)) for k in range(1, longest + 1)]


@pytest.mark.parametrize("min_part", [1, 2, 3])
def test_compositions_of_up_to_fourteen_equal_the_recursion(min_part):
    for total in range(15):
        expected = by_length(total, min_part, 5)
        assert [list(compositions(total, k, min_part)) for k in range(1, 6)] == expected, total
    # every length: at most 2^13 tuples
    for total in range(15):
        expected = by_length(total, min_part, total // min_part)
        assert list(compositions_any_length(total, min_part)) == sum(expected, []), total


@pytest.mark.parametrize("min_part", [2, 3])
def test_compositions_of_up_to_twenty_six_equal_the_recursion(min_part):
    for total in range(27):
        expected = by_length(total, min_part, total // min_part)
        got = [list(compositions(total, k, min_part)) for k in range(1, total // min_part + 1)]
        assert got == expected, total
        assert list(compositions_any_length(total, min_part)) == sum(expected, []), total


def test_compositions_beyond_the_longest_are_empty():
    assert list(compositions(5, 3, 2)) == []
    assert list(compositions(6, 3, 2)) == [(2, 2, 2)]
    assert list(compositions(0, 1)) == []
    assert list(compositions_any_length(1, 2)) == []
