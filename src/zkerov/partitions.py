"""Small exact-combinatorics helpers: partitions, compositions and exact
quotients."""

from __future__ import annotations

from itertools import combinations, repeat
from operator import add, sub
from typing import Iterator


class InternalConsistencyError(RuntimeError):
    """A quantity that must be exact (a weighted matching count, an
    integral rational sum) came out wrong; signals an implementation bug."""


def exact_quotient(total: int, denominator: int, what: str) -> int:
    """``total // denominator`` for a quotient that must be an integer;
    a remainder raises InternalConsistencyError."""
    quotient, remainder = divmod(total, denominator)
    if remainder:
        raise InternalConsistencyError(
            f"{what} is not an integer: {total} is not a multiple of {denominator}"
        )
    return quotient


def compositions(total: int, parts: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of ``parts`` integers >= min_part summing to total,
    in lexicographic order; ``parts`` >= 1.  With min_part - 1 taken off
    each part, a tuple is the gaps between cut points 0 < b_1 < ... < room,
    which ``combinations`` yields in the tuples' order; the rows (0, b_1,
    ...) are the first ``parts``-subsets of range(room), those with 0."""
    pad = min_part - 1
    room = total - pad * parts
    if room < parts:
        return iter(())
    highs = map(add, combinations(range(min_part, room + pad), parts - 1), repeat((room + pad,)))
    lows = combinations(range(room), parts)  # ``map`` stops when ``highs`` does
    return map(tuple, map(map, repeat(sub), highs, lows))


def partitions(total: int, min_part: int = 2) -> Iterator[tuple[int, ...]]:
    """Partitions of total into parts >= min_part, parts descending,
    in descending lexicographic order."""

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), min_part - 1, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(total, total)

