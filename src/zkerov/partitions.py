"""Small exact-combinatorics helpers: partitions and compositions."""

from __future__ import annotations

from typing import Iterator


def compositions(total: int, parts: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of ``parts`` integers >= min_part summing to total,
    in lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= min_part:
            yield (total,)
        return
    for first in range(min_part, total - min_part * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, min_part):
            yield (first,) + rest


def compositions_any_length(total: int, min_part: int = 2) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of any length k >= 1 with parts >= min_part summing to total."""
    for k in range(1, total // min_part + 1):
        yield from compositions(total, k, min_part)


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

