"""Reference implementations the tests compare package code against.

Each one computes a quantity the package also computes, by a different
route: the genus-one bracket as a single fraction; the bracket, the three
tuple families and both ordered-tuple routes written literally in
Fractions, where the package sums integers over a fixed denominator; and
admissible colorings counted over the distinct assignments of a part
multiset instead of through enumerate_q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from zkerov.admissibility import GraphLike, Monomial, bipartite_graph, hall_condition
from zkerov.partitions import compositions_any_length
from zkerov.polygon import GluedMap


def bracket_combined(parts: tuple[int, ...]) -> Fraction:
    """The closed forms' bracket through the single-fraction route
    (S2 + 6*S1 + 4*S1^2)/24."""
    s1 = sum(parts)
    s2 = sum(a * a for a in parts)
    return Fraction(s2 + 6 * s1 + 4 * s1 * s1, 24)


def bracket_fraction(parts: tuple[int, ...]) -> Fraction:
    """The bracket 5/24*S2 + 1/4*S1 + 1/6*(S1^2 - S2) in Fractions."""
    s1 = sum(parts)
    s2 = sum(a * a for a in parts)
    return (
        Fraction(5, 24) * s2
        + Fraction(1, 4) * s1
        + Fraction(1, 6) * (s1 * s1 - s2)
    )


def family_values_fraction(n: int, tup: tuple[int, ...]) -> tuple[Fraction, Fraction, Fraction]:
    """The families (T1, T2, T3) of one ordered tuple, each written as the
    sum of its two map classes in Fractions."""
    k = len(tup)
    a1 = tup[0]
    tail = 1
    for a in tup[1:]:
        tail *= a - 1
    t1 = (Fraction(k * n, 4) + Fraction(2 * k * n, 2)) * Fraction(
        (a1 - 2) * (a1 - 1) * a1, 6
    ) * tail
    t2 = (Fraction((k + 1) * k, 2) * Fraction(n, 3) + Fraction((k + 1) * k, 2) * n) * Fraction(
        (a1 - 1) * a1, 2
    ) * tail
    if k >= 2:
        a2 = tup[1]
        tail2 = 1
        for a in tup[2:]:
            tail2 *= a - 1
        t3 = (
            2 * Fraction(k * (k - 1), 2) * Fraction(n, 6)
            + 2 * Fraction(k * (k - 1), 2) * Fraction(n, 2)
        ) * Fraction((a1 - 1) * a1, 2) * Fraction((a2 - 2) * (a2 - 1), 2) * tail2
    else:
        t3 = Fraction(0)
    return t1, t2, t3


def _fraction_route(n: int, tuple_value) -> dict[tuple[int, ...], Fraction]:
    acc: dict[tuple[int, ...], Fraction] = {}
    for tup in compositions_any_length(n - 1, 2):
        parts = Monomial(tup).parts
        acc[parts] = acc.get(parts, Fraction(0)) + tuple_value(tup)
    return acc


def symmetrized_fraction(n: int) -> dict[tuple[int, ...], Fraction]:
    """Partition -> sum of n * bracket * prod(a_i - 1) over its ordered tuples."""

    def value(tup: tuple[int, ...]) -> Fraction:
        prod = 1
        for a in tup:
            prod *= a - 1
        return n * bracket_fraction(tup) * prod

    return _fraction_route(n, value)


def family_sum_fraction(n: int) -> dict[tuple[int, ...], Fraction]:
    """Partition -> sum of T1 + T2 + T3 over its ordered tuples."""
    return _fraction_route(n, lambda tup: sum(family_values_fraction(n, tup), Fraction(0)))


def multiset_permutations(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a value multiset, lexicographically ascending."""
    counts = {v: 0 for v in sorted(values)}
    for v in values:
        counts[v] += 1
    k = len(values)
    out: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(out) == k:
            yield tuple(out)
            return
        for v, c in counts.items():
            if c:
                counts[v] = c - 1
                out.append(v)
                yield from rec()
                out.pop()
                counts[v] = c

    yield from rec()


def admissible_colorings(g: GraphLike, mono: Monomial) -> int:
    """Number of admissible q-colorings of the map with value multiset mono.

    Zero when the map is not bipartite or its black/total vertex counts do
    not match the monomial.  Counted directly over distinct assignments of
    the part multiset, independently of enumerate_q.
    """
    if isinstance(g, GluedMap) and not g.bipartite:
        return 0
    graph = bipartite_graph(g) if isinstance(g, GluedMap) else g
    blacks = sorted(graph.blacks)
    if len(blacks) != mono.black_count or graph.vertex_count != mono.vertex_count:
        return 0
    count = 0
    for values in multiset_permutations(mono.parts):
        q = {v: values[i] for i, v in enumerate(blacks)}
        if hall_condition(graph, q):
            count += 1
    return count
