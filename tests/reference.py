"""Reference implementations the tests compare package code against.

Each one computes a quantity the package also computes, by a different
route: the genus-one bracket as a single fraction, and admissible
colorings counted over the distinct assignments of a part multiset instead
of through enumerate_q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from zkerov.admissibility import GraphLike, Monomial, bipartite_graph, hall_condition
from zkerov.polygon import GluedMap


def bracket_combined(parts: tuple[int, ...]) -> Fraction:
    """The closed forms' bracket through the single-fraction route
    (S2 + 6*S1 + 4*S1^2)/24."""
    s1 = sum(parts)
    s2 = sum(a * a for a in parts)
    return Fraction(s2 + 6 * s1 + 4 * s1 * s1, 24)


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
