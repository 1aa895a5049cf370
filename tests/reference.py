"""Reference implementations the tests compare package code against.

Each one computes a quantity the package also computes, by a different
route: the genus-one bracket as a single fraction; the bracket, the three
tuple families and both ordered-tuple routes written literally in
Fractions, where the package sums integers over a fixed denominator;
admissible colorings counted over the distinct assignments of a part
multiset instead of through enumerate_q; pair insertion that tracks
every edge's sides through each insertion, where the package inserts
from the highest first side down; the glued map through a union-find of
corner classes, where ``glue`` walks each vertex's cycle of corners; and
compositions by recursion on the first part, where the package reads
them off combinations of cut points.  ``validate`` checks that a gluing
the tests build is well formed; none enters the package from outside,
since the CLI takes only n and mu.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from zkerov.admissibility import GraphLike, Monomial, bipartite_graph, hall_condition
from zkerov.census import insert_pair
from zkerov.polygon import GluedMap, Gluing


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


def recursive_compositions(total: int, parts: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """``compositions`` by recursion on the first part, lexicographically."""
    if parts == 1:
        if total >= min_part:
            yield (total,)
        return
    for first in range(min_part, total - min_part * (parts - 1) + 1):
        for rest in recursive_compositions(total - first, parts - 1, min_part):
            yield (first,) + rest


def recursive_compositions_any_length(total: int, min_part: int = 2) -> Iterator[tuple[int, ...]]:
    """``compositions_any_length`` from ``recursive_compositions``."""
    for k in range(1, total // min_part + 1):
        yield from recursive_compositions(total, k, min_part)


def _fraction_route(n: int, tuple_value) -> dict[tuple[int, ...], Fraction]:
    acc: dict[tuple[int, ...], Fraction] = {}
    for tup in recursive_compositions_any_length(n - 1, 2):
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
    if len(blacks) != len(mono.parts) or len(blacks) + len(graph.whites) != mono.vertex_count:
        return 0
    count = 0
    for values in multiset_permutations(mono.parts):
        q = {v: values[i] for i, v in enumerate(blacks)}
        if hall_condition(graph, q):
            count += 1
    return count


def validate(g: Gluing) -> None:
    """Raise ValueError unless ``g.pairing`` is a fixed-point-free
    involution of positive even length whose twist flags, if any, agree
    within each pair."""
    p = g.pairing
    m = len(p)
    if m == 0 or m % 2:
        raise ValueError(f"pairing must have positive even length, got {m}")
    for i, j in enumerate(p):
        if not 0 <= j < m or j == i or p[j] != i:
            raise ValueError(f"pairing is not a fixed-point-free involution at {i}")
    if g.twists is not None:
        if len(g.twists) != m:
            raise ValueError("twists length must equal pairing length")
        for i, j in enumerate(p):
            if g.twists[i] != g.twists[j]:
                raise ValueError(f"twist flags disagree within pair ({i},{j})")


def insert_pairs_tracked(g: Gluing, edge_multiset: Sequence[int]) -> Gluing:
    """Insert one subdivision pair per entry (entries index g.pairs()) in
    ascending edge order, moving every edge's two sides through each
    insertion."""
    edges = g.pairs()
    cur = {e: edges[e] for e in range(len(edges))}
    out = g
    for e in sorted(edge_multiset):
        i, j = cur[e]
        out = insert_pair(out, i)
        for e2, (a, b) in cur.items():
            if e2 == e:
                cur[e2] = (i, out.pairing[i])
            else:
                a2 = a + 2 * (a > i) + 2 * (a > j)
                b2 = b + 2 * (b > i) + 2 * (b > j)
                cur[e2] = (a2, b2)
    return out


def union_find_glue(gluing: Gluing) -> GluedMap:
    """``glue``'s map built by merging the identified corners in a
    union-find; each class is named by its least corner."""
    p = gluing.pairing
    m = len(p)
    n = m // 2
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if ra < rb:
            parent[rb] = ra
        else:
            parent[ra] = rb

    for i, j in enumerate(p):
        if j < i:
            continue
        i1 = (i + 1) % m
        j1 = (j + 1) % m
        twisted = ((i ^ j) & 1 == 1) if gluing.twists is None else gluing.twists[i]
        if twisted:
            union(i, j1)
            union(i1, j)
        else:
            union(i, j)
            union(i1, j1)

    vertex_of = tuple(find(c) for c in range(m))
    classes: dict[int, list[int]] = {}
    for c, r in enumerate(vertex_of):
        classes.setdefault(r, []).append(c)

    # classes come in increasing order of their minimal corner: sorted lists
    degree: dict[int, int] = {}
    black: list[int] = []
    white: list[int] = []
    for r, members in classes.items():
        parities = {c & 1 for c in members}
        if parities == {0}:
            black.append(r)
        elif parities == {1}:
            white.append(r)
        degree[r] = len(members)

    edges = []
    for i, j in enumerate(p):
        if j < i:
            continue
        u = vertex_of[i]
        v = vertex_of[(i + 1) % m]
        edges.append((u, v) if u < v else (v, u))

    return GluedMap(
        n=n,
        pairing=p,
        vertex_of=vertex_of,
        degree=degree,
        doubled_genus=n + 1 - len(classes),
        black_vertices=tuple(black),
        white_vertices=tuple(white),
        graph_edges=tuple(edges),
        # the two ends of a side have opposite parities, so a loop or an
        # edge between two vertices of one color needs a mixed class
        bipartite=len(black) + len(white) == len(classes),
    )
