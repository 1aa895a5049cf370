"""Labeled 2n-gon, edge gluings, and the resulting one-face maps.

Conventions used throughout the package:

* The polygon has 2n corners 0..2n-1 and 2n boundary sides 0..2n-1;
  side i joins corners i and (i+1) mod 2n.
* Corner c is BLACK iff c is even (the two endpoints of every side
  therefore have opposite colors).
* A gluing is a fixed-point-free involution on side indices.  Without
  twist flags, each pair (i, j) is identified by the unique pattern that
  preserves corner colors: corners (i, j) and (i+1, j+1) are merged when
  i and j have equal parity, corners (i, j+1) and (i+1, j) otherwise.
* With explicit twist flags, STRAIGHT always identifies (i, j), (i+1, j+1)
  and TWISTED always identifies (i, j+1), (i+1, j); the result need not
  be two-colorable (vertices may come out MIXED).
* Every glued map has exactly one face (the polygon interior), so
  chi = V - n + 1 and doubledGenus = 2 - chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

BLACK = "black"
WHITE = "white"
MIXED = "mixed"

STRAIGHT = False
TWISTED = True


def double_factorial(k: int) -> int:
    """(k)!! for odd k >= -1; the number of perfect matchings on k+1 points."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


class Gluing(NamedTuple):
    """A pairing of the polygon's sides, optionally with per-pair twist flags.

    ``pairing[i]`` is the partner side of side i (a fixed-point-free
    involution).  ``twists``, when present, stores one flag per side with
    ``twists[i] == twists[pairing[i]]``; ``True`` means TWISTED.
    ``twists is None`` selects the color-preserving identification.
    """

    pairing: tuple[int, ...]
    twists: tuple[bool, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.pairing) // 2

    def pairs(self) -> list[tuple[int, int]]:
        """Side pairs (i, j) with i < j, sorted by i."""
        return [(i, j) for i, j in enumerate(self.pairing) if i < j]

    def validate(self) -> None:
        p = self.pairing
        m = len(p)
        if m == 0 or m % 2:
            raise ValueError(f"pairing must have positive even length, got {m}")
        for i, j in enumerate(p):
            if not 0 <= j < m or j == i or p[j] != i:
                raise ValueError(f"pairing is not a fixed-point-free involution at {i}")
        if self.twists is not None:
            if len(self.twists) != m:
                raise ValueError("twists length must equal pairing length")
            for i, j in enumerate(p):
                if self.twists[i] != self.twists[j]:
                    raise ValueError(f"twist flags disagree within pair ({i},{j})")


@dataclass(frozen=True)
class GluedMap:
    """The one-face map obtained from a gluing.

    Vertex ids are the minimal corner index of each identified corner
    class.  ``graph_edges`` holds one entry per glued side pair: the two
    endpoint vertices (sorted) and the two side indices that were glued.
    """

    n: int
    vertex_of: tuple[int, ...]
    vertex_color: dict[int, str]
    degree: dict[int, int]
    euler_char: int
    doubled_genus: int
    black_vertices: tuple[int, ...]
    white_vertices: tuple[int, ...]
    graph_edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    bipartite: bool

    @property
    def vertex_count(self) -> int:
        return len(self.degree)


def enumerate_gluings(n: int) -> Iterator[Gluing]:
    """All (2n-1)!! side matchings, lowest unmatched side paired first,
    partners in increasing order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for pairing in _involutions(2 * n):
        yield Gluing(pairing)


def enumerate_twisted_gluings(n: int) -> Iterator[Gluing]:
    """All (2n-1)!! * 2^n (matching, twist-flag) combinations."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = 2 * n
    for pairing in _involutions(m):
        pair_list = [(i, j) for i, j in enumerate(pairing) if i < j]
        for bits in range(1 << n):
            tw = [False] * m
            for k, (i, j) in enumerate(pair_list):
                if bits >> k & 1:
                    tw[i] = tw[j] = True
            yield Gluing(pairing, tuple(tw))


def _involutions(m: int) -> Iterator[tuple[int, ...]]:
    """Fixed-point-free involutions on 0..m-1 in canonical order."""
    pairing = [-1] * m

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        i = start
        while i < m and pairing[i] >= 0:
            i += 1
        if i == m:
            yield tuple(pairing)
            return
        for j in range(i + 1, m):
            if pairing[j] < 0:
                pairing[i] = j
                pairing[j] = i
                yield from rec(i + 1)
                pairing[j] = -1
        pairing[i] = -1

    yield from rec(0)


def glue(gluing: Gluing, black_parity: int = 0) -> GluedMap:
    """Build the one-face map of a gluing.

    ``black_parity`` selects which corner parity is colored black
    (the default 0 is the package convention; 1 swaps colors, used to
    assert the color-swap symmetry of all counts).
    """
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

    vertex_color: dict[int, str] = {}
    degree: dict[int, int] = {}
    for r, members in classes.items():
        parities = {c % 2 for c in members}
        if parities == {black_parity}:
            vertex_color[r] = BLACK
        elif len(parities) == 1:
            vertex_color[r] = WHITE
        else:
            vertex_color[r] = MIXED
        degree[r] = len(members)

    edges = []
    bipartite = MIXED not in vertex_color.values()
    for i, j in enumerate(p):
        if j < i:
            continue
        u = vertex_of[i]
        v = vertex_of[(i + 1) % m]
        if u > v:
            u, v = v, u
        edges.append(((u, v), (i, j)))
        if u == v or vertex_color[u] == vertex_color[v]:
            bipartite = False

    v_count = len(classes)
    chi = v_count - n + 1
    return GluedMap(
        n=n,
        vertex_of=vertex_of,
        vertex_color=vertex_color,
        degree=degree,
        euler_char=chi,
        doubled_genus=2 - chi,
        black_vertices=tuple(sorted(r for r, c in vertex_color.items() if c == BLACK)),
        white_vertices=tuple(sorted(r for r, c in vertex_color.items() if c == WHITE)),
        graph_edges=tuple(edges),
        bipartite=bipartite,
    )


def rotate_gluing(g: Gluing, r: int) -> Gluing:
    """Rotate by r map-edge steps: every side index shifts by 2r mod 2n."""
    if not 0 <= r < g.n:
        raise ValueError(f"rotation must satisfy 0 <= r < n, got r={r}, n={g.n}")
    return shift_gluing(g, 2 * r)


def shift_gluing(g: Gluing, t: int) -> Gluing:
    """Shift every side index by t mod 2n (odd t swaps corner colors)."""
    m = 2 * g.n
    p = g.pairing
    new_p = [0] * m
    for i in range(m):
        new_p[(i + t) % m] = (p[i] + t) % m
    new_tw = None
    if g.twists is not None:
        tw = [False] * m
        for i in range(m):
            tw[(i + t) % m] = g.twists[i]
        new_tw = tuple(tw)
    return Gluing(tuple(new_p), new_tw)


def reflect_gluing(g: Gluing, k: int = 0) -> Gluing:
    """Reflect the polygon: corner c -> k - c, hence side s -> k - 1 - s.

    Twist flags are preserved (reflections exchange the two corner pairs
    inside each identification pattern but keep the pattern itself).
    """
    m = 2 * g.n
    p = g.pairing
    new_p = [0] * m
    for i in range(m):
        new_p[(k - 1 - i) % m] = (k - 1 - p[i]) % m
    new_tw = None
    if g.twists is not None:
        tw = [False] * m
        for i in range(m):
            tw[(k - 1 - i) % m] = g.twists[i]
        new_tw = tuple(tw)
    return Gluing(tuple(new_p), new_tw)
