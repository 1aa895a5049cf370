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


def enumerate_gluings(n: int, *, doubled_genus: int | None = None) -> Iterator[Gluing]:
    """All (2n-1)!! side matchings with the color-preserving identification,
    lowest unmatched side paired first, partners in increasing order.

    With ``doubled_genus`` only the matchings whose glued map has that
    doubled genus are generated, in the same relative order (see
    ``_gluings`` for the pruning).
    """
    return _gluings(n, False, doubled_genus)


def enumerate_twisted_gluings(n: int, *, doubled_genus: int | None = None) -> Iterator[Gluing]:
    """All (2n-1)!! * 2^n (matching, twist-flag) combinations.

    Order: lowest unmatched side paired first, partners increasing, and for
    each partner STRAIGHT before TWISTED; a pair's flag is chosen when the
    pair is placed, so the matching does not vary slowest.  ``doubled_genus``
    filters as in ``enumerate_gluings``.
    """
    return _gluings(n, True, doubled_genus)


def _gluings(n: int, twisted: bool, doubled_genus: int | None) -> Iterator[Gluing]:
    """Depth-first generation of gluings, one side pair per level.

    Without a genus, the recursion only fills in partners and flags (a
    separate branch, so that a full pass does no union-find work).  With
    one, it keeps the corner classes in a union-find that undoes its merges
    on backtrack, and drops a subtree once its glued map can no longer have
    V = n + 1 - doubled_genus vertices.  A pair makes two unions, each of
    which merges two classes or none, so with L live classes and r pairs
    still to place the finished map has between L - 2r and L vertices:
    the subtree is kept while L - 2r <= V <= L.  At a leaf (r = 0) this
    is L == V, so every gluing yielded has the requested doubled genus and
    no gluing that has it is dropped.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = 2 * n
    pairing = [-1] * m
    flags = [STRAIGHT] * m
    choices = (STRAIGHT, TWISTED) if twisted else (STRAIGHT,)
    target = None if doubled_genus is None else n + 1 - doubled_genus
    parent = list(range(m))
    size = [1] * m
    new = tuple.__new__  # skips the Python-level NamedTuple constructor

    def rec(i: int, left: int, live: int) -> Iterator[Gluing]:
        # i is the lowest free side, ``left`` the pairs still to place
        # (this one included), ``live`` the corner classes so far
        i1 = i + 1
        for j in range(i1, m):
            if pairing[j] >= 0:
                continue
            pairing[i] = j
            pairing[j] = i
            k = i1
            while k < m and pairing[k] >= 0:
                k += 1
            j1 = (j + 1) % m
            for flag in choices:
                if target is None:
                    flags[i] = flags[j] = flag
                    if k == m:
                        yield new(Gluing, (tuple(pairing), tuple(flags) if twisted else None))
                    else:
                        yield from rec(k, left - 1, live)
                    continue
                # without flags, the color-preserving pattern (module docstring)
                if (flag if twisted else (i ^ j) & 1):
                    a, b, c, d = i, j1, i1, j
                else:
                    a, b, c, d = i, j, i1, j1
                after = live
                x = y = -1
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a != b:
                    if size[a] < size[b]:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
                    x = b
                    after -= 1
                while parent[c] != c:
                    c = parent[c]
                while parent[d] != d:
                    d = parent[d]
                if c != d:
                    if size[c] < size[d]:
                        c, d = d, c
                    parent[d] = c
                    size[c] += size[d]
                    y = d
                    after -= 1
                if after - 2 * (left - 1) <= target <= after:
                    flags[i] = flags[j] = flag
                    if k == m:
                        yield new(Gluing, (tuple(pairing), tuple(flags) if twisted else None))
                    else:
                        yield from rec(k, left - 1, after)
                if y >= 0:
                    size[parent[y]] -= size[y]
                    parent[y] = y
                if x >= 0:
                    size[parent[x]] -= size[x]
                    parent[x] = x
            pairing[j] = -1
        pairing[i] = -1

    if target is None or 0 <= target <= m:  # the same bound at the root
        yield from rec(0, n, m)


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
