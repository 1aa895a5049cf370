"""Labeled 2n-gon, edge gluings, and the resulting one-face maps.

Conventions used throughout the package:

* The polygon has 2n corners 0..2n-1 and 2n boundary sides 0..2n-1;
  side i joins corners i and (i+1) mod 2n.
* Corner c is black iff c is even, so the two endpoints of every side
  have opposite colors; a vertex's color is the parity of its corners.
* A gluing is a fixed-point-free involution on side indices.  Without
  twist flags, each pair (i, j) is identified by the unique pattern that
  preserves corner colors: corners (i, j) and (i+1, j+1) are merged when
  i and j have equal parity, corners (i, j+1) and (i+1, j) otherwise.
* With explicit twist flags, STRAIGHT always identifies (i, j), (i+1, j+1)
  and TWISTED always identifies (i, j+1), (i+1, j); the result need not
  be two-colorable (a vertex may hold corners of both parities).
* Every glued map has exactly one face (the polygon interior), so
  the Euler characteristic is V - n + 1 and doubledGenus = n + 1 - V.
* ``glue`` walks each vertex's cycle of corner identifications, and the
  genus-pruned enumerator keeps a union-find of its own, so the genus it
  filters on checks ``glue``'s by another mechanism.
* A census under a reduced filter never places a pair of ``leaf_pairs``,
  and the scan kernel and the contributing census never place a pair of
  ``black_leaf_pairs``; each says why.
* Every gluing universe is sized here, exactly: ``gluing_counts`` the
  matchings and ``twisted_gluing_counts`` the twisted gluings by doubled
  genus, ``unbanned_cells`` the matchings the black-leaf ban keeps by
  (b, w).  The census limit, the scan's cell guard and the selftest
  count checks read these tables.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .partitions import exact_quotient, partitions

STRAIGHT = False
TWISTED = True


def double_factorial(k: int) -> int:
    """(k)!! for odd k >= -1; the number of perfect matchings on k+1 points."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def twisted_gluing_counts(n: int) -> tuple[int, ...]:
    """The number of twisted gluings of the 2n-gon by doubled genus,
    ``counts[dg]`` for dg = 0..n; the counts sum to (2n-1)!! * 2^n.

    The sum of N^V over the twisted gluings is the GOE moment b_n(N) =
    E tr X^(2n) (Goulden-Jackson 1997), a polynomial in N, and V = n + 1 -
    dg.  Ledoux (2009) gives the five-term recursion, for p >= 2 with
    b_0 = N and b_1 = N^2 + N (terms with a negative index vanish):

        (p+1) b_p = (4p-1)(2N-1) b_{p-1}
                    + (2p-3)(10p^2 - 9p - 8N^2 + 8N) b_{p-2}
                    - 5(2p-3)(2p-4)(2p-5)(2N-1) b_{p-3}
                    - 2(2p-3)(2p-4)(2p-5)(2p-6)(2p-7) b_{p-4}

    It runs on integer coefficient lists in N, so every division by p + 1
    must be exact; a remainder raises InternalConsistencyError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def combine(*terms: tuple[int, list[int]]) -> list[int]:
        # sum of factor * polynomial, each a coefficient list in N
        out = [0] * max(len(poly) for _factor, poly in terms)
        for factor, poly in terms:
            for k, x in enumerate(poly):
                out[k] += factor * x
        return out

    def odd(poly: list[int]) -> list[int]:
        # (2N - 1) * poly
        return combine((2, [0, *poly]), (-1, poly))

    b = [[0, 1], [0, 1, 1]]
    for p in range(2, n + 1):
        b3 = b[p - 3] if p >= 3 else [0]
        b4 = b[p - 4] if p >= 4 else [0]
        c = (2 * p - 3) * (2 * p - 4) * (2 * p - 5)
        total = combine(
            (4 * p - 1, odd(b[p - 1])),
            (2 * p - 3, combine((10 * p * p - 9 * p, b[p - 2]), (-8, [0, 0, *b[p - 2]]),
                                (8, [0, *b[p - 2]]))),
            (-5 * c, odd(b3)),
            (-2 * c * (2 * p - 6) * (2 * p - 7), b4),
        )
        b.append([exact_quotient(x, p + 1, f"the twisted moment b_{p}") for x in total])
    return tuple(b[n][n + 1 - dg] for dg in range(n + 1))


def one_face_counts(n: int) -> dict[tuple[int, int], int]:
    """The number of matchings of the 2n-gon whose glued map has b black
    and w white vertices, ``{(b, w): count}`` over the nonzero counts; the
    counts sum to (2n-1)!! and a cell's doubled genus is n + 1 - b - w.

    This is the one-face case of Goulden-Jackson (1996) at alpha = 2, with
    theta_lambda and J_lambda(1^N) from Stanley (1989):

        sum over matchings of X^b Y^w
            = alpha n sum_{lambda |- n} theta_lambda J_lambda(1^X) J_lambda(1^Y) / j_lambda,

    where, over the cells s of lambda with arm a, leg l, arm colength a'
    and leg colength l',

        theta_lambda = prod_{s != (1,1)} (alpha a' - l'),
        J_lambda(1^N) = prod_s (N + alpha a' - l'),
        j_lambda = prod_s (alpha a + l + 1)(alpha a + l + alpha).

    The sum runs over a common denominator, so every cell must divide
    exactly; a remainder raises InternalConsistencyError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha = 2
    terms = []
    for lam in partitions(n, min_part=1):
        column = [sum(1 for row in lam if row > j) for j in range(lam[0])]
        theta = j_lam = 1
        poly = [1]  # J_lambda(1^N), a coefficient list in N
        for i, row in enumerate(lam):
            for j in range(row):
                content = alpha * j - i
                if i or j:
                    theta *= content
                poly = [content * x + y for x, y in zip(poly + [0], [0] + poly)]
                hook = alpha * (row - 1 - j) + column[j] - 1 - i
                j_lam *= (hook + 1) * (hook + alpha)
        terms.append((theta, poly, j_lam))
    denominator = math.lcm(*(j_lam for _theta, _poly, j_lam in terms))
    total: dict[tuple[int, int], int] = {}
    for theta, poly, j_lam in terms:
        weight = alpha * n * theta * (denominator // j_lam)
        for b, x in enumerate(poly):
            for w, y in enumerate(poly):
                if x and y:
                    total[b, w] = total.get((b, w), 0) + weight * x * y
    return {cell: exact_quotient(value, denominator, f"the one-face count of {cell} at n={n}")
            for cell, value in sorted(total.items()) if value}


def gluing_counts(n: int) -> tuple[int, ...]:
    """The number of matchings of the 2n-gon by doubled genus, ``counts[dg]``
    for dg = 0..n, the twin of ``twisted_gluing_counts``; the counts sum to
    (2n-1)!!.  A map of b black and w white vertices has V = b + w, so a
    stratum sums the ``one_face_counts`` cells with b + w = n + 1 - dg."""
    counts = [0] * (n + 1)
    for (b, w), count in one_face_counts(n).items():
        counts[n + 1 - b - w] += count
    return tuple(counts)


def leaf_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The side pairs {c-1, c} around every corner c, as (lower side,
    higher side) in increasing order: 2n pairs, and at n = 1 the one pair
    (0, 1).

    Every matching that holds one glues to a map with a degree-1 vertex.
    Sides c-1 and c have opposite parities, so the pair identifies corners
    c-1 with c+1 and c with itself (module docstring).  Corner c lies on
    no other side, so it is a vertex of its own with the one edge of the
    pair, whatever its color.  At n = 1 both corners are such vertices.
    So the reduced filters (every degree at least 3, or at least 2) keep
    no such map.

    Every side shift and every reflection maps the set onto itself, so a
    census under either convention drops whole orbits, and the orbit
    minima it keeps do not change.
    """
    m = 2 * n
    return tuple(sorted({tuple(sorted(((c - 1) % m, c))) for c in range(m)}))


def black_leaf_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The side pairs {c-1, c} around the black (even) corners c, as
    (lower side, higher side) in increasing order: n pairs for n >= 2,
    none at n = 1.  For n >= 2 they are the pairs of ``leaf_pairs(n)``
    around even corners.

    No matching that holds one has an admissible coloring.  The pair
    leaves c a black vertex of degree 1 (``leaf_pairs``) whose one edge
    goes to the white vertex of c-1 and c+1.  For n >= 2 some other black
    corner is not in c's class, so {c} is a nontrivial set of black
    vertices, and Hall's condition at {c} asks for more than q(c) - 1 >= 1
    white neighbours of c, which has one.  At n = 1 the
    lone matching is such a pair, its one black vertex is the whole set,
    and it has an admissible coloring, so nothing is banned there.

    The n pairs are disjoint and the rotations s -> s + 2r permute them,
    so a census under rotations drops whole orbits.
    """
    if n < 2:
        return ()
    m = 2 * n
    return ((0, m - 1), *((c - 1, c) for c in range(2, m, 2)))


def unbanned_cells(n: int) -> dict[tuple[int, int], int]:
    """The number of matchings with no pair of ``black_leaf_pairs(n)`` whose
    map has b black and w white vertices, ``{(b, w): count}`` over the
    nonzero counts.

    Inclusion and exclusion over the k of the n disjoint banned pairs that
    a matching holds.  A banned pair {c-1, c} leaves black corner c a vertex
    of its own and joins the white corners c-1 and c+1, so the matchings
    that hold k given ones are the matchings of the 2(n-k)-gon, with k more
    black vertices: N(b, w) = sum_k (-1)^k C(n,k) N_{n-k}(b-k, w), with
    N_m = ``one_face_counts(m)`` and N_0 = {(0, 1): 1}.  Nothing is banned
    at n = 1.  The counts sum to OEIS A053871 from n = 2 on."""
    banned = len(black_leaf_pairs(n))
    out: Counter[tuple[int, int]] = Counter()
    for k in range(banned + 1):
        for (b, w), count in (one_face_counts(n - k) if k < n else {(0, 1): 1}).items():
            out[b + k, w] += (-1) ** k * math.comb(banned, k) * count
    return {cell: count for cell, count in sorted(out.items()) if count}


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


class GluedMap(NamedTuple):
    """The one-face map obtained from a gluing.

    Vertex ids are the minimal corner index of each identified corner
    class.  Color is corner parity, with no color labels: a class of even
    corners only is black, of odd corners only white, and one of both
    parities is neither and makes the map non-bipartite.  ``graph_edges``
    holds one entry per glued side pair, in the order of ``Gluing.pairs()``:
    its two endpoint vertices, sorted.  ``pairing`` is the gluing's, so the
    face boundary can be walked side by side.
    """

    n: int
    pairing: tuple[int, ...]
    vertex_of: tuple[int, ...]
    degree: dict[int, int]
    doubled_genus: int
    black_vertices: tuple[int, ...]
    white_vertices: tuple[int, ...]
    graph_edges: tuple[tuple[int, int], ...]
    bipartite: bool


def enumerate_gluings(
    n: int, *, doubled_genus: int | None = None, banned: Iterable[tuple[int, int]] = ()
) -> Iterator[Gluing]:
    """All (2n-1)!! side matchings with the color-preserving identification,
    lowest unmatched side paired first, partners in increasing order.

    With ``doubled_genus`` only the matchings whose glued map has that
    doubled genus are generated, in the same relative order (see
    ``_gluings`` for the pruning).  No matching that holds a side pair of
    ``banned`` is generated (``leaf_pairs`` and ``black_leaf_pairs`` say
    which pairs a census may ban).
    """
    return _gluings(n, False, doubled_genus, banned)


def enumerate_twisted_gluings(n: int, *, doubled_genus: int | None = None) -> Iterator[Gluing]:
    """All (2n-1)!! * 2^n (matching, twist-flag) combinations.

    Order: lowest unmatched side paired first, partners increasing, and for
    each partner STRAIGHT before TWISTED; a pair's flag is chosen when the
    pair is placed, so the matching does not vary slowest.  ``doubled_genus``
    filters as in ``enumerate_gluings``.
    """
    return _gluings(n, True, doubled_genus)


def _gluings(
    n: int, twisted: bool, doubled_genus: int | None,
    banned: Iterable[tuple[int, int]] = (),
) -> Iterator[Gluing]:
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

    Each placement is decided before it merges: the roots a, b of its
    first corner pair and c, d of its second give the number of merges.
    A root of the second pair that the first merge absorbs counts as the
    root that absorbs it; only a twisted gluing can meet this, since in a
    matching the two pairs join corners of different colors.  A rejected
    placement touches no class, and a kept one merges and undoes its
    merges after its subtree.

    The side pairs of ``banned`` are never placed: each side holds a
    bitmask of its banned partners, read once per level for its lowest
    free side.
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
    # the partners a side may not take; the lowest free side is a pair's
    # lower side, so only the lower side holds the bit
    partners_banned = [0] * m
    for a, b in banned:
        a, b = min(a, b), max(a, b)
        partners_banned[a] |= 1 << b
    new = tuple.__new__  # skips the Python-level NamedTuple constructor

    def rec(i: int, left: int, live: int) -> Iterator[Gluing]:
        # i is the lowest free side, ``left`` the pairs still to place
        # (this one included), ``live`` the corner classes so far
        i1 = i + 1
        ban = partners_banned[i]
        for j in range(i1, m):
            if pairing[j] >= 0 or ban and ban >> j & 1:
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
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                while parent[c] != c:
                    c = parent[c]
                while parent[d] != d:
                    d = parent[d]
                after = live
                if a != b:
                    if size[a] < size[b]:
                        a, b = b, a
                    # b is absorbed into a
                    if c == b:
                        c = a
                    if d == b:
                        d = a
                    after -= 1
                if c != d:
                    after -= 1
                if not after - 2 * (left - 1) <= target <= after:
                    continue
                x = y = -1
                if a != b:
                    parent[b] = a
                    size[a] += size[b]
                    x = b
                if c != d:
                    if size[c] < size[d]:
                        c, d = d, c
                    parent[d] = c
                    size[c] += size[d]
                    y = d
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


def glue(gluing: Gluing) -> GluedMap:
    """Build the one-face map of a gluing, with the even corners black.

    No union-find: a vertex is a cycle of corner identifications.  Corner
    c has two ports, 2c where side c starts and 2c + 1 where side c - 1
    ends.  A side pair links the ports of the corners it identifies, start
    to start and end to end (STRAIGHT) or start to end (TWISTED), so every
    port has one partner.  Stepping from a port to its partner and on to
    the other port of the partner's corner (``port ^ 1``) visits each
    corner of one vertex once and comes back to the corner it left.  A
    walk from the least corner not yet visited names its vertex by that
    corner, and the same pass gives the degree (the corners visited) and
    the color (whether they share a parity).

    The color swap of a matching's map is the map of its odd side shift,
    ``glue(shift_gluing(gluing, 1))``.
    """
    p, twists = gluing
    m = len(p)
    n = m // 2
    partner = [0] * (2 * m)
    for i, j in enumerate(p):
        if j < i:
            continue
        # the ports where sides i and j start and where they end
        si, sj = 2 * i, 2 * j
        ei = si + 3 if i + 1 < m else 1
        ej = sj + 3 if j + 1 < m else 1
        # without flags, the color-preserving pattern (module docstring)
        if (i ^ j) & 1 if twists is None else twists[i]:
            partner[si], partner[ej], partner[ei], partner[sj] = ej, si, sj, ei
        else:
            partner[si], partner[sj], partner[ei], partner[ej] = sj, si, ej, ei

    vertex_of = [-1] * m
    degree: dict[int, int] = {}
    black: list[int] = []
    white: list[int] = []
    for c in range(m):
        if vertex_of[c] >= 0:
            continue
        vertex_of[c], port, walked, mixed = c, partner[2 * c] ^ 1, 1, 0
        k = port >> 1
        while k != c:
            vertex_of[k] = c
            mixed |= k ^ c
            walked += 1
            port = partner[port] ^ 1
            k = port >> 1
        degree[c] = walked
        if not mixed & 1:
            (white if c & 1 else black).append(c)

    edges = []
    for i, j in enumerate(p):
        if i < j:
            u = vertex_of[i]
            v = vertex_of[(i + 1) % m]
            edges.append((u, v) if u < v else (v, u))

    # GluedMap's fields in order, without the Python-level constructor
    return tuple.__new__(GluedMap, (
        n, p, tuple(vertex_of), degree, n + 1 - len(degree), tuple(black), tuple(white),
        tuple(edges),
        # the two ends of a side have opposite parities, so a loop or an
        # edge between two vertices of one color needs a mixed class
        len(black) + len(white) == len(degree),
    ))


def rotate_gluing(g: Gluing, r: int) -> Gluing:
    """Rotate by r map-edge steps: every side index shifts by 2r mod 2n."""
    if not 0 <= r < g.n:
        raise ValueError(f"rotation must satisfy 0 <= r < n, got r={r}, n={g.n}")
    return shift_gluing(g, 2 * r)


def shift_gluing(g: Gluing, t: int) -> Gluing:
    """Shift every side index by t mod 2n (odd t swaps corner colors)."""
    m = 2 * g.n
    return _relabel_sides(g, [(s + t) % m for s in range(m)])


def reflect_gluing(g: Gluing, k: int = 0) -> Gluing:
    """Reflect the polygon: corner c -> k - c, hence side s -> k - 1 - s.

    Twist flags are preserved (reflections exchange the two corner pairs
    inside each identification pattern but keep the pattern itself).
    """
    m = 2 * g.n
    return _relabel_sides(g, [(k - 1 - s) % m for s in range(m)])


def _relabel_sides(g: Gluing, image: list[int]) -> Gluing:
    """Move the pairing and the twist flags by the side map s -> image[s]."""
    pairing = [0] * len(image)
    for s, t in enumerate(g.pairing):
        pairing[image[s]] = image[t]
    twists = None
    if g.twists is not None:
        flags = [False] * len(image)
        for s, flag in enumerate(g.twists):
            flags[image[s]] = flag
        twists = tuple(flags)
    return Gluing(tuple(pairing), twists)
