"""Census of gluings up to symmetry: reduced maps, stabilizers, decorations.

Identity conventions
--------------------
* The working convention is cyclic: two gluings are the same unlabeled map
  iff they differ by a rotation (side shift by 2r, group of order n).
  Stabilizer orders and the labeled-map accounting R * n / |Stab| use it.
* The drawing-level convention is dihedral: the full symmetry group of the
  2n-gon on sides (all 2n shifts and all 2n reflections, order 4n).  The
  twisted, color-ignored reduced census at n <= 3 yields exactly 5 classes
  under it; cyclic-by-2 alone leaves mirror images distinct.

Reduction works on the bipartite multigraph of a matching's map
(``admissibility.BipartiteGraph``; every color-preserving matching glues to
one) and rewrites it to its fixpoint under two rules: delete a degree-1
white vertex with its edge; smooth an adjacent white/black pair of degree-2
vertices into a single edge.  Reduced bipartite maps are the connected
bipartite fixpoints without degree-1 vertices or bridges; contributing ones
admit at least one admissible q-coloring.

Bridges are read off the face boundary.  A glued map has one face, whose
boundary walks the corners 0..2n-1 and traverses the edge of a side pair
i < j twice, along side i and along side j.  Deleting that edge cuts the
walk into corners i+1..j and the other corners; each part stays
connected, and every other edge lies within one part (an edge traversed
once in each would have an endpoint in both).  So the edge is a bridge
iff the two parts share no vertex.

Pruned enumeration
------------------
A census with a doubled-genus filter asks the enumerator for only the
gluings of that genus (``polygon._gluings`` prunes them), so ``glue()``
runs on those alone.  Each survivor's genus is still checked after
``glue()``; a mismatch raises ``InternalConsistencyError``.  A census of
the matchings under a reduced filter also skips the pairs of
``polygon.leaf_pairs``, and one under the contributing filter alone those
of ``polygon.black_leaf_pairs``.  Classes do not depend on the enumeration
order, because representatives are orbit minima and the result is
sorted.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .admissibility import BipartiteGraph, bipartite_graph, enumerate_q
from .partitions import InternalConsistencyError, exact_quotient
from .polygon import (
    GluedMap,
    Gluing,
    black_leaf_pairs,
    enumerate_gluings,
    enumerate_twisted_gluings,
    glue,
    leaf_pairs,
    reflect_gluing,
    rotate_gluing,
    shift_gluing,
)

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"


# ---------------------------------------------------------------------------
# bridges and reduction


def has_bridge(m: GluedMap) -> bool:
    """True iff some edge disconnects the map (face-boundary test, module
    docstring); loops never do."""
    v = m.vertex_of
    return any(set(v[i + 1:j + 1]).isdisjoint(v[:i + 1] + v[j + 1:])
               for i, j in enumerate(m.pairing) if i < j)


def reduce_multigraph(
    g: BipartiteGraph, rule_order: Sequence[str] = ("leaf", "smooth")
) -> BipartiteGraph:
    """Fixpoint of white-leaf deletion and degree-2 pair smoothing.

    ``rule_order`` fixes which rule is tried first at every step.  On maps
    the decoration procedure can produce (in particular every contributing
    map) the result is order-independent; maps with black leaves sit outside
    that family and the two orders may genuinely diverge on them, which the
    tests pin down.
    """
    blacks, whites, edges = list(g.blacks), list(g.whites), list(g.edges)
    while True:
        deg = Counter(itertools.chain.from_iterable(edges))
        for rule in rule_order:
            if rule == "leaf":
                leaves = [w for w in whites if deg[w] == 1]
                if leaves:
                    x = min(leaves)
                    whites.remove(x)
                    edges = [e for e in edges if e[1] != x]
                    break
            elif rule == "smooth":
                # a black y and a white x of degree 2 joined once: a double
                # edge between them is a closed digon, nothing to reconnect
                pair = next((e for e in sorted(edges, key=sorted)
                             if deg[e[0]] == deg[e[1]] == 2 and edges.count(e) == 1), None)
                if pair is not None:
                    y, x = pair
                    edges.remove(pair)
                    (ux,) = [b for b, w in edges if w == x]
                    (vy,) = [w for b, w in edges if b == y]
                    edges = [(b, w) for b, w in edges if b != y and w != x]
                    edges.append((ux, vy))
                    blacks.remove(y)
                    whites.remove(x)
                    break
        else:
            return BipartiteGraph(tuple(blacks), tuple(whites), tuple(edges))


def reduce_map(
    m: GluedMap, rule_order: Sequence[str] = ("leaf", "smooth")
) -> BipartiteGraph:
    return reduce_multigraph(bipartite_graph(m), rule_order)


def canonical_key(g: BipartiteGraph) -> tuple:
    """Canonical form of a small bipartite multigraph: minimum edge multiset
    over all relabelings that keep each vertex's color and degree, by brute
    force (every caller passes a map with n <= 6: at most 7! relabelings)."""
    deg = Counter(itertools.chain.from_iterable(g.edges))
    groups: dict[tuple[str, int], list[int]] = {}
    for color, vertices in (("black", g.blacks), ("white", g.whites)):
        for v in sorted(vertices):
            groups.setdefault((color, deg[v]), []).append(v)
    keys = sorted(groups)
    signature = tuple((c, d, len(groups[(c, d)])) for c, d in keys)
    base = 0
    offsets: dict[tuple[str, int], int] = {}
    for k in keys:
        offsets[k] = base
        base += len(groups[k])
    best: tuple | None = None
    for perms in itertools.product(*(itertools.permutations(groups[k]) for k in keys)):
        relabel: dict[int, int] = {}
        for k, perm in zip(keys, perms):
            for pos, v in enumerate(perm):
                relabel[v] = offsets[k] + pos
        edges = tuple(sorted((relabel[b], relabel[w]) for b, w in g.edges))
        if best is None or edges < best:
            best = edges
    return (signature, best)


def is_reduced(m: GluedMap) -> bool:
    """No vertex of degree 1 or 2 and no disconnecting edge."""
    return min(m.degree.values()) >= 3 and not has_bridge(m)


def is_reduced_bipartite(m: GluedMap) -> bool:
    """Bipartite, no degree-1 vertex, no smoothable degree-2 pair, no bridge."""
    if not m.bipartite:
        return False
    if min(m.degree.values()) < 2:
        return False
    for u, v in m.graph_edges:
        if m.degree[u] == 2 and m.degree[v] == 2:
            return False
    return not has_bridge(m)


def is_contributing(m: GluedMap) -> bool:
    """Admits at least one admissible q-coloring."""
    if not m.bipartite:
        return False
    return next(iter(enumerate_q(m)), None) is not None


# ---------------------------------------------------------------------------
# orbits and classes


def stabilizer_order(g: Gluing) -> int:
    """Order of the rotation stabilizer (cyclic group of order n)."""
    return sum(1 for r in range(g.n) if rotate_gluing(g, r) == g)


def _orbit(g: Gluing, convention: str) -> set[Gluing]:
    if convention == CYCLIC:
        return {rotate_gluing(g, r) for r in range(g.n)}
    if convention == DIHEDRAL:
        m = 2 * g.n
        out = {shift_gluing(g, t) for t in range(m)}
        out |= {reflect_gluing(g, k) for k in range(m)}
        return out
    raise ValueError(f"unknown convention {convention!r}")


class ReducedMapClass(NamedTuple):
    """One symmetry class of gluings with its map-level attributes."""

    n: int
    representative: Gluing
    orbit_size: int
    stabilizer_order: int
    group_order: int
    degree_sequence: tuple[int, ...]
    bipartite: bool
    black_degrees: tuple[int, ...] | None
    bridgeless: bool
    doubled_genus: int
    reduced: bool
    reduced_bipartite: bool
    contributing: bool


def _class_of(rep: Gluing, orbit_size: int, convention: str) -> ReducedMapClass:
    m = glue(rep)
    group_order = rep.n if convention == CYCLIC else 4 * rep.n
    return ReducedMapClass(
        n=rep.n,
        representative=rep,
        orbit_size=orbit_size,
        stabilizer_order=exact_quotient(group_order, orbit_size, "stabilizer order"),
        group_order=group_order,
        degree_sequence=tuple(sorted(m.degree.values())),
        bipartite=m.bipartite,
        black_degrees=tuple(sorted(m.degree[v] for v in m.black_vertices)) if m.bipartite else None,
        bridgeless=not has_bridge(m),
        doubled_genus=m.doubled_genus,
        reduced=is_reduced(m),
        reduced_bipartite=is_reduced_bipartite(m),
        contributing=is_contributing(m),
    )


def census_classes(
    ns: int | Iterable[int],
    *,
    universe: str = "matchings",
    doubled_genus: int | None = None,
    reduced_only: bool = False,
    reduced_bipartite_only: bool = False,
    contributing_only: bool = False,
    convention: str = CYCLIC,
) -> list[ReducedMapClass]:
    """Symmetry classes of the filtered gluing universe, one per orbit,
    representatives lexicographically least, sorted by (n, representative)."""
    if contributing_only and convention != CYCLIC:
        raise ValueError("the contributing filter is only meaningful for cyclic orbits")
    if isinstance(ns, int):
        ns = [ns]
    classes: list[ReducedMapClass] = []
    for n in ns:
        if universe == "matchings":
            if reduced_only or reduced_bipartite_only:
                banned = leaf_pairs(n)
            else:
                banned = black_leaf_pairs(n) if contributing_only else ()
            stream = enumerate_gluings(n, doubled_genus=doubled_genus, banned=banned)
        elif universe == "twisted":
            stream = enumerate_twisted_gluings(n, doubled_genus=doubled_genus)
        else:
            raise ValueError(f"unknown universe {universe!r}")
        seen: set[Gluing] = set()
        for g in stream:
            if g in seen:
                continue
            m = glue(g)
            if doubled_genus is not None and m.doubled_genus != doubled_genus:
                raise InternalConsistencyError(
                    f"enumerated {g} for doubled genus {doubled_genus}, "
                    f"but it glues to {m.doubled_genus}"
                )
            if reduced_only and not is_reduced(m):
                continue
            if reduced_bipartite_only and not is_reduced_bipartite(m):
                continue
            if contributing_only and not is_contributing(m):
                continue
            orbit = _orbit(g, convention)
            seen |= orbit
            classes.append(_class_of(min(orbit), len(orbit), convention))
    classes.sort(key=lambda c: (c.n, c.representative))
    return classes


# The two pinned presets, each pooled over n = 1..max_n: the default max_n
# and the census_classes keywords.
PRESETS: dict[str, tuple[int, dict]] = {
    "reduced": (3, {"universe": "twisted", "doubled_genus": 2, "reduced_only": True,
                    "convention": DIHEDRAL}),
    "contributing": (6, {"doubled_genus": 2, "reduced_bipartite_only": True,
                         "contributing_only": True}),
}


def preset(name: str) -> list[ReducedMapClass]:
    """The classes of a preset, pooled over its n range."""
    max_n, keywords = PRESETS[name]
    return census_classes(range(1, max_n + 1), **keywords)


# ---------------------------------------------------------------------------
# decorations (subdivision pairs and leaves) and the labeled-map accounting


def decoration_count(edge_count: int, k: int) -> int:
    """Ways of distributing k identical subdivision pairs over ``edge_count``
    edges."""
    if edge_count < 1 or k < 0:
        raise ValueError(f"need edge_count >= 1 and k >= 0, got {edge_count}, {k}")
    return math.comb(k + edge_count - 1, edge_count - 1)


def insert_pair(g: Gluing, side: int) -> Gluing:
    """Subdivide the map edge glued as (side, partner) with a white/black
    vertex pair; returns the gluing of the (2n+4)-gon."""
    if g.twists is not None:
        raise ValueError("pair insertion is defined on the matching universe")
    m = len(g.pairing)
    i, j = sorted((side, g.pairing[side]))
    if i == j:
        raise ValueError(f"side {side} is not glued")

    def remap(s: int) -> int:
        return s + 2 * (s > i) + 2 * (s > j)

    new_p = [-1] * (m + 4)
    for s, t in enumerate(g.pairing):
        if s in (i, j):
            continue
        new_p[remap(s)] = remap(t)
    if (i ^ j) & 1 == 0:
        # parallel identification: sub-sides pair in the same order
        for t in range(3):
            new_p[i + t] = j + 2 + t
            new_p[j + 2 + t] = i + t
    else:
        # antiparallel identification: sub-sides pair in reverse order
        for t in range(3):
            new_p[i + t] = j + 4 - t
            new_p[j + 4 - t] = i + t
    return Gluing(tuple(new_p))


def insert_leaf(g: Gluing, corner: int) -> Gluing:
    """Attach a degree-1 white vertex in the sector of an (even) black corner."""
    if g.twists is not None:
        raise ValueError("leaf insertion is defined on the matching universe")
    if corner % 2:
        raise ValueError(f"leaves attach at black (even) corners, got {corner}")
    m = len(g.pairing)

    def remap(s: int) -> int:
        return s + 2 if s >= corner else s

    new_p = [-1] * (m + 2)
    for s, t in enumerate(g.pairing):
        new_p[remap(s)] = remap(t)
    new_p[corner] = corner + 1
    new_p[corner + 1] = corner
    return Gluing(tuple(new_p))


def insert_pairs(g: Gluing, edge_multiset: Sequence[int]) -> Gluing:
    """Insert one subdivision pair per entry; entries index g.pairs().

    Edges are subdivided from the highest first side down: an insertion
    shifts only the sides after its own first side, and a repeated edge is
    subdivided again at that same side.
    """
    edges = g.pairs()
    for e in sorted(edge_multiset, reverse=True):
        g = insert_pair(g, edges[e][0])
    return g


def insert_leaves(g: Gluing, corner_multiset: Sequence[int]) -> Gluing:
    for c in sorted(corner_multiset, reverse=True):
        g = insert_leaf(g, c)
    return g


class DecorationReport(NamedTuple):
    base: Gluing
    base_stabilizer: int
    target_black: int
    target_white: int
    added_pairs: int
    added_leaves: int
    decorated_edge_count: int
    decoration_ways: int
    expected_labeled_maps: int
    generated_labeled_maps: int

    @property
    def ok(self) -> bool:
        return self.expected_labeled_maps == self.generated_labeled_maps


def verify_decoration_accounting(base: Gluing, target_black: int, target_white: int) -> DecorationReport:
    """Check the labeled-map accounting: #distinct labeled decorated maps ==
    (ways of adding vertices) * n / |Stab(base)|.

    Decoration ways are the distinct decorated gluings of the fixed base
    labeling (pair placements on the two halves of a subdivided loop yield
    the *same* gluing, so naive per-edge stars-and-bars overcounts there);
    the generated side applies every rotation of the decorated polygon and
    deduplicates.  The two sides are tied together across rotation orbits,
    so the equality is a genuine check of the stabilizer accounting.  A
    target the base cannot reach reports a negative added count and no
    decorated map.
    """
    base_map = glue(base)
    if not base_map.bipartite:
        raise ValueError("decoration accounting applies to bipartite bases")
    b0 = len(base_map.black_vertices)
    w0 = len(base_map.white_vertices)
    m = base.n
    stab = stabilizer_order(base)

    k_pairs = target_black - b0
    leaves = target_white - w0 - k_pairs
    n_decorated = m + 2 * k_pairs + leaves

    decorated: set[Gluing] = set()
    if k_pairs >= 0 and leaves >= 0:  # else no decoration reaches the target
        for pair_choice in itertools.combinations_with_replacement(range(m), k_pairs):
            g1 = insert_pairs(base, pair_choice)
            black_corners = [c for c in range(2 * g1.n) if c % 2 == 0]
            for leaf_choice in itertools.combinations_with_replacement(black_corners, leaves):
                decorated.add(insert_leaves(g1, leaf_choice))

    generated: set[Gluing] = set()
    for g2 in decorated:
        for r in range(g2.n):
            generated.add(rotate_gluing(g2, r))

    ways = len(decorated)
    return DecorationReport(
        base=base,
        base_stabilizer=stab,
        target_black=target_black,
        target_white=target_white,
        added_pairs=k_pairs,
        added_leaves=leaves,
        decorated_edge_count=n_decorated,
        decoration_ways=ways,
        expected_labeled_maps=exact_quotient(ways * n_decorated, stab, "labeled map count"),
        generated_labeled_maps=len(generated),
    )
