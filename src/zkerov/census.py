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

Reduction rewrites a colored multigraph to its fixpoint under two rules:
delete a degree-1 white vertex with its edge; smooth an adjacent
white/black pair of degree-2 vertices into a single edge.  Reduced
bipartite maps are the connected bipartite fixpoints without degree-1
vertices or bridges; contributing ones admit at least one admissible
q-coloring.

Genus-pruned enumeration
------------------------
A census with a doubled-genus filter asks the enumerator for only the
gluings of that genus, so ``glue()`` runs on those alone (at n=6, 12,798
of the 665,280 twisted gluings have doubled genus 2; at n=7, 10,612 of the
135,135 matchings).  The enumerator keeps the corner classes in a
union-find that undoes its merges on backtrack.  Each side pair makes two
unions, and a union merges two classes or none, so with L live classes and
r pairs still to place the map ends with between L - 2r and L vertices; a
subtree is dropped once V = n + 1 - doubledGenus falls outside that range.
The bound is exact: a gluing is yielded iff its map has V vertices.  Each
survivor's genus is still checked after ``glue()``; a mismatch raises
``InternalConsistencyError``.  Classes do not depend on the enumeration
order, because representatives are orbit minima and the result is sorted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .admissibility import enumerate_q
from .engine import InternalConsistencyError
from .polygon import (
    BLACK,
    WHITE,
    GluedMap,
    Gluing,
    enumerate_gluings,
    enumerate_twisted_gluings,
    glue,
    reflect_gluing,
    rotate_gluing,
    shift_gluing,
)

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"


# ---------------------------------------------------------------------------
# colored multigraphs and reduction


@dataclass
class ColoredMultigraph:
    """Vertex colors plus an edge list with multiplicity (u <= v per edge,
    loops allowed and counted twice in degrees)."""

    colors: dict[int, str]
    edges: list[tuple[int, int]]

    def copy(self) -> "ColoredMultigraph":
        return ColoredMultigraph(dict(self.colors), list(self.edges))


def underlying_multigraph(m: GluedMap) -> ColoredMultigraph:
    return ColoredMultigraph(
        colors=dict(m.vertex_color),
        edges=[uv for uv, _labels in m.graph_edges],
    )


def _degrees(g: ColoredMultigraph) -> dict[int, int]:
    deg = {v: 0 for v in g.colors}
    for u, v in g.edges:
        if u == v:
            deg[u] += 2
        else:
            deg[u] += 1
            deg[v] += 1
    return deg


def has_bridge(g: ColoredMultigraph | GluedMap) -> bool:
    """True iff some non-loop edge disconnects the graph."""
    if isinstance(g, GluedMap):
        g = underlying_multigraph(g)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in g.colors}
    for eid, (u, v) in enumerate(g.edges):
        if u == v:
            continue  # loops are never bridges
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    timer = itertools.count()
    found = False

    def dfs(root: int) -> None:
        nonlocal found
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        disc[root] = low[root] = next(timer)
        while stack:
            u, in_edge, idx = stack.pop()
            if idx < len(adj[u]):
                stack.append((u, in_edge, idx + 1))
                v, eid = adj[u][idx]
                if eid == in_edge:
                    continue
                if v in disc:
                    low[u] = min(low[u], disc[v])
                else:
                    disc[v] = low[v] = next(timer)
                    stack.append((v, eid, 0))
            elif stack:
                # returning from u into its parent frame
                pu = stack[-1][0]
                low[pu] = min(low[pu], low[u])
                if low[u] > disc[pu]:
                    found = True

    for v in g.colors:
        if v not in disc:
            dfs(v)
    return found


def reduce_multigraph(
    g: ColoredMultigraph, rule_order: Sequence[str] = ("leaf", "smooth")
) -> ColoredMultigraph:
    """Fixpoint of leaf deletion and degree-2 pair smoothing.

    ``rule_order`` fixes which rule is tried first at every step.  On maps
    the decoration procedure can produce (in particular every contributing
    map) the result is order-independent; maps with black leaves sit outside
    that family and the two orders may genuinely diverge on them, which the
    tests pin down.
    """
    g = g.copy()
    while True:
        deg = _degrees(g)
        applied = False
        for rule in rule_order:
            if rule == "leaf":
                target = None
                for v in sorted(g.colors):
                    if g.colors[v] == WHITE and deg[v] == 1:
                        target = v
                        break
                if target is None:
                    continue
                g.edges = [e for e in g.edges if target not in e]
                del g.colors[target]
                applied = True
                break
            if rule == "smooth":
                pair = None
                for u, v in sorted(g.edges):
                    if u == v or deg[u] != 2 or deg[v] != 2:
                        continue
                    if {g.colors[u], g.colors[v]} != {BLACK, WHITE}:
                        continue
                    if sum(1 for e in g.edges if set(e) == {u, v}) == 2:
                        continue  # closed digon component, nothing to reconnect
                    pair = (u, v)
                    break
                if pair is None:
                    continue
                u, v = pair
                x, y = (u, v) if g.colors[u] == WHITE else (v, u)  # x white, y black
                # other endpoints of x and y besides the smoothing edge
                rest = list(g.edges)
                rest.remove((min(x, y), max(x, y)))
                ux = next(a if b == x else b for a, b in rest if x in (a, b))
                vy = next(a if b == y else b for a, b in rest if y in (a, b))
                g.edges = [e for e in rest if x not in e and y not in e]
                g.edges.append((min(ux, vy), max(ux, vy)))
                del g.colors[x]
                del g.colors[y]
                applied = True
                break
        if not applied:
            return g


def reduce_map(
    m: GluedMap, rule_order: Sequence[str] = ("leaf", "smooth")
) -> ColoredMultigraph:
    return reduce_multigraph(underlying_multigraph(m), rule_order)


def canonical_key(g: ColoredMultigraph) -> tuple:
    """Canonical form of a small colored multigraph: minimum edge multiset
    over all color- and degree-preserving relabelings."""
    deg = _degrees(g)
    groups: dict[tuple[str, int], list[int]] = {}
    for v in sorted(g.colors):
        groups.setdefault((g.colors[v], deg[v]), []).append(v)
    keys = sorted(groups)
    signature = tuple((c, d, len(groups[(c, d)])) for c, d in keys)
    total = 1
    for k in keys:
        total *= math.factorial(len(groups[k]))
    if total > 1_000_000:
        raise ValueError(f"graph too symmetric to canonicalize by brute force ({total} relabelings)")
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
        edges = tuple(
            sorted((min(relabel[u], relabel[v]), max(relabel[u], relabel[v])) for u, v in g.edges)
        )
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
    for (u, v), _labels in m.graph_edges:
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


def _group_order(n: int, convention: str) -> int:
    return n if convention == CYCLIC else 4 * n


@dataclass(frozen=True)
class ReducedMapClass:
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
    group_order = _group_order(rep.n, convention)
    if group_order % orbit_size:
        raise InternalConsistencyError(
            f"orbit size {orbit_size} does not divide group order {group_order}"
        )
    return ReducedMapClass(
        n=rep.n,
        representative=rep,
        orbit_size=orbit_size,
        stabilizer_order=group_order // orbit_size,
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
    bipartite_only: bool = False,
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
            stream = enumerate_gluings(n, doubled_genus=doubled_genus)
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
            if bipartite_only and not m.bipartite:
                continue
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


def small_reduced_census(max_n: int = 3) -> list[ReducedMapClass]:
    """Reduced (colors-ignored) one-face classes of doubled genus 2 over the
    twisted universe, pooled for n <= max_n, dihedral identity."""
    return census_classes(
        range(1, max_n + 1),
        universe="twisted",
        doubled_genus=2,
        reduced_only=True,
        convention=DIHEDRAL,
    )


def contributing_reduced_bipartite_census(max_n: int = 6) -> list[ReducedMapClass]:
    """Contributing reduced-bipartite classes of doubled genus 2 over the
    matching universe, pooled for n <= max_n, cyclic identity."""
    return census_classes(
        range(1, max_n + 1),
        doubled_genus=2,
        reduced_bipartite_only=True,
        contributing_only=True,
        convention=CYCLIC,
    )


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
    """Insert one subdivision pair per entry; entries index g.pairs()."""
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


def insert_leaves(g: Gluing, corner_multiset: Sequence[int]) -> Gluing:
    for c in sorted(corner_multiset, reverse=True):
        g = insert_leaf(g, c)
    return g


@dataclass(frozen=True)
class DecorationReport:
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


def verify_decoration_accounting(base: ReducedMapClass | Gluing, target_black: int, target_white: int) -> DecorationReport:
    """Check the labeled-map accounting: #distinct labeled decorated maps ==
    (ways of adding vertices) * n / |Stab(base)|.

    Decoration ways are the distinct decorated gluings of the fixed base
    labeling (pair placements on the two halves of a subdivided loop yield
    the *same* gluing, so naive per-edge stars-and-bars overcounts there);
    the generated side applies every rotation of the decorated polygon and
    deduplicates.  The two sides are tied together across rotation orbits,
    so the equality is a genuine check of the stabilizer accounting.
    """
    base_g = base.representative if isinstance(base, ReducedMapClass) else base
    base_map = glue(base_g)
    if not base_map.bipartite:
        raise ValueError("decoration accounting applies to bipartite bases")
    b0 = len(base_map.black_vertices)
    w0 = len(base_map.white_vertices)
    m = base_g.n
    stab = stabilizer_order(base_g)

    k_pairs = target_black - b0
    leaves = target_white - w0 - k_pairs
    if k_pairs < 0 or leaves < 0:
        return DecorationReport(
            base=base_g,
            base_stabilizer=stab,
            target_black=target_black,
            target_white=target_white,
            added_pairs=max(k_pairs, 0),
            added_leaves=max(leaves, 0),
            decorated_edge_count=m,
            decoration_ways=0,
            expected_labeled_maps=0,
            generated_labeled_maps=0,
        )
    n_decorated = m + 2 * k_pairs + leaves

    decorated: set[Gluing] = set()
    for pair_choice in itertools.combinations_with_replacement(range(m), k_pairs):
        g1 = insert_pairs(base_g, pair_choice)
        black_corners = [c for c in range(2 * g1.n) if c % 2 == 0]
        for leaf_choice in itertools.combinations_with_replacement(black_corners, leaves):
            decorated.add(insert_leaves(g1, leaf_choice))

    generated: set[Gluing] = set()
    for g2 in decorated:
        for r in range(g2.n):
            generated.add(rotate_gluing(g2, r))

    ways = len(decorated)
    expected_total = ways * n_decorated
    if expected_total % stab:
        raise InternalConsistencyError(
            f"decorated count {ways}*{n_decorated} not divisible by stabilizer {stab}"
        )
    return DecorationReport(
        base=base_g,
        base_stabilizer=stab,
        target_black=target_black,
        target_white=target_white,
        added_pairs=k_pairs,
        added_leaves=leaves,
        decorated_edge_count=n_decorated,
        decoration_ways=ways,
        expected_labeled_maps=expected_total // stab,
        generated_labeled_maps=len(generated),
    )
