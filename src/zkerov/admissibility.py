"""q-colorings of black vertices and the two admissibility oracles.

A q-coloring assigns an integer color >= 2 to every black vertex of a
bipartite one-face map.  A coloring is admissible when every nontrivial
subset A of black vertices sees strictly more than sum_{v in A} (q(v)-1)
distinct white vertices (the marriage-type condition).  The same
predicate has an equivalent formulation through edge orientations: every
white vertex gets exactly one outgoing edge, every black vertex v exactly
q(v)-1 incoming edges, and all black vertices lie in one strongly
connected component of the oriented multigraph.  Both oracles are
implemented independently and cross-checked in the tests.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Union

from .partitions import compositions
from .polygon import GluedMap


# The records below validate in a __new__ of their own, which a NamedTuple
# class body may not define, so each subclasses a plain NamedTuple of its fields.
class _MonomialFields(NamedTuple):
    parts: tuple[int, ...]


class Monomial(_MonomialFields):
    """A free-cumulant monomial R_{a_1}...R_{a_k}, stored as the partition
    (a_1 >= ... >= a_k), all parts >= 2.

    The number of black vertices of a matching map is k and its total
    vertex count is a_1 + ... + a_k.
    """

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]) -> Monomial:
        if any(a < 2 for a in parts):
            raise ValueError(f"monomial parts must be >= 2, got {parts}")
        return super().__new__(cls, tuple(sorted(parts, reverse=True)))

    @property
    def vertex_count(self) -> int:
        return sum(self.parts)

    def label(self) -> str:
        return "*".join(f"R{a}" for a in self.parts) if self.parts else "1"


class _BipartiteGraphFields(NamedTuple):
    blacks: tuple[int, ...]
    whites: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (black, white), multiplicity kept


class BipartiteGraph(_BipartiteGraphFields):
    """A black/white multigraph given by its edge list (used directly by the
    oracles; GluedMap instances are converted through bipartite_graph)."""

    __slots__ = ()

    def __new__(
        cls, blacks: tuple[int, ...], whites: tuple[int, ...], edges: tuple[tuple[int, int], ...]
    ) -> BipartiteGraph:
        bs, ws = set(blacks), set(whites)
        for b, w in edges:
            if b not in bs or w not in ws:
                raise ValueError(f"edge ({b},{w}) not between a black and a white vertex")
        return super().__new__(cls, blacks, whites, edges)


GraphLike = Union[GluedMap, BipartiteGraph]


def bipartite_graph(m: GluedMap) -> BipartiteGraph:
    if not m.bipartite:
        raise ValueError("map is not bipartite")
    black = set(m.black_vertices)
    edges = tuple((u, v) if u in black else (v, u) for u, v in m.graph_edges)
    return BipartiteGraph(m.black_vertices, m.white_vertices, edges)


def _as_graph(g: GraphLike) -> BipartiteGraph:
    return bipartite_graph(g) if isinstance(g, GluedMap) else g


def _check_q(g: BipartiteGraph, q: Mapping[int, int]) -> None:
    if set(q) != set(g.blacks):
        raise ValueError("q must be defined exactly on the black vertices")
    for v, c in q.items():
        if c < 2:
            raise ValueError(f"q colors must be >= 2, got q[{v}]={c}")


def hall_condition(g: GraphLike, q: Mapping[int, int]) -> bool:
    """True iff every nontrivial subset A of blacks has strictly more than
    sum_{v in A}(q(v)-1) distinct white neighbors.  Exhaustive over subsets."""
    graph = _as_graph(g)
    _check_q(graph, q)
    blacks = graph.blacks
    b = len(blacks)
    white_idx = {w: i for i, w in enumerate(graph.whites)}
    mask = {v: 0 for v in blacks}
    for bv, wv in graph.edges:
        mask[bv] |= 1 << white_idx[wv]
    masks = [mask[v] for v in blacks]
    needs = [q[v] - 1 for v in blacks]
    for subset in range(1, (1 << b) - 1):
        nbr = 0
        need = 0
        rest = subset
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            nbr |= masks[i]
            need += needs[i]
            rest ^= low
        if nbr.bit_count() <= need:
            return False
    return True


def orientation_walk_condition(g: GraphLike, q: Mapping[int, int]) -> bool:
    """Orientation-based oracle, equivalent to hall_condition.

    Searches for an orientation in which every white vertex has exactly one
    outgoing edge and every black vertex v exactly q(v)-1 incoming edges,
    such that all black vertices share one strongly connected component
    (a single black vertex counts as a trivial closed walk).  Backtracking
    over white out-edge choices with incoming-degree pruning.
    """
    graph = _as_graph(g)
    _check_q(graph, q)
    blacks = list(graph.blacks)
    whites = list(graph.whites)
    if sum(q[v] - 1 for v in blacks) != len(whites):
        return False

    # multiplicity of edges per (white, black)
    mult: dict[int, dict[int, int]] = {w: {} for w in whites}
    for bv, wv in graph.edges:
        mult[wv][bv] = mult[wv].get(bv, 0) + 1

    capacity = {v: q[v] - 1 for v in blacks}
    incoming = {v: 0 for v in blacks}
    choice: dict[int, int] = {}

    def blacks_strongly_connected() -> bool:
        # forward/backward reachability from one black over the orientation
        fwd: dict[int, list[int]] = {v: [] for v in blacks + whites}
        bwd: dict[int, list[int]] = {v: [] for v in blacks + whites}
        for w in whites:
            out_b = choice[w]
            fwd[w].append(out_b)
            bwd[out_b].append(w)
            for bv, k in mult[w].items():
                k_rev = k - (1 if bv == out_b else 0)
                if k_rev > 0:
                    fwd[bv].append(w)
                    bwd[w].append(bv)

        def reach(adj: dict[int, list[int]], start: int) -> set[int]:
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            return seen

        root = blacks[0]
        scc = reach(fwd, root) & reach(bwd, root)
        return all(v in scc for v in blacks)

    def assign(i: int) -> bool:
        if i == len(whites):
            return blacks_strongly_connected()
        w = whites[i]
        for bv in sorted(mult[w]):
            if incoming[bv] < capacity[bv]:
                incoming[bv] += 1
                choice[w] = bv
                if assign(i + 1):
                    return True
                incoming[bv] -= 1
        choice.pop(w, None)
        return False

    if len(blacks) == 0:
        return False
    return assign(0)


def candidate_colorings(g: GraphLike) -> Iterator[dict[int, int]]:
    """All q: blacks -> {2,3,...} with sum(q(v)-1) == #whites, deterministic
    order (blacks ascending, compositions lexicographic).  No admissibility
    filter; this is the raw condition (a)+(b)+(c) universe for a fixed map."""
    graph = _as_graph(g)
    blacks = sorted(graph.blacks)
    b, w = len(blacks), len(graph.whites)
    if b == 0 or w < b:
        return
    for comp in compositions(w, b, 1):
        yield {v: comp[i] + 1 for i, v in enumerate(blacks)}


def enumerate_q(g: GraphLike) -> Iterator[tuple[dict[int, int], Monomial]]:
    """Admissible colorings of a map with their monomials, deterministic order."""
    graph = _as_graph(g)
    for q in candidate_colorings(graph):
        if hall_condition(graph, q):
            yield q, Monomial(tuple(q.values()))

