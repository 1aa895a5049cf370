import functools
import itertools

import pytest

from reference import admissible_colorings, insert_pairs_tracked, validate
import zkerov.census as census_mod
from zkerov.admissibility import Monomial, bipartite_graph
from zkerov.census import (
    CYCLIC,
    DIHEDRAL,
    canonical_key,
    census_classes,
    decoration_count,
    has_bridge,
    insert_leaf,
    insert_leaves,
    insert_pair,
    insert_pairs,
    is_contributing,
    is_reduced,
    is_reduced_bipartite,
    preset,
    reduce_map,
    reduce_multigraph,
    stabilizer_order,
    verify_decoration_accounting,
)
from zkerov.engine import InternalConsistencyError
from zkerov.polygon import (
    Gluing,
    black_leaf_pairs,
    double_factorial,
    enumerate_gluings,
    enumerate_twisted_gluings,
    glue,
    leaf_pairs,
    reflect_gluing,
    rotate_gluing,
    shift_gluing,
)

THETA_STAB3 = Gluing((3, 4, 5, 0, 1, 2))
THETA_STAB1 = Gluing((2, 4, 0, 5, 1, 3))


def _component_count(edges, verts):
    adj = {v: [] for v in verts}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    out = 0
    for s in verts:
        if s in seen:
            continue
        out += 1
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return out


def naive_has_bridge(m):
    verts, edges = list(m.degree), list(m.graph_edges)
    base = _component_count(edges, verts)
    for k, (u, v) in enumerate(edges):
        if u == v:
            continue
        if _component_count(edges[:k] + edges[k + 1:], verts) > base:
            return True
    return False


class TestPredicates:
    def test_digon_is_not_reduced(self):
        assert not is_reduced(glue(Gluing((1, 0))))

    def test_theta_is_reduced(self):
        assert is_reduced(glue(THETA_STAB3))

    def test_single_vertex_loops_are_reduced(self):
        # all four corners merge: one vertex of degree 4, loops are not bridges
        m = glue(Gluing((1, 0, 3, 2), (False, False, False, False)))
        assert len(m.degree) == 1
        assert is_reduced(m)

    def test_bridge_detection(self):
        # a sphere gluing with a white leaf has a bridge
        m = glue(Gluing((1, 0, 3, 2)))
        assert has_bridge(m)
        assert not has_bridge(glue(THETA_STAB3))

    def test_bridge_detection_matches_edge_removal_oracle(self):
        # every matching for n <= 6 and every twisted gluing for n <= 4;
        # the twisted maps bring loops and vertices of mixed corner parity
        seen = set()
        gluings = itertools.chain(
            *(enumerate_gluings(n) for n in range(1, 7)),
            *(enumerate_twisted_gluings(n) for n in range(1, 5)),
        )
        for g in gluings:
            m = glue(g)
            bridged = has_bridge(m)
            assert bridged == naive_has_bridge(m), g
            seen.add(("bridge", bridged))
            seen.update({"loop" for u, v in m.graph_edges if u == v})
            seen.update({"multi-edge" for e in m.graph_edges if m.graph_edges.count(e) > 1})
            if len({(v, c & 1) for c, v in enumerate(m.vertex_of)}) > len(m.degree):
                seen.add("mixed")
        assert seen == {("bridge", True), ("bridge", False), "loop", "multi-edge", "mixed"}

    def test_reduced_bipartite_families(self):
        assert is_reduced_bipartite(glue(THETA_STAB3))
        assert is_reduced_bipartite(glue(THETA_STAB1))
        assert not is_reduced_bipartite(glue(Gluing((1, 0))))
        # theta with a subdivision pair has an adjacent degree-2 pair
        assert not is_reduced_bipartite(glue(insert_pair(THETA_STAB3, 0)))

    def test_contributing(self):
        assert is_contributing(glue(THETA_STAB3))
        # two degree-1 blacks and one white cannot host any q
        assert not is_contributing(glue(Gluing((3, 2, 1, 0))))


class TestReduce:
    def test_fixpoint(self):
        g = bipartite_graph(glue(THETA_STAB3))
        assert canonical_key(reduce_map(glue(THETA_STAB3))) == canonical_key(g)

    def test_leaf_deletion(self):
        decorated = glue(insert_leaf(THETA_STAB3, 0))
        assert canonical_key(reduce_map(decorated)) == canonical_key(
            bipartite_graph(glue(THETA_STAB3))
        )

    def test_pair_smoothing(self):
        decorated = glue(insert_pair(THETA_STAB3, 0))
        assert canonical_key(reduce_map(decorated)) == canonical_key(
            bipartite_graph(glue(THETA_STAB3))
        )

    def test_idempotent_everywhere(self):
        for g in itertools.islice(enumerate_gluings(4), 0, 105, 3):
            a = reduce_map(glue(g))
            assert canonical_key(reduce_multigraph(a)) == canonical_key(a)

    def test_confluent_on_contributing_maps(self):
        # rule orders may diverge on maps with black leaves (never produced
        # by decoration), so confluence is asserted on the contributing family
        checked = 0
        for n in range(1, 6):
            for g in enumerate_gluings(n):
                m = glue(g)
                if not is_contributing(m):
                    continue
                a = reduce_map(m, ("leaf", "smooth"))
                b = reduce_map(m, ("smooth", "leaf"))
                assert canonical_key(a) == canonical_key(b), g
                checked += 1
        assert checked > 100

    def test_rule_orders_can_diverge_outside_the_contributing_family(self):
        # a sphere map with a black leaf: leaf-first keeps a path, smooth-first
        # erases it; this is why the confluence contract is scoped
        m = glue(Gluing((1, 0, 5, 4, 3, 2, 7, 6)))
        a = reduce_map(m, ("leaf", "smooth"))
        b = reduce_map(m, ("smooth", "leaf"))
        assert canonical_key(a) != canonical_key(b)

    def test_contributing_maps_reduce_into_the_seven_classes(self):
        targets = {
            canonical_key(bipartite_graph(glue(c.representative)))
            for c in preset("contributing")
        }
        assert len(targets) == 3  # theta, two-loop, doubled theta shapes
        hits = 0
        for n in range(1, 6):
            for g in enumerate_gluings(n):
                m = glue(g)
                if m.doubled_genus != 2 or not is_contributing(m):
                    continue
                assert canonical_key(reduce_map(m)) in targets, g
                hits += 1
        assert hits > 50


class TestStabilizers:
    def test_examples(self):
        assert stabilizer_order(Gluing((2, 3, 0, 1))) == 2
        assert stabilizer_order(THETA_STAB3) == 3
        assert stabilizer_order(THETA_STAB1) == 1

    def test_divides_n(self):
        for g in enumerate_gluings(4):
            assert 4 % stabilizer_order(g) == 0


class TestCensusClasses:
    def test_hexagon_torus_bipartite_family(self):
        classes = census_classes(3, doubled_genus=2)
        assert all(c.bipartite for c in classes)
        assert len(classes) == 2
        assert sorted((c.orbit_size, c.stabilizer_order) for c in classes) == [(1, 3), (3, 1)]
        assert sum(c.orbit_size for c in classes) == 4

    def test_twisted_bipartite_gluings_are_the_matchings(self):
        # a twisted gluing glues to a bipartite map iff every pair carries
        # its color-preserving flag: the bipartite gluings are the matchings,
        # which the default universe lists, so no bipartite filter exists
        for n, matchings in zip(range(1, 6), (1, 3, 15, 105, 945)):
            bipartite = [g for g in enumerate_twisted_gluings(n) if glue(g).bipartite]
            assert len(bipartite) == matchings
            assert sorted(g.pairing for g in bipartite) == sorted(
                g.pairing for g in enumerate_gluings(n))
            for g in bipartite:
                assert all(g.twists[i] == bool((i ^ j) & 1) for i, j in enumerate(g.pairing)), g
        for n in range(1, 5):
            assert all(c.bipartite for c in census_classes(n))
        with pytest.raises(TypeError, match="bipartite_only"):
            census_classes(3, bipartite_only=True)

    def test_orbit_stabilizer_identity(self):
        for n in range(1, 6):
            classes = census_classes(n)
            assert sum(c.orbit_size for c in classes) == double_factorial(2 * n - 1)
            for c in classes:
                assert c.orbit_size * c.stabilizer_order == n

    def test_stabilizer_order_equals_direct_count(self):
        # the published order is group_order // orbit_size; the direct count
        # rotates the representative and shares nothing with the orbit
        classes = [c for n in range(1, 7) for c in census_classes(n)]
        assert len(classes) == 2038
        for c in classes:
            assert c.stabilizer_order == stabilizer_order(c.representative), c

    def test_representative_is_lexicographically_least(self):
        from zkerov.polygon import rotate_gluing

        for c in census_classes(4, doubled_genus=2):
            orbit = {rotate_gluing(c.representative, r) for r in range(4)}
            assert c.representative == min(orbit)

    def test_single_matching_at_n1(self):
        assert len(census_classes(1)) == 1

    def test_small_reduced_census_is_five_classes(self):
        classes = preset("reduced")
        assert len(classes) == 5
        assert [c.n for c in classes] == [2, 2, 2, 3, 3]
        assert all(c.doubled_genus == 2 and c.reduced for c in classes)
        # three one-vertex quadrilateral types, two theta types
        assert [c.degree_sequence for c in classes] == [(4,), (4,), (4,), (3, 3), (3, 3)]

    def test_contributing_census_is_seven_classes(self):
        classes = preset("contributing")
        assert len(classes) == 7
        by_n = {}
        for c in classes:
            by_n.setdefault(c.n, []).append(c.stabilizer_order)
        assert {n: sorted(v) for n, v in by_n.items()} == {
            3: [1, 3],
            4: [2, 2, 4],
            6: [2, 6],
        }
        assert all(c.contributing and c.reduced_bipartite for c in classes)

    def test_cyclic_convention_splits_mirror_images(self):
        cyclic = census_classes(
            range(1, 4), universe="twisted", doubled_genus=2, reduced_only=True,
            convention=CYCLIC,
        )
        assert len(cyclic) == 7  # strictly finer than the 5 dihedral classes

    @pytest.mark.parametrize("universe,top", [("matchings", 5), ("twisted", 4)])
    def test_genus_filter_selects_classes_of_the_full_census(self, universe, top):
        for n in range(1, top + 1):
            everything = census_classes(n, universe=universe)
            for dg in range(n + 1):
                assert census_classes(n, universe=universe, doubled_genus=dg) == [
                    c for c in everything if c.doubled_genus == dg
                ]

    def test_presets_admit_no_class_past_their_bound(self):
        """A one-face map with n edges and doubled genus dg has
        V = n + 1 - dg vertices.  Under the reduced filter every degree is
        at least 3, so 2n >= 3V and n <= 3(dg - 1).  In a reduced bipartite
        map no edge joins two degree-2 vertices, so the 2*V2 edge-ends at
        degree-2 vertices all land on vertices of degree >= 3: V2 <= n/2,
        V <= (2n + V2)/3 <= 5n/6, and n <= 6(dg - 1).  At dg=2 both bounds
        are tight (2 reduced classes at n=3, 2 contributing at n=6)."""
        for name, ns in (("reduced", range(4, 7)), ("contributing", [7])):
            _max_n, keywords = census_mod.PRESETS[name]
            assert census_classes(ns, **keywords) == [], name

    def test_genus_mismatch_is_an_internal_error(self, monkeypatch):
        # an enumerator that ignores the genus request yields genus 0 and 1 maps too
        monkeypatch.setattr(census_mod, "enumerate_gluings",
                            lambda n, doubled_genus=None, banned=(): enumerate_gluings(n))
        with pytest.raises(InternalConsistencyError):
            census_classes(3, doubled_genus=2)

    def test_contributing_filter_requires_cyclic(self):
        with pytest.raises(ValueError):
            census_classes(3, contributing_only=True, convention=DIHEDRAL)


def contributing_mismatches(n):
    """The genus filters (None, then dg = 0..n) at which the contributing
    census of the matchings differs from a brute-force filter of every
    matching: the cyclic orbit minima and orbit sizes of the contributing
    ones."""
    by_genus = {}
    for g in enumerate_gluings(n):
        m = glue(g)
        if is_contributing(m):
            orbit = {rotate_gluing(g, r) for r in range(n)}
            for key in (None, m.doubled_genus):
                by_genus.setdefault(key, set()).add((min(orbit), len(orbit)))
    return [dg for dg in (None, *range(n + 1))
            if [(c.representative, c.orbit_size)
                for c in census_classes(n, doubled_genus=dg, contributing_only=True)]
            != sorted(by_genus.get(dg, ()))]


def white_leaf_pairs_too(n):
    # the ban widened to the pairs around the white (odd) corners
    m = 2 * n
    return tuple(sorted({tuple(sorted(((c - 1) % m, c))) for c in range(m)})) if n >= 2 else ()


class TestBlackLeafBan:
    """The contributing census never enumerates a matching that holds a
    pair of ``black_leaf_pairs``."""

    def test_matchings_with_a_black_leaf_pair_are_not_contributing(self):
        held = 0
        for n in range(2, 7):
            banned = set(black_leaf_pairs(n))
            for g in enumerate_gluings(n):
                if not banned.isdisjoint(g.pairs()):
                    held += 1
                    assert not is_contributing(glue(g)), g
        assert held == 4809

    @pytest.mark.parametrize("n", range(1, 7))
    def test_contributing_census_equals_a_brute_force_filter(self, n):
        assert contributing_mismatches(n) == []

    def test_a_ban_around_white_corners_loses_contributing_maps(self, monkeypatch):
        monkeypatch.setattr(census_mod, "black_leaf_pairs", white_leaf_pairs_too)
        assert contributing_mismatches(3) == [None, 0, 1]

    def test_a_ban_at_one_loses_the_lone_matching(self, monkeypatch):
        # the pairs of every n >= 2, without its n < 2 guard
        monkeypatch.setattr(census_mod, "black_leaf_pairs", lambda n: (
            (0, 2 * n - 1), *((c - 1, c) for c in range(2, 2 * n, 2))))
        assert contributing_mismatches(1) == [None, 0]
        assert census_classes(1, contributing_only=True) == []

    def test_lone_matching_at_one_is_contributing(self):
        [c] = census_classes(1, contributing_only=True)
        assert c.representative == Gluing((1, 0)) and c.contributing

    def test_each_census_of_the_matchings_bans_what_its_filters_reject(self, monkeypatch):
        asked = []

        def spy(n, doubled_genus=None, banned=()):
            asked.append(tuple(banned))
            return enumerate_gluings(n, doubled_genus=doubled_genus)

        monkeypatch.setattr(census_mod, "enumerate_gluings", spy)
        census_classes(3, contributing_only=True)
        census_classes(3, reduced_bipartite_only=True, contributing_only=True)
        census_classes(3, reduced_bipartite_only=True)
        census_classes(3, reduced_only=True)
        census_classes(3)
        census_classes(3, universe="twisted", reduced_only=True)
        assert asked == [black_leaf_pairs(3), *[leaf_pairs(3)] * 3, ()]


@functools.lru_cache(maxsize=None)
def _glued_matchings(n):
    # every matching of the unbanned enumeration with its glued map
    return [(g, glue(g)) for g in enumerate_gluings(n)]


def _orbit_minimum(g, convention):
    # rotations are the even shifts; the dihedral group adds the odd shifts
    # and the reflections
    m = 2 * g.n
    orbit = {shift_gluing(g, t) for t in range(0, m, 1 if convention == DIHEDRAL else 2)}
    if convention == DIHEDRAL:
        orbit |= {reflect_gluing(g, k) for k in range(m)}
    return min(orbit), len(orbit)


def reduced_mismatches(n, convention, **filters):
    """The genus filters (None, then dg = 0..n) at which the census of the
    matchings under ``filters`` differs from a brute-force filter of every
    matching: the orbit minima and orbit sizes of the kept ones."""
    keep = [
        (pred, filters.get(name, False)) for name, pred in (
            ("reduced_only", is_reduced), ("reduced_bipartite_only", is_reduced_bipartite),
            ("contributing_only", is_contributing))
    ]
    by_genus = {}
    for g, m in _glued_matchings(n):
        if all(pred(m) for pred, wanted in keep if wanted):
            for key in (None, m.doubled_genus):
                by_genus.setdefault(key, set()).add(_orbit_minimum(g, convention))
    return [dg for dg in (None, *range(n + 1))
            if [(c.representative, c.orbit_size)
                for c in census_classes(n, doubled_genus=dg, convention=convention, **filters)]
            != sorted(by_genus.get(dg, ()))]


class TestLeafBan:
    """A census of the matchings under a reduced filter never enumerates a
    matching that holds a pair of ``leaf_pairs``."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("convention,filters", [
        (CYCLIC, {"reduced_only": True}),
        (DIHEDRAL, {"reduced_only": True}),
        (CYCLIC, {"reduced_bipartite_only": True}),
        (DIHEDRAL, {"reduced_bipartite_only": True}),
        (CYCLIC, {"reduced_only": True, "contributing_only": True}),
        (CYCLIC, {"reduced_bipartite_only": True, "contributing_only": True}),
    ])
    def test_reduced_census_equals_a_brute_force_filter(self, n, convention, filters):
        assert reduced_mismatches(n, convention, **filters) == []


class TestDecorations:
    @pytest.mark.parametrize("m,k,expected", [(3, 2, 6), (2, 1, 2), (4, 0, 1)])
    def test_counts(self, m, k, expected):
        assert decoration_count(m, k) == expected

    def test_formula_matches_generation_everywhere(self):
        for m in range(1, 5):
            for k in range(6):
                explicit = sum(1 for _ in itertools.combinations_with_replacement(range(m), k))
                assert decoration_count(m, k) == explicit

    def test_insert_pair_keeps_genus_and_colors(self):
        g = insert_pairs(THETA_STAB3, (0, 0))
        validate(g)
        m = glue(g)
        assert m.doubled_genus == 2
        assert m.bipartite
        assert len(m.degree) == 6
        assert sorted(m.degree.values()) == [2, 2, 2, 2, 3, 3]

    def test_insert_leaf_adds_pendant_white(self):
        g = insert_leaves(THETA_STAB3, (0, 0, 2))
        validate(g)
        m = glue(g)
        assert m.doubled_genus == 2
        assert sorted(m.degree.values()) == [1, 1, 1, 3, 6]

    def test_leaf_requires_black_corner(self):
        with pytest.raises(ValueError):
            insert_leaf(THETA_STAB3, 1)

    def test_insert_pairs_matches_side_tracking_reference(self):
        # every matching for n <= 4 and every multiset of at most 3 edges
        cases = 0
        for n in range(1, 5):
            for g in enumerate_gluings(n):
                for k in range(4):
                    for ms in itertools.combinations_with_replacement(range(n), k):
                        assert insert_pairs(g, ms) == insert_pairs_tracked(g, ms), (g, ms)
                        cases += 1
        assert cases == 1 * 4 + 3 * 10 + 15 * 20 + 105 * 35

    def test_distinct_pair_multisets_give_distinct_gluings_on_theta(self):
        outs = [insert_pairs(THETA_STAB3, ms)
                for ms in itertools.combinations_with_replacement(range(3), 2)]
        assert len(set(outs)) == len(outs)


class TestDecorationAccounting:
    def test_undecorated_orbits(self):
        assert verify_decoration_accounting(THETA_STAB3, 1, 1).expected_labeled_maps == 1
        assert verify_decoration_accounting(THETA_STAB1, 1, 1).expected_labeled_maps == 3

    def test_unsatisfiable_targets(self):
        report = verify_decoration_accounting(THETA_STAB3, 0, 5)
        assert report.ok and report.generated_labeled_maps == 0

    def test_full_small_sweep(self):
        bases = [c for c in preset("contributing") if c.n <= 4]
        assert len(bases) == 5
        for c in bases:
            m = glue(c.representative)
            b0, w0 = len(m.black_vertices), len(m.white_vertices)
            for kp in range(3):
                for lv in range(4):
                    report = verify_decoration_accounting(c.representative, b0 + kp,
                                                          w0 + kp + lv)
                    assert report.ok, report

    def test_loop_halves_collapse_in_decoration_count(self):
        # the two bipartite halves of a subdivided loop give the same gluing,
        # so one added pair on the 4-edge two-loop base has 2 ways, not 4
        base = Gluing((2, 3, 0, 1, 6, 7, 4, 5))
        report = verify_decoration_accounting(base, 2, 3)
        assert report.decoration_ways == 2
        assert report.ok


class TestContributingCountsMatchEngine:
    def test_class_orbit_sums_count_contributing_gluings(self):
        for n in (3, 4):
            direct = 0
            for g in enumerate_gluings(n):
                m = glue(g)
                if m.doubled_genus == 2 and is_reduced_bipartite(m) and is_contributing(m):
                    direct += 1
            classes = [c for c in preset("contributing") if c.n == n]
            assert sum(c.orbit_size for c in classes) == direct

    def test_admissible_colorings_on_doubled_theta(self):
        doubled = [c for c in preset("contributing") if c.n == 6]
        for c in doubled:
            m = glue(c.representative)
            assert admissible_colorings(m, Monomial((3, 2))) == 2
