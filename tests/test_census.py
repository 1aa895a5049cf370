import itertools
import random

import pytest

from reference import admissible_colorings
import zkerov.census as census_mod
from zkerov.admissibility import Monomial
from zkerov.census import (
    CYCLIC,
    DIHEDRAL,
    ColoredMultigraph,
    canonical_key,
    census_classes,
    contributing_reduced_bipartite_census,
    decoration_count,
    small_reduced_census,
    has_bridge,
    insert_leaf,
    insert_leaves,
    insert_pair,
    insert_pairs,
    is_contributing,
    is_reduced,
    is_reduced_bipartite,
    reduce_map,
    reduce_multigraph,
    stabilizer_order,
    underlying_multigraph,
    verify_decoration_accounting,
)
from zkerov.engine import InternalConsistencyError
from zkerov.polygon import BLACK, WHITE, Gluing, double_factorial, enumerate_gluings, glue

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


def naive_has_bridge(g):
    verts = list(g.colors)
    base = _component_count(g.edges, verts)
    for k, (u, v) in enumerate(g.edges):
        if u == v:
            continue
        if _component_count(g.edges[:k] + g.edges[k + 1:], verts) > base:
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
        assert m.vertex_count == 1
        assert is_reduced(m)

    def test_bridge_detection(self):
        # a sphere gluing with a white leaf has a bridge
        m = glue(Gluing((1, 0, 3, 2)))
        assert has_bridge(m)
        assert not has_bridge(glue(THETA_STAB3))

    def test_bridge_detection_matches_edge_removal_oracle(self):
        rng = random.Random(13)
        for _ in range(800):
            nv = rng.randint(1, 7)
            verts = list(range(nv))
            edges = []
            for _e in range(rng.randint(0, 10)):
                u, v = rng.randint(0, nv - 1), rng.randint(0, nv - 1)
                edges.append((min(u, v), max(u, v)))
            g = ColoredMultigraph(
                {v: BLACK if v % 2 == 0 else WHITE for v in verts}, edges
            )
            assert has_bridge(g) == naive_has_bridge(g), (verts, edges)

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
        g = underlying_multigraph(glue(THETA_STAB3))
        assert canonical_key(reduce_map(glue(THETA_STAB3))) == canonical_key(g)

    def test_leaf_deletion(self):
        decorated = glue(insert_leaf(THETA_STAB3, 0))
        assert canonical_key(reduce_map(decorated)) == canonical_key(
            underlying_multigraph(glue(THETA_STAB3))
        )

    def test_pair_smoothing(self):
        decorated = glue(insert_pair(THETA_STAB3, 0))
        assert canonical_key(reduce_map(decorated)) == canonical_key(
            underlying_multigraph(glue(THETA_STAB3))
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
            canonical_key(underlying_multigraph(glue(c.representative)))
            for c in contributing_reduced_bipartite_census(6)
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
        classes = census_classes(3, doubled_genus=2, bipartite_only=True)
        assert len(classes) == 2
        assert sorted((c.orbit_size, c.stabilizer_order) for c in classes) == [(1, 3), (3, 1)]
        assert sum(c.orbit_size for c in classes) == 4

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
        classes = small_reduced_census(3)
        assert len(classes) == 5
        assert [c.n for c in classes] == [2, 2, 2, 3, 3]
        assert all(c.doubled_genus == 2 and c.reduced for c in classes)
        # three one-vertex quadrilateral types, two theta types
        assert [c.degree_sequence for c in classes] == [(4,), (4,), (4,), (3, 3), (3, 3)]

    def test_contributing_census_is_seven_classes(self):
        classes = contributing_reduced_bipartite_census(6)
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

    def test_genus_mismatch_is_an_internal_error(self, monkeypatch):
        # an enumerator that ignores the genus request yields genus 0 and 1 maps too
        monkeypatch.setattr(census_mod, "enumerate_gluings",
                            lambda n, doubled_genus=None: enumerate_gluings(n))
        with pytest.raises(InternalConsistencyError):
            census_classes(3, doubled_genus=2)

    def test_contributing_filter_requires_cyclic(self):
        with pytest.raises(ValueError):
            census_classes(3, contributing_only=True, convention=DIHEDRAL)


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
        g.validate()
        m = glue(g)
        assert m.doubled_genus == 2
        assert m.bipartite
        assert m.vertex_count == 6
        assert sorted(m.degree.values()) == [2, 2, 2, 2, 3, 3]

    def test_insert_leaf_adds_pendant_white(self):
        g = insert_leaves(THETA_STAB3, (0, 0, 2))
        g.validate()
        m = glue(g)
        assert m.doubled_genus == 2
        assert sorted(m.degree.values()) == [1, 1, 1, 3, 6]

    def test_leaf_requires_black_corner(self):
        with pytest.raises(ValueError):
            insert_leaf(THETA_STAB3, 1)

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
        bases = [c for c in contributing_reduced_bipartite_census(6) if c.n <= 4]
        assert len(bases) == 5
        for c in bases:
            m = glue(c.representative)
            b0, w0 = len(m.black_vertices), len(m.white_vertices)
            for kp in range(3):
                for lv in range(4):
                    report = verify_decoration_accounting(c, b0 + kp, w0 + kp + lv)
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
            classes = [c for c in contributing_reduced_bipartite_census(6) if c.n == n]
            assert sum(c.orbit_size for c in classes) == direct

    def test_admissible_colorings_on_doubled_theta(self):
        doubled = [c for c in contributing_reduced_bipartite_census(6) if c.n == 6]
        for c in doubled:
            m = glue(c.representative)
            assert admissible_colorings(m, Monomial((3, 2))) == 2
