import random

import pytest

from zkerov.admissibility import (
    BipartiteGraph,
    Monomial,
    bipartite_graph,
    candidate_colorings,
    enumerate_q,
    hall_condition,
    orientation_walk_condition,
)
from zkerov.polygon import Gluing, enumerate_gluings, glue
from reference import admissible_colorings


def path_graph():
    # blacks b1, b2; whites w1, w2, w3; edges b1w1, b1w2, b2w2, b2w3
    return BipartiteGraph(
        blacks=(1, 2),
        whites=(11, 12, 13),
        edges=((1, 11), (1, 12), (2, 12), (2, 13)),
    )


def triple_edge_graph():
    return BipartiteGraph(blacks=(0,), whites=(1,), edges=((0, 1), (0, 1), (0, 1)))


class TestMonomial:
    def test_normalization_and_counts(self):
        m = Monomial((2, 3, 2))
        assert m.parts == (3, 2, 2)
        assert m.black_count == 3
        assert m.vertex_count == 7
        assert m.label() == "R3*R2*R2"

    def test_rejects_small_parts(self):
        with pytest.raises(ValueError):
            Monomial((1, 2))


class TestHallCondition:
    def test_single_black_is_vacuous(self):
        g = triple_edge_graph()
        assert hall_condition(g, {0: 2})
        assert hall_condition(g, {0: 9})

    def test_path_graph_balanced(self):
        assert hall_condition(path_graph(), {1: 2, 2: 2})

    def test_path_graph_overloaded_singleton(self):
        # {b1} sees only two whites, which is not more than q(b1)-1 = 2
        assert not hall_condition(path_graph(), {1: 3, 2: 2})

    def test_multiedges_count_one_white(self):
        g = BipartiteGraph(blacks=(0, 2), whites=(1, 3), edges=((0, 1), (0, 1), (2, 1), (2, 3)))
        # {b0} sees a single white vertex, not more than q-1 = 1
        assert not hall_condition(g, {0: 2, 2: 2})

    def test_wrong_domain_rejected(self):
        with pytest.raises(ValueError):
            hall_condition(path_graph(), {1: 2})
        with pytest.raises(ValueError):
            hall_condition(path_graph(), {1: 2, 2: 1})

    def test_monotone_in_q(self):
        rng = random.Random(7)
        graphs = []
        for g in enumerate_gluings(4):
            m = glue(g)
            if len(m.black_vertices) >= 2:
                graphs.append(bipartite_graph(m))
        for g in rng.sample(graphs, 25):
            for q in candidate_colorings(g):
                if hall_condition(g, q):
                    continue
                for v in q:
                    bumped = dict(q)
                    bumped[v] += 1
                    assert not hall_condition(g, bumped)


class TestOrientationOracle:
    def test_triple_edge(self):
        assert orientation_walk_condition(triple_edge_graph(), {0: 2})

    def test_path_graph_matches_hall_on_balanced_colorings(self):
        # the balanced colorings of the path graph all overload a singleton,
        # so both oracles reject them
        for q in ({1: 2, 2: 3}, {1: 3, 2: 2}):
            assert not hall_condition(path_graph(), q)
            assert not orientation_walk_condition(path_graph(), q)

    def test_unbalanced_coloring_is_false(self):
        # with fewer incoming slots than white vertices no orientation can
        # give every white an outgoing edge; Hall does not see the imbalance
        assert not orientation_walk_condition(path_graph(), {1: 2, 2: 2})
        assert hall_condition(path_graph(), {1: 2, 2: 2})
        assert not orientation_walk_condition(triple_edge_graph(), {0: 3})

    def test_agrees_with_hall_on_all_small_maps(self):
        pairs = 0
        for n in range(1, 6):
            for g in enumerate_gluings(n):
                m = glue(g)
                for q in candidate_colorings(m):
                    assert hall_condition(m, q) == orientation_walk_condition(m, q), (g, q)
                    pairs += 1
        assert pairs > 500


class TestEnumerateQ:
    def test_forced_single_value(self):
        out = list(enumerate_q(triple_edge_graph()))
        assert len(out) == 1
        q, mono = out[0]
        assert q == {0: 2}
        assert mono.parts == (2,)

    def test_one_black_three_whites(self):
        g = BipartiteGraph(blacks=(0,), whites=(1, 3, 5),
                           edges=((0, 1), (0, 3), (0, 5)))
        out = list(enumerate_q(g))
        assert len(out) == 1
        assert out[0][0] == {0: 4}
        assert out[0][1].parts == (4,)

    def test_empty_for_no_blacks(self):
        g = BipartiteGraph(blacks=(), whites=(1,), edges=())
        assert list(enumerate_q(g)) == []

    def test_deterministic_order(self):
        g = path_graph()
        assert [q for q, _m in enumerate_q(g)] == [q for q, _m in enumerate_q(g)]


class TestAdmissibleColorings:
    def test_theta_map_single_coloring(self):
        m = glue(Gluing((3, 4, 5, 0, 1, 2)))
        assert admissible_colorings(m, Monomial((2,))) == 1

    def test_vertex_count_mismatch_is_zero(self):
        m = glue(Gluing((3, 4, 5, 0, 1, 2)))
        assert admissible_colorings(m, Monomial((5,))) == 0

    def test_sphere_map_forced_three(self):
        m = glue(Gluing((1, 0, 3, 2)))  # pairs (0,1),(2,3): one black, two whites
        assert admissible_colorings(m, Monomial((3,))) == 1
        assert admissible_colorings(m, Monomial((2,))) == 0

    def test_counts_match_enumerate_q(self):
        for n in range(1, 6):
            for g in enumerate_gluings(n):
                m = glue(g)
                stream: dict[tuple[int, ...], int] = {}
                for _q, mono in enumerate_q(m):
                    stream[mono.parts] = stream.get(mono.parts, 0) + 1
                for parts, count in stream.items():
                    assert admissible_colorings(m, Monomial(parts)) == count
                # a monomial that cannot occur
                assert admissible_colorings(m, Monomial((m.vertex_count + 2,))) == 0
