import itertools
import math

import pytest

from zkerov.polygon import (
    Gluing,
    double_factorial,
    enumerate_gluings,
    enumerate_twisted_gluings,
    glue,
    reflect_gluing,
    rotate_gluing,
    shift_gluing,
)


def test_double_factorial_values():
    assert [double_factorial(2 * n - 1) for n in range(1, 9)] == [
        1, 3, 15, 105, 945, 10395, 135135, 2027025,
    ]


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (6, 10395)])
def test_gluing_counts(n, expected):
    assert sum(1 for _ in enumerate_gluings(n)) == expected


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 12), (3, 120)])
def test_twisted_gluing_counts(n, expected):
    assert sum(1 for _ in enumerate_twisted_gluings(n)) == expected


def test_enumeration_rejects_zero():
    with pytest.raises(ValueError):
        next(enumerate_gluings(0))
    with pytest.raises(ValueError):
        next(enumerate_twisted_gluings(0, doubled_genus=0))


@pytest.mark.parametrize("enumerate_fn", [enumerate_gluings, enumerate_twisted_gluings])
def test_genus_filter_equals_brute_force(enumerate_fn):
    for n in range(1, 6):
        everything = list(enumerate_fn(n))
        assert len(set(everything)) == len(everything)
        by_genus: dict[int, list] = {}
        for g in everything:
            by_genus.setdefault(glue(g).doubled_genus, []).append(g)
        # out-of-range targets (-1, n + 1) have no gluings at all
        for dg in range(-1, n + 2):
            got = list(enumerate_fn(n, doubled_genus=dg))
            assert len(set(got)) == len(got)
            assert set(got) == set(by_genus.get(dg, []))
            # the pruned pass keeps the unfiltered order
            assert got == by_genus.get(dg, [])


@pytest.mark.parametrize("enumerate_fn", [enumerate_gluings, enumerate_twisted_gluings])
def test_planar_gluings_are_counted_by_catalan(enumerate_fn):
    # plane trees with n edges; the count shares nothing with the union-find
    counts = [sum(1 for _ in enumerate_fn(n, doubled_genus=0)) for n in range(1, 8)]
    assert counts == [math.comb(2 * n, n) // (n + 1) for n in range(1, 8)]
    assert counts[5:] == [132, 429]


def test_enumeration_is_deterministic_and_duplicate_free():
    first = list(enumerate_gluings(4))
    second = list(enumerate_gluings(4))
    assert first == second
    assert len(set(first)) == len(first)
    # lowest unmatched side pairs first, partners increasing
    assert first[0].pairing == (1, 0, 3, 2, 5, 4, 7, 6)
    assert first[0].pairs() == [(0, 1), (2, 3), (4, 5), (6, 7)]
    partners = [g.pairing[0] for g in first]
    assert partners == sorted(partners)


def test_gluing_validate():
    Gluing((1, 0, 3, 2)).validate()
    with pytest.raises(ValueError):
        Gluing((0, 1)).validate()  # fixed point
    with pytest.raises(ValueError):
        Gluing((1, 0, 2, 3)).validate()  # not an involution
    with pytest.raises(ValueError):
        Gluing((1, 0), (True, False)).validate()  # twist flags disagree


def test_glue_digon():
    m = glue(Gluing((1, 0)))
    assert m.vertex_count == 2
    assert m.doubled_genus == 0
    assert len(m.black_vertices) == 1 and len(m.white_vertices) == 1
    assert sorted(m.degree.values()) == [1, 1]


def test_glue_square_cross_pairing():
    m = glue(Gluing((2, 3, 0, 1)))  # pairs (0,2), (1,3)
    assert m.vertex_count == 2
    assert m.doubled_genus == 1


def test_glue_hexagon_all_corners_merge():
    m = glue(Gluing((2, 4, 0, 5, 1, 3)))  # pairs (0,2), (1,4), (3,5)
    assert m.vertex_count == 2
    assert m.doubled_genus == 2
    assert m.black_vertices == (0,) and m.vertex_of[2] == 0 and m.vertex_of[4] == 0
    assert m.degree == {0: 3, 1: 3}


def test_vertex_ids_are_minimal_corner_of_class():
    m = glue(Gluing((2, 4, 0, 5, 1, 3)))
    for corner, vid in enumerate(m.vertex_of):
        assert vid <= corner


def test_glue_invariants_exhaustive_small():
    for n in range(1, 6):
        for g in enumerate_gluings(n):
            m = glue(g)
            assert sum(m.degree.values()) == 2 * n
            assert 2 - m.doubled_genus == m.vertex_count - n + 1
            assert m.doubled_genus >= 0
            assert m.bipartite
            black = set(m.black_vertices)
            assert len(m.graph_edges) == n
            for (u, v), (i, _j) in zip(m.graph_edges, g.pairs()):
                assert (u in black) != (v in black)
                assert (u, v) == tuple(sorted((m.vertex_of[i], m.vertex_of[(i + 1) % (2 * n)])))


def test_twisted_glue_can_mix_colors():
    # straight digon gluing merges an even and an odd corner into one vertex
    m = glue(Gluing((1, 0), (False, False)))
    assert m.vertex_count == 1
    assert m.vertex_of == (0, 0)
    assert m.black_vertices == () and m.white_vertices == ()
    assert not m.bipartite
    assert m.doubled_genus == 1
    # the twisted flag reproduces the color-forced sphere
    m2 = glue(Gluing((1, 0), (True, True)))
    assert m2.vertex_count == 2 and m2.doubled_genus == 0 and m2.bipartite


def test_rotation_identity_and_composition():
    for g in itertools.islice(enumerate_gluings(4), 20):
        assert rotate_gluing(g, 0) == g
        for r1 in range(4):
            for r2 in range(4):
                assert rotate_gluing(rotate_gluing(g, r1), r2) == rotate_gluing(g, (r1 + r2) % 4)


def test_rotation_examples():
    assert rotate_gluing(Gluing((3, 4, 5, 0, 1, 2)), 1) == Gluing((3, 4, 5, 0, 1, 2))
    rotated = rotate_gluing(Gluing((2, 4, 0, 5, 1, 3)), 1)
    assert rotated.pairs() == [(0, 3), (1, 5), (2, 4)]
    with pytest.raises(ValueError):
        rotate_gluing(Gluing((1, 0)), 1)
    with pytest.raises(ValueError):
        rotate_gluing(Gluing((1, 0)), -1)


def test_rotation_equivariance_of_glue():
    for n in (2, 3, 4):
        for g in enumerate_gluings(n):
            m = glue(g)
            base = (sorted(m.degree.values()), m.doubled_genus,
                    len(m.black_vertices), len(m.white_vertices))
            for r in range(n):
                m2 = glue(rotate_gluing(g, r))
                assert (sorted(m2.degree.values()), m2.doubled_genus,
                        len(m2.black_vertices), len(m2.white_vertices)) == base


def test_reflection_and_shift_are_involutive_symmetries():
    for g in itertools.islice(enumerate_twisted_gluings(3), 0, 120, 7):
        for k in range(6):
            gg = reflect_gluing(reflect_gluing(g, k), k)
            assert gg == g
        assert shift_gluing(shift_gluing(g, 5), 1) == g
    # reflections preserve map structure
    g = Gluing((2, 4, 0, 5, 1, 3))
    m, mr = glue(g), glue(reflect_gluing(g, 0))
    assert sorted(m.degree.values()) == sorted(mr.degree.values())
    assert m.doubled_genus == mr.doubled_genus


def test_color_swap_is_an_automorphism_of_counts():
    """The odd side shift swaps the colors: its map has the original's
    white vertices, by count and degree, as its black ones, and the
    reverse."""

    def degrees(m, vertices):
        return sorted(m.degree[v] for v in vertices)

    for n in range(1, 6):
        for g in enumerate_gluings(n):
            m, swapped = glue(g), glue(shift_gluing(g, 1))
            assert degrees(swapped, swapped.black_vertices) == degrees(m, m.white_vertices), g
            assert degrees(swapped, swapped.white_vertices) == degrees(m, m.black_vertices), g
            assert swapped.doubled_genus == m.doubled_genus
