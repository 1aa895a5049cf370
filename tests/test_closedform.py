import math
from collections import Counter
from fractions import Fraction

import pytest

from reference import (
    bracket_combined,
    bracket_fraction,
    compositions_any_length,
    family_sum_fraction,
    family_values_fraction,
    symmetrized_fraction,
)
from zkerov import closedform, engine
from zkerov.admissibility import Monomial
from zkerov.cli import main
from zkerov.closedform import (
    BRACKET_DENOMINATOR,
    FAMILY_DENOMINATOR,
    _scaled_bracket,
    _scaled_families,
    partition_coefficient,
    partition_polynomial,
    family_sum_polynomial,
    symmetrized_polynomial,
)
from zkerov.engine import InternalConsistencyError, load_cache, scan, strata, write_cache
from zkerov.partitions import partitions
from zkerov.selftest import run_check


def terms_dict(result):
    return {m.parts: v for m, v in result.terms.items()}


def bracket(parts):
    return Fraction(_scaled_bracket(parts), BRACKET_DENOMINATOR)


def family_tuple_values(n, tup):
    return tuple(Fraction(t, FAMILY_DENOMINATOR) for t in _scaled_families(n, tup))


class TestPartitionCoefficient:
    @pytest.mark.parametrize(
        "n,parts,expected",
        [
            (3, (2,), 4),
            (4, (3,), 21),
            (5, (2, 2), 20),
            (5, (4,), 65),
            (6, (3, 2), 143),
            (6, (5,), 155),
            (7, (6,), 315),
            (7, (4, 2), 350),
            (7, (3, 3), 231),
            (7, (2, 2, 2), 56),
            (8, (7,), 574),
            (8, (5, 2), 712),
            (8, (4, 3), 1052),
            (8, (3, 2, 2), 510),
        ],
    )
    def test_hand_checked_values(self, n, parts, expected):
        assert partition_coefficient(n, Monomial(parts)) == expected

    def test_off_stratum_is_zero(self):
        assert partition_coefficient(6, Monomial((2,))) == 0
        assert partition_coefficient(6, Monomial((6,))) == 0

    def test_part_below_two_rejected(self):
        with pytest.raises(ValueError):
            partition_coefficient(4, Monomial((1, 2)))


class TestTupleFamilies:
    def test_single_tuple_families(self):
        t1, t2, t3 = family_tuple_values(3, (2,))
        assert (t1, t2, t3) == (0, 4, 0)

    def test_pair_tuple_families_sum(self):
        a = family_tuple_values(6, (3, 2))
        b = family_tuple_values(6, (2, 3))
        assert a[0] + b[0] == 15
        assert a[1] + b[1] == 120
        assert a[2] + b[2] == 8
        assert sum(a) + sum(b) == 143

    def test_equal_parts_single_tuple(self):
        t1, t2, t3 = family_tuple_values(5, (2, 2))
        assert (t1, t2, t3) == (0, 20, 0)


class TestPolynomials:
    def test_smallest_case(self):
        assert terms_dict(family_sum_polynomial(3)) == {(2,): 4}
        assert terms_dict(symmetrized_polynomial(3)) == {(2,): 4}

    def test_empty_below_three(self):
        assert terms_dict(symmetrized_polynomial(2)) == {}
        assert terms_dict(family_sum_polynomial(1)) == {}

    def test_six_exact_terms(self):
        assert terms_dict(symmetrized_polynomial(6)) == {(5,): 155, (3, 2): 143}

    def test_seven_exact_terms(self):
        assert terms_dict(symmetrized_polynomial(7)) == {
            (6,): 315, (4, 2): 350, (3, 3): 231, (2, 2, 2): 56,
        }

    def test_three_way_equality_up_to_twelve(self):
        for n in range(1, 13):
            a = terms_dict(family_sum_polynomial(n))
            b = terms_dict(symmetrized_polynomial(n))
            c = terms_dict(partition_polynomial(n))
            assert a == b == c, n

    def test_three_way_equality_from_thirteen_to_forty(self):
        for n in range(13, 41):
            a = terms_dict(family_sum_polynomial(n))
            b = terms_dict(symmetrized_polynomial(n))
            c = terms_dict(partition_polynomial(n))
            assert a == b == c, n

    def test_terms_cover_every_partition(self):
        for n in (5, 8):
            expected = {parts for parts in partitions(n - 1, 2)}
            assert set(terms_dict(partition_polynomial(n))) == expected


class TestAgainstEnumeration:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_enumeration_matches_closed_form(self, n):
        [enum] = strata(scan(n), 2)
        assert {m.parts: c for m, c in enum.terms.items()} == terms_dict(partition_polynomial(n))
        assert enum.raw_counts == enum.terms


class TestBracketIdentity:
    def test_two_evaluation_routes_agree(self):
        for n in range(3, 11):
            for tup in compositions_any_length(n - 1, 2):
                assert bracket(tup) == bracket_combined(tup)

    def test_bracket_is_positive(self):
        for tup in compositions_any_length(9, 2):
            assert bracket(tup) > 0


class TestFractionReference:
    """The integer-over-denominator evaluation against the literal
    Fraction formulas of tests/reference.py."""

    def test_tuple_values_equal_fraction_forms(self):
        for n in range(1, 17):
            for tup in compositions_any_length(n - 1, 2):
                assert bracket(tup) == bracket_fraction(tup), tup
                assert family_tuple_values(n, tup) == family_values_fraction(n, tup), (n, tup)

    def test_routes_equal_fraction_routes_up_to_twenty(self):
        for n in range(1, 21):
            for route, reference in (
                (symmetrized_polynomial, symmetrized_fraction),
                (family_sum_polynomial, family_sum_fraction),
            ):
                expected = reference(n)
                assert all(v.denominator == 1 for v in expected.values()), (n, route)
                assert terms_dict(route(n)) == expected, (n, route)

    def test_routes_equal_fraction_routes_at_twenty_six(self):
        # the n the benchmarks time: the grouped integer sums against the
        # per-tuple Fraction sums
        assert terms_dict(symmetrized_polynomial(26)) == symmetrized_fraction(26)
        assert terms_dict(family_sum_polynomial(26)) == family_sum_fraction(26)


def test_orderings_count_every_ordered_tuple():
    """The table counts each partition's ordered tuples, in the order in
    which the listing first meets them."""
    for s in range(1, 26):
        ways = closedform._orderings(s)[s]
        listed = Counter(tuple(sorted(tup)) for tup in compositions_any_length(s, 2))
        assert ways == listed and list(ways) == list(listed), s
    assert sum(ways.values()) == 46_368


def test_tuple_routes_take_no_multinomial(monkeypatch):
    """The orderings come from the table, never from l!/prod l_j!, which is
    what keeps the symmetrized route apart from the per-partition one."""

    def refuse(*args):
        raise AssertionError("multinomial taken")

    monkeypatch.setattr(closedform, "_multiplicity_factor", refuse)
    monkeypatch.setattr(math, "factorial", refuse)
    assert len(symmetrized_polynomial(26).terms) == 383
    assert len(family_sum_polynomial(26).terms) == 383
    with pytest.raises(AssertionError, match="multinomial taken"):
        partition_polynomial(26)


class TestIntegralityGuard:
    def test_scaled_sum_off_by_one_raises(self, monkeypatch):
        scaled = closedform._scaled_bracket
        monkeypatch.setattr(closedform, "_scaled_bracket", lambda parts: scaled(parts) + 1)
        # n=3: 3 * (32 + 1) = 99 is not a multiple of 24
        with pytest.raises(InternalConsistencyError, match="not an integer"):
            symmetrized_polynomial(3)
        with pytest.raises(InternalConsistencyError, match="not an integer"):
            partition_coefficient(3, Monomial((2,)))

    def test_family_denominator_too_large_raises(self, monkeypatch):
        monkeypatch.setattr(closedform, "FAMILY_DENOMINATOR", 10**40)
        with pytest.raises(InternalConsistencyError, match="not an integer"):
            family_sum_polynomial(6)


def break_family_sum(monkeypatch):
    """The tuple-family sum miscounts R_4 at n=5 (65 -> 66)."""
    real = closedform.family_sum_polynomial

    def mutant(n):
        result = real(n)
        if n == 5:
            result.terms[Monomial((4,))] += 1
        return result

    monkeypatch.setattr(closedform, "family_sum_polynomial", mutant)


class TestMismatchesCanFail:
    """Each genus-one comparison reports a plausible bug in what it guards."""

    def test_verify_exits_two(self, capsys, monkeypatch):
        break_family_sum(monkeypatch)
        code = main(["genus1", "--n", "5", "--verify", "--threads", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "VERIFICATION FAILED:" in out
        assert "  tuple-family sum disagrees: {(4,): 66, (2, 2): 20} != " in out

    def test_cache_load_rejects_a_valid_file(self, capsys, tmp_path, monkeypatch):
        path = write_cache(tmp_path, scan(5))
        assert load_cache(tmp_path, 5) is not None
        break_family_sum(monkeypatch)
        assert load_cache(tmp_path, 5) is None
        assert capsys.readouterr().err == (
            f"zkerov: warning: ignoring invalid cache file {path}: "
            "genus-one stratum disagrees with the closed form\n")

    def test_registry_check_fails(self, monkeypatch):
        break_family_sum(monkeypatch)
        result = run_check("genus1-agreement", 5, scan)
        assert not result.passed
        assert result.detail.startswith("AssertionError: n=5: tuple-family sum disagrees")

    def test_sign_flip_at_genus_one_breaks_the_rescale_factor(self, monkeypatch):
        real = engine.rescaled_coefficient

        def mutant(n, mono, raw):
            value = real(n, mono, raw)
            return -value if n + 1 - mono.vertex_count == 2 else value

        monkeypatch.setattr(engine, "rescaled_coefficient", mutant)
        mismatches = closedform.genus1_mismatches(5, scan(5))
        assert [m.split(":")[0] for m in mismatches] == ["enumeration disagrees"]
