"""The check registry itself: one scan per n and one census per run, the
limit checked before any check, and checks that fail when what they guard
is broken."""

import inspect
import json
import re
from collections import Counter
from pathlib import Path

import pytest

import zkerov.census as census
import zkerov.closedform as closedform
import zkerov.engine as engine
import zkerov.polygon as polygon
import zkerov.selftest as selftest
from zkerov.selftest import run_check, run_selftest

GOLDEN = Path(__file__).parent / "golden"


def _mutant(fn, old, new):
    """``fn`` rebuilt from its source with the one occurrence of ``old``
    replaced by ``new``, in ``fn``'s module namespace."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"),
         fn.__globals__, namespace)
    return namespace[fn.__name__]


@pytest.fixture
def scan_calls(monkeypatch):
    """Record the (n, keyword arguments) of every engine.scan call."""
    calls = []
    real_scan = engine.scan

    def counting_scan(n, **kwargs):
        calls.append((n, kwargs))
        return real_scan(n, **kwargs)

    monkeypatch.setattr(engine, "scan", counting_scan)
    return calls


@pytest.fixture
def census_calls(monkeypatch):
    """Record the name of every census preset build."""
    calls = []
    real_preset = selftest.preset

    def counting_preset(name):
        calls.append(name)
        return real_preset(name)

    monkeypatch.setattr(selftest, "preset", counting_preset)
    return calls


def test_one_scan_per_n_and_golden_details(scan_calls, census_calls):
    results = run_selftest(6)
    assert Counter(n for n, _kw in scan_calls) == {n: 1 for n in range(2, 7)}
    assert census_calls == ["reduced", "contributing"]
    golden = json.loads((GOLDEN / "selftest-max-n6.json").read_text())["checks"]
    got = [{"name": r.name, "status": "ok" if r.passed else "fail", "detail": r.detail}
           for r in results]
    assert got == golden


def test_threads_reach_the_scans(scan_calls):
    assert all(r.passed for r in run_selftest(3, threads=2))
    assert scan_calls and all(kw == {"threads": 2} for _n, kw in scan_calls)
    with pytest.raises(TypeError, match="force"):
        run_selftest(3, force=True)


def test_memo_does_not_outlive_a_run(scan_calls, census_calls):
    run_selftest(2)
    run_selftest(2)
    assert sorted(n for n, _kw in scan_calls) == [2, 2]
    assert census_calls == ["contributing", "contributing"]


@pytest.mark.parametrize("max_n,message", [
    (0, "^n must be >= 1, got 0$"),
    (11, "^n=11 exceeds the hard limit 10$"),
    (12, "^n=12 exceeds the hard limit 10$"),
])
def test_limit_is_checked_before_any_check(monkeypatch, max_n, message):
    def no_check(*_args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(selftest, "run_check", no_check)
    with pytest.raises(ValueError, match=message):
        run_selftest(max_n)


def test_positivity_check_rejects_a_zero_coefficient(monkeypatch):
    real = selftest.partition_coefficient
    monkeypatch.setattr(selftest, "partition_coefficient",
                        lambda n, mu: 0 if mu.parts == (4, 3) else real(n, mu))
    result = run_check("lassalle-positivity", 6, engine.scan)
    assert not result.passed
    assert "non-positive coefficient 0 for mu=(4, 3) at n=8" in result.detail


def test_euler_check_has_a_second_route_to_the_genus(monkeypatch):
    # a glue that returns the first map it built for each n, as a memo keyed
    # on n would: every map keeps its degree sum and stays bipartite
    real, first = selftest.glue, {}
    monkeypatch.setattr(selftest, "glue", lambda g: first.setdefault(g.n, real(g)))
    result = run_check("glue-invariants", 5, engine.scan)
    assert not result.passed and result.detail.startswith("AssertionError")


def test_color_swap_check_catches_a_loose_hall_test(monkeypatch):
    """The check compares the kernel's tallies with the ``glue``/``enumerate_q``
    route on the color-swapped maps, so a kernel bug that admits a coloring
    Hall's condition rejects makes them differ.  A ``shift_gluing`` that
    shifts by an even amount would not trip it: a rotation keeps the tallies."""
    monkeypatch.setattr(engine, "_hall_keys",
                        _mutant(engine._hall_keys, "bit_count() <= req", "bit_count() < req"))
    result = run_check("color-swap", 5, engine.scan)
    assert not result.passed and result.detail.startswith("AssertionError")


def test_determinism_check_catches_a_lost_branch(monkeypatch):
    # the last task of the split drops its last branch
    real = engine._tasks

    def short_tasks(n, count):
        *tasks, (n, branches) = real(n, count)
        return [*tasks, (n, branches[:-1])]

    monkeypatch.setattr(engine, "_tasks", short_tasks)
    result = run_check("parallel-determinism", 5, engine.scan)
    assert not result.passed
    assert result.detail == ("InternalConsistencyError: weighted count 8820 of the (b, w) = (1, 1) "
                             "cell at n=5, expected 8880")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cell_guard_catches_swapped_merge_tables(monkeypatch, n):
    """A kernel that merges the white corners where it should merge the
    black ones, and the black where the white: every weighted total still
    comes out right at n = 2..4, and L divides every tally until n = 5, but
    the (b, w) cells differ."""
    monkeypatch.setattr(engine, "_scan_branch", _mutant(
        engine._scan_branch,
        "(i, j, 0) for j in range(m)] for i in range(m)]\n    white = [[code(i, j, 1)",
        "(i, j, 1) for j in range(m)] for i in range(m)]\n    white = [[code(i, j, 0)"))
    with pytest.raises(engine.InternalConsistencyError, match=f"cell at n={n}, expected"):
        engine.scan(n)


def test_orbit_stabilizer_check_uses_the_direct_count(monkeypatch):
    # every class claims stabilizer 1; the published orders disagree
    monkeypatch.setattr(selftest, "stabilizer_order", lambda g: 1)
    result = run_check("orbit-stabilizer", 3, engine.scan)
    assert not result.passed and result.detail.startswith("AssertionError")


def test_oracle_check_catches_a_loose_hall_test(monkeypatch):
    # the exhaustive Hall test admits a subset with exactly as many white
    # neighbors as it needs; the orientation walk does not
    monkeypatch.setattr(selftest, "hall_condition",
                        _mutant(selftest.hall_condition,
                                "nbr.bit_count() <= need", "nbr.bit_count() < need"))
    result = run_check("oracle-equivalence", 5, engine.scan)
    assert not result.passed and result.detail.startswith("AssertionError")


def test_rotation_check_catches_an_odd_shift(monkeypatch):
    # an odd shift swaps the corner colors, so black and white counts trade
    monkeypatch.setattr(selftest, "rotate_gluing",
                        _mutant(selftest.rotate_gluing,
                                "shift_gluing(g, 2 * r)", "shift_gluing(g, 2 * r + 1)"))
    result = run_check("rotation-equivariance", 4, engine.scan)
    assert not result.passed and result.detail.startswith("AssertionError")


def test_reduction_check_catches_a_single_rule(monkeypatch):
    # only the first rule of each order runs: leaf-only and smooth-only
    # reductions disagree
    monkeypatch.setattr(selftest, "reduce_map",
                        _mutant(selftest.reduce_map, "rule_order)", "rule_order[:1])"))
    result = run_check("reduction-closure", 6, engine.scan)
    assert not result.passed and result.detail.startswith("AssertionError")


def test_genus1_check_catches_families_grouped_by_partition(monkeypatch):
    # the families read a_1 and a_2, so a family route that evaluates each
    # tuple as its partition reads every tuple at its two smallest parts
    monkeypatch.setattr(closedform, "family_sum_polynomial",
                        _mutant(closedform.family_sum_polynomial,
                                "_scaled_families(n, tup)",
                                "_scaled_families(n, tuple(sorted(tup)))"))
    caught = [n for n in range(1, 9) if closedform.genus1_mismatches(n, engine.scan(n))]
    assert caught == [6, 7, 8]
    result = run_check("genus1-agreement", 8, engine.scan)
    assert not result.passed
    assert result.detail.startswith("AssertionError: n=6: tuple-family sum disagrees")


def test_pinned_values_check_catches_a_sign_off_by_one(monkeypatch):
    # the sign exponent loses its 1, so every genus-one coefficient is
    # the negated raw count
    monkeypatch.setattr(selftest, "rescaled_coefficient",
                        _mutant(engine.rescaled_coefficient,
                                "(n + 1 + mono.vertex_count)", "(n + mono.vertex_count)"))
    result = run_check("pinned-values", 6, engine.scan)
    assert not result.passed
    assert result.detail == "AssertionError: (3, (2,), 4, -4, 4)"


def test_genus1_check_catches_a_genus_read_as_a_bound(monkeypatch):
    # strata(result, dg) keeps every stratum up to dg, so the planar one
    # of n=2 comes first, where the closed forms have no term
    monkeypatch.setattr(closedform, "strata",
                        _mutant(engine.strata, "doubled_genus in (None, dg)",
                                "doubled_genus is None or dg <= doubled_genus"))
    result = run_check("genus1-agreement", 2, engine.scan)
    assert not result.passed
    assert result.detail.startswith("AssertionError: n=2: enumeration disagrees")


def test_gluing_counts_check_catches_a_skipped_neighbor(monkeypatch):
    # the lowest free side is never paired with the side right after it
    gluings = _mutant(polygon._gluings, "for j in range(i1, m):", "for j in range(i1 + 1, m):")
    monkeypatch.setattr(selftest, "enumerate_gluings",
                        lambda n, doubled_genus=None: gluings(n, False, doubled_genus))
    result = run_check("gluing-counts", 4, engine.scan)
    assert not result.passed
    assert result.detail == "AssertionError: n=1: 0 != 1"


def test_gluing_counts_check_catches_a_pruned_stratum(monkeypatch):
    """The pruned enumerator keeps a subtree only while V is below its
    number of live classes, so it yields no leaf, where the two are equal.
    The full pass prunes nothing and still yields every matching, so only
    the per-genus comparison sees it."""
    gluings = _mutant(polygon._gluings, "<= target <= after:", "<= target < after:")
    monkeypatch.setattr(selftest, "enumerate_gluings",
                        lambda n, doubled_genus=None: gluings(n, False, doubled_genus))
    result = run_check("gluing-counts", 4, engine.scan)
    assert not result.passed
    assert result.detail == "AssertionError: n=1: strata (0, 0) != (1, 0)"


def test_twisted_counts_check_catches_a_lost_flag(monkeypatch):
    # every pair is glued straight, so the twisted universe is the matchings
    gluings = _mutant(polygon._gluings,
                      "choices = (STRAIGHT, TWISTED) if twisted else (STRAIGHT,)",
                      "choices = (STRAIGHT,)")
    monkeypatch.setattr(selftest, "enumerate_twisted_gluings",
                        lambda n, doubled_genus=None: gluings(n, True, doubled_genus))
    result = run_check("twisted-counts", 4, engine.scan)
    assert not result.passed
    assert result.detail == "AssertionError: n=1: strata (0, 1) != (1, 1)"


def test_twisted_counts_check_catches_a_lost_root_absorption(monkeypatch):
    """The genus-pruned enumerator forgets that the first merge of a
    placement can absorb a root of its second corner pair, so it counts
    one merge too many there; the full pass, which merges nothing, still
    yields (2n-1)!!*2^n gluings."""
    gluings = _mutant(polygon._gluings,
                      "if c == b:\n                        c = a\n"
                      "                    if d == b:\n                        d = a",
                      "pass")
    assert sum(1 for _ in gluings(3, True, None)) == 15 << 3
    monkeypatch.setattr(selftest, "enumerate_twisted_gluings",
                        lambda n, doubled_genus=None: gluings(n, True, doubled_genus))
    result = run_check("twisted-counts", 4, engine.scan)
    assert not result.passed
    assert result.detail == "AssertionError: n=1: strata (1, 0) != (1, 1)"


def test_census_counts_check_catches_degree_two_vertices(monkeypatch):
    # the reduced filter lets degree-2 vertices through
    monkeypatch.setattr(census, "is_reduced",
                        _mutant(census.is_reduced, ">= 3", ">= 2"))
    result = run_check("census-pinned-counts", 6, engine.scan)
    assert not result.passed
    assert result.detail == "AssertionError: reduced twisted census gave 9 classes, expected 5"


def test_decoration_count_check_catches_the_wrong_binomial(monkeypatch):
    # stars and bars with the bars and the stars confused
    monkeypatch.setattr(selftest, "decoration_count",
                        _mutant(census.decoration_count, "edge_count - 1)", "edge_count)"))
    result = run_check("decoration-count", 6, engine.scan)
    assert not result.passed
    assert result.detail == "AssertionError: (1, 0, 1)"


def test_decoration_accounting_check_catches_a_misplaced_leaf(monkeypatch):
    # the side at the leaf's corner is not shifted past the new leaf
    monkeypatch.setattr(census, "insert_leaf",
                        _mutant(census.insert_leaf, "s >= corner", "s > corner"))
    result = run_check("decoration-accounting", 4, engine.scan)
    assert not result.passed
    assert result.detail.startswith("AssertionError: DecorationReport(")


def test_every_check_has_a_committed_mutant():
    """Each ``run_check`` call in this module runs a check against a mutant
    of the code it guards, so a new registry check needs a test here."""
    source = Path(__file__).read_text()
    assert set(re.findall(r'run_check\("([\w-]+)"', source)) == set(selftest.CHECKS)
