"""The check registry itself: one scan per n and one census per run, the
limit checked before any check, and checks that fail when what they guard
is broken."""

import json
from collections import Counter
from pathlib import Path

import pytest

import zkerov.engine as engine
import zkerov.selftest as selftest
from zkerov.selftest import run_check, run_selftest

GOLDEN = Path(__file__).parent / "golden"


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
    """Record the max_n of every contributing-census build."""
    calls = []
    real_census = selftest.contributing_reduced_bipartite_census

    def counting_census(max_n):
        calls.append(max_n)
        return real_census(max_n)

    monkeypatch.setattr(selftest, "contributing_reduced_bipartite_census", counting_census)
    return calls


def test_one_scan_per_n_and_golden_details(scan_calls, census_calls):
    results = run_selftest(6)
    assert Counter(n for n, _kw in scan_calls) == {n: 1 for n in range(1, 7)}
    assert census_calls == [6]
    golden = json.loads((GOLDEN / "selftest-max-n6.json").read_text())["checks"]
    got = [{"name": r.name, "status": "ok" if r.passed else "fail", "detail": r.detail}
           for r in results]
    assert got == golden


def test_threads_and_force_reach_the_scans(scan_calls):
    assert all(r.passed for r in run_selftest(3, threads=2, force=True))
    assert scan_calls and all(kw == {"threads": 2, "force": True} for _n, kw in scan_calls)


def test_memo_does_not_outlive_a_run(scan_calls, census_calls):
    run_selftest(2)
    run_selftest(2)
    assert sorted(n for n, _kw in scan_calls) == [1, 1, 2, 2]
    assert census_calls == [6, 6]


@pytest.mark.parametrize("max_n,force,message", [
    (0, False, "n must be >= 1"),
    (9, False, "n=9 exceeds the default limit 8"),
    (11, True, "n=11 exceeds the hard limit 10"),
])
def test_limit_is_checked_before_any_check(monkeypatch, max_n, force, message):
    def no_check(*_args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(selftest, "run_check", no_check)
    with pytest.raises(ValueError, match=message):
        run_selftest(max_n, force=force)


def test_positivity_check_rejects_a_zero_coefficient(monkeypatch):
    real = selftest.partition_coefficient
    monkeypatch.setattr(selftest, "partition_coefficient",
                        lambda n, mu: 0 if mu.parts == (4, 3) else real(n, mu))
    result = run_check("lassalle-positivity", 6, engine.scan)
    assert not result.passed
    assert "non-positive coefficient 0 for mu=(4, 3) at n=8" in result.detail


def test_orbit_stabilizer_check_uses_the_direct_count(monkeypatch):
    # every class claims stabilizer 1; the published orders disagree
    monkeypatch.setattr(selftest, "stabilizer_order", lambda g: 1)
    result = run_check("orbit-stabilizer", 3, engine.scan)
    assert not result.passed and result.detail.startswith("AssertionError")
