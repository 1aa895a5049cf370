"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every criterion but 10 runs the checks of the ``selftest`` registry that
carry its number, at max_n=8, so the suite and ``zkerov selftest`` share
one copy of each check.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines and timings.  Criterion 9 (rescaling integrality for
n <= 6) holds by construction: a coefficient is the signed raw count
(-1)^(n+1+V) * raw, with no power of two.  What shows that this is the
right normalization is tests/test_kerov_oracle.py, which derives K_1..K_6
at alpha=2 from Jack polynomials and equates them with the enumeration
term by term (R_4 -701 and R_2 -1348 at n=6 among them).
"""

import json
import time

from zkerov.cli import main
from zkerov.engine import scan
from zkerov.selftest import CHECKS, run_check

WORKERS = 4
MAX_N = 8


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def check_criterion(number: int, bound_s: float | None = None) -> None:
    """Run the registry checks of one criterion, within ``bound_s`` seconds."""
    t0 = time.perf_counter()
    results = [run_check(name, MAX_N, lambda n: scan(n, threads=WORKERS))
               for name, crit, _fn in CHECKS if crit == number]
    elapsed = time.perf_counter() - t0
    in_time = bound_s is None or elapsed < bound_s
    ok = bool(results) and all(r.passed for r in results) and in_time
    report(number, ok, "; ".join(r.detail for r in results)
           + f" ({elapsed:.1f}s with {WORKERS} workers)")
    assert results, f"no registry check carries criterion {number}"
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
    assert in_time, f"took {elapsed:.1f}s, bound {bound_s}s"


def test_criterion_01_gluing_counts():
    check_criterion(1, bound_s=30)


def test_criterion_02_genus_one_three_way_and_enumeration():
    check_criterion(2, bound_s=60)


def test_criterion_03_pinned_values_rederived():
    check_criterion(3)


def test_criterion_04_oracle_equivalence():
    check_criterion(4)


def test_criterion_05_lassalle_scan():
    check_criterion(5, bound_s=1)


def test_criterion_06_census_counts():
    check_criterion(6)


def test_criterion_07_decoration_counts():
    check_criterion(7)


def test_criterion_08_orbit_stabilizer_and_labeled_accounting():
    check_criterion(8)


def test_criterion_09_rescaling_integrality():
    check_criterion(9)


def test_criterion_10_expand_determinism(capsys):
    code1 = main(["expand", "--n", "6", "--threads", "1", "--format", "json"])
    out1 = capsys.readouterr().out
    code2 = main(["expand", "--n", "6", "--threads", "8", "--format", "json"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2
    with capsys.disabled():
        report(10, ok, f"expand --n 6 JSON is byte-identical for 1 and 8 workers "
                       f"({len(out1)} bytes)")
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_criterion_11_degenerate_genus_one():
    check_criterion(11)
