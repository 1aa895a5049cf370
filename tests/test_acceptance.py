"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every criterion but 9 and 10 runs the checks of the ``selftest`` registry
that CRITERIA names for it, at max_n=8, so the suite and ``zkerov
selftest`` share one copy of each check; a name the registry lacks fails
its criterion.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines and timings.  Criterion 9 (rescaling integrality for n <= 6)
takes the route of tests/kerov_oracle.py, which shares no model with the
enumeration: K_1..K_6 at alpha=2, interpolated from theta_lambda and the
free cumulants, must equal the published coefficients, the signed raw
counts (-1)^(n+1+V) * raw, term by term, and have denominator 1.
"""

import json
import time

from kerov_oracle import kerov_polynomial
from zkerov.cli import main
from zkerov.engine import scan, strata
from zkerov.selftest import run_check

WORKERS = 4
MAX_N = 8
# criterion -> the registry checks that serve it; criterion 9 runs the
# Kerov oracle and criterion 10 the CLI
CRITERIA = {
    1: ("gluing-counts",),
    2: ("genus1-agreement",),
    3: ("pinned-values",),
    4: ("oracle-equivalence",),
    5: ("lassalle-positivity",),
    6: ("census-pinned-counts",),
    7: ("decoration-count",),
    8: ("orbit-stabilizer", "decoration-accounting"),
    11: ("degenerate-genus1",),
}


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")


def check_criterion(number: int, bound_s: float | None = None) -> None:
    """Run the registry checks of one criterion, within ``bound_s`` seconds."""
    t0 = time.perf_counter()
    results = [run_check(name, MAX_N, lambda n: scan(n, threads=WORKERS))
               for name in CRITERIA[number]]
    elapsed = time.perf_counter() - t0
    in_time = bound_s is None or elapsed < bound_s
    ok = all(r.passed for r in results) and in_time
    report(number, ok, "; ".join(r.detail for r in results)
           + f" ({elapsed:.1f}s with {WORKERS} workers)")
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
    t0 = time.perf_counter()
    terms, bad = 0, []
    for n in range(1, 7):
        published = {mono.parts: coeff for part in strata(scan(n, threads=WORKERS))
                     for mono, coeff in part.terms.items()}
        oracle = kerov_polynomial(n, 2)
        if oracle != published or any(c.denominator != 1 for c in oracle.values()):
            bad.append(n)
        terms += len(oracle)
    report(9, not bad, f"K_1..K_6 at alpha=2 from theta_lambda equal the {terms} published "
                       f"coefficients, all integers ({time.perf_counter() - t0:.1f}s)")
    assert not bad, f"the oracle disagrees or is not integral at n={bad}"


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
