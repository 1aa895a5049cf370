"""The verification checks: one registry behind ``selftest`` and the
acceptance suite.  ``genus1 --verify`` calls the registry's genus-one
comparison, closedform.genus1_mismatches, directly, so it loads neither
this module nor the census.

CHECKS maps each check's name to ``fn(max_n, scan_of, census_of)``, which
runs the check at a scale bounded by ``max_n`` and returns a one-line
detail, raising on failure.  ``scan_of(n)`` returns the ScanResult of n
and ``census_of()`` the contributing preset's classes (n <= 6);
run_selftest memoizes both for the length of one run, so the checks share
one scan per n and one census.  run_check never raises: failures
(including unexpected exceptions) come back as a failed CheckResult so the
CLI can render one line per check and exit 2 when anything failed.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Callable, NamedTuple

from . import engine
from .admissibility import (
    Monomial,
    bipartite_graph,
    candidate_colorings,
    enumerate_q,
    hall_condition,
    orientation_walk_condition,
)
from .census import (
    ReducedMapClass,
    canonical_key,
    census_classes,
    decoration_count,
    is_contributing,
    preset,
    reduce_map,
    stabilizer_order,
    verify_decoration_accounting,
)
from .closedform import genus1_mismatches, partition_coefficient
from .engine import ScanResult, rescaled_coefficient
from .partitions import partitions
from .polygon import (
    double_factorial,
    enumerate_gluings,
    enumerate_twisted_gluings,
    glue,
    gluing_counts,
    rotate_gluing,
    shift_gluing,
    twisted_gluing_counts,
)

ScanOf = Callable[[int], ScanResult]
CensusOf = Callable[[], list[ReducedMapClass]]

PINNED_GENUS1_VALUES = {
    (3, (2,)): 4,
    (4, (3,)): 21,
    (5, (2, 2)): 20,
    (5, (4,)): 65,
    (6, (3, 2)): 143,
    (6, (5,)): 155,
}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _assert_strata(n: int, enumerate_fn: Callable, expected: tuple[int, ...]) -> None:
    # each genus-pruned stratum of n against its count, dg = 0..n
    got = tuple(sum(1 for _ in enumerate_fn(n, doubled_genus=dg)) for dg in range(n + 1))
    assert got == expected, f"n={n}: strata {got} != {expected}"


def _check_gluing_counts(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    # the full pass against the double factorial, and each genus-pruned
    # stratum against the one-face formula
    top = min(max_n, 6)
    counts = []
    for n in range(1, max_n + 1):
        got = sum(1 for _ in enumerate_gluings(n))
        expected = double_factorial(2 * n - 1)
        assert got == expected, f"n={n}: {got} != {expected}"
        if n <= top:
            _assert_strata(n, enumerate_gluings, gluing_counts(n))
        counts.append(got)
    return (f"matching counts {counts} match the double factorials, "
            f"and per genus the one-face formula for n<= {top}")


def _check_twisted_counts(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    # each genus-pruned stratum, and the full pass, against Ledoux's recursion
    top = min(max_n, 4)
    for n in range(1, top + 1):
        expected = twisted_gluing_counts(n)
        _assert_strata(n, enumerate_twisted_gluings, expected)
        full = sum(1 for _ in enumerate_twisted_gluings(n))
        assert full == sum(expected), f"n={n}: {full} != {sum(expected)}"
    return f"twisted counts match the GOE-moment recursion per genus and in total for n<= {top}"


def _check_glue_invariants(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    top = min(max_n, 5)
    maps = 0
    for n in range(1, top + 1):
        # Euler: the genus-pruned enumerator counts vertices in a union-find
        # of its own, so each stratum it yields checks glue()'s genus
        for dg in range(n + 1):
            for g in enumerate_gluings(n, doubled_genus=dg):
                m = glue(g)
                assert sum(m.degree.values()) == 2 * n
                assert m.doubled_genus == dg, (g, m.doubled_genus, dg)
                assert m.bipartite
                maps += 1
    return f"{maps} maps satisfy the degree-sum, Euler, and bipartite invariants"


def _check_rotation_equivariance(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    top = min(max_n, 4)
    checked = 0
    for n in range(1, top + 1):
        for g in enumerate_gluings(n):
            m = glue(g)
            sig = (sorted(m.degree.values()), m.doubled_genus,
                   len(m.black_vertices), len(m.white_vertices))
            for r in range(n):
                m2 = glue(rotate_gluing(g, r))
                sig2 = (sorted(m2.degree.values()), m2.doubled_genus,
                        len(m2.black_vertices), len(m2.white_vertices))
                assert sig == sig2, (g, r)
                checked += 1
    return f"{checked} rotated maps keep degree multiset, Euler characteristic, colors"


def _check_oracle_equivalence(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    top = min(max_n, 6)
    pairs = 0
    for n in range(1, top + 1):
        for g in enumerate_gluings(n):
            m = glue(g)
            for q in candidate_colorings(m):
                assert hall_condition(m, q) == orientation_walk_condition(m, q), (g, q)
                pairs += 1
    sampled = 0
    if max_n >= 7:
        for g in itertools.islice(enumerate_gluings(7), 0, None, 11):
            m = glue(g)
            for q in candidate_colorings(m):
                assert hall_condition(m, q) == orientation_walk_condition(m, q), (g, q)
                sampled += 1
    extra = f" plus {sampled} pairs on every 11th matching at n=7" if sampled else ""
    return f"both oracles agree on all {pairs} (map, q) pairs for n<= {top}{extra}"


def _check_genus1_agreement(max_n: int, scan_of: ScanOf, _census_of: CensusOf) -> str:
    # n=2 has no genus-one map, so there all four routes must be empty
    checked = 0
    for n in range(2, max_n + 1):
        result = scan_of(n)
        mismatches = genus1_mismatches(n, result)
        assert not mismatches, f"n={n}: " + "; ".join(mismatches)
        checked += sum(1 for m in result.tallies if m.vertex_count == n - 1)
    return f"three closed forms == enumeration on {checked} genus-one coefficients, n=2..{max_n}"


def _check_pinned_values(max_n: int, scan_of: ScanOf, _census_of: CensusOf) -> str:
    hit = 0
    for (n, parts), expected in PINNED_GENUS1_VALUES.items():
        if n > max_n:
            continue
        mono = Monomial(parts)
        raw = scan_of(n).tallies.get(mono, 0)
        coeff = rescaled_coefficient(n, mono, raw)
        assert raw == coeff == expected, (n, parts, raw, coeff, expected)
        hit += 1
    return f"{hit} pinned genus-one values reproduced by enumeration"


def _check_pinned_census_counts(max_n: int, _scan_of: ScanOf, census_of: CensusOf) -> str:
    details = []
    if max_n >= 3:
        small = preset("reduced")
        assert len(small) == 5, f"reduced twisted census gave {len(small)} classes, expected 5"
        details.append("5 reduced classes (twisted, dihedral, n<=3)")
    if max_n >= 6:
        contributing = census_of()
        assert len(contributing) == 7, f"contributing reduced-bipartite census gave {len(contributing)}, expected 7"
        details.append("7 contributing reduced-bipartite classes (n<=6)")
    return "; ".join(details) if details else "skipped (max_n too small)"


def _check_orbit_stabilizer(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    top = min(max_n, 6)
    classes_seen = 0
    for n in range(1, top + 1):
        classes = census_classes(n)
        assert sum(c.orbit_size for c in classes) == double_factorial(2 * n - 1)
        for c in classes:
            assert c.stabilizer_order == stabilizer_order(c.representative), c
        classes_seen += len(classes)
    # a filtered family: genus-one maps at n=3 total four gluings in two orbits
    fam = census_classes(3, doubled_genus=2)
    assert sorted(c.orbit_size for c in fam) == [1, 3]
    direct = sum(1 for g in enumerate_gluings(3) if glue(g).doubled_genus == 2)
    assert direct == 4, f"{direct} genus-one gluings at n=3, expected 4"
    return f"orbit*stabilizer == n for all {classes_seen} classes, n<= {top}"


def _check_decoration_count(_max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    cases = 0
    for m in range(1, 5):
        for k in range(6):
            explicit = sum(1 for _ in itertools.combinations_with_replacement(range(m), k))
            assert decoration_count(m, k) == explicit, (m, k, explicit)
            cases += 1
    return f"{cases} decoration counts match explicit placement generation"


def _check_decoration_accounting(max_n: int, _scan_of: ScanOf, census_of: CensusOf) -> str:
    bases = [c for c in census_of() if c.n <= min(max_n, 4)]
    cases = 0
    for c in bases:
        m = glue(c.representative)
        b0, w0 = len(m.black_vertices), len(m.white_vertices)
        for kp in range(3):
            for lv in range(4):
                report = verify_decoration_accounting(c.representative, b0 + kp, w0 + kp + lv)
                assert report.ok, report
                cases += 1
    return f"labeled-map accounting holds for {cases} decoration targets on {len(bases)} bases"


def _check_reduction(max_n: int, _scan_of: ScanOf, census_of: CensusOf) -> str:
    """Every contributing genus-one matching of the full enumeration reduces
    confluently to a class of the contributing census.  That census skips
    the matchings with a pair of ``polygon.leaf_pairs``, its reduced
    filter's ban, so if the ban ever dropped one of its classes, the maps
    that reduce to it would fail here."""
    top = min(max_n, 6)
    targets = {canonical_key(bipartite_graph(glue(c.representative))) for c in census_of()}
    reduced_maps = 0
    for n in range(1, top + 1):
        for g in enumerate_gluings(n):
            m = glue(g)
            if m.doubled_genus != 2 or not is_contributing(m):
                continue
            k1 = canonical_key(reduce_map(m, ("leaf", "smooth")))
            k2 = canonical_key(reduce_map(m, ("smooth", "leaf")))
            assert k1 == k2, f"reduction is not confluent on {g}"
            assert k1 in targets, f"{g} does not reduce to a contributing class"
            reduced_maps += 1
    return f"{reduced_maps} contributing genus-one maps reduce confluently into the 7 classes"


def _check_determinism(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    n = min(max_n, 5)
    one = engine._scan_branch((n, tuple(engine._branches(n))))
    split = [engine._scan_branch(task) for task in engine._tasks(n, 3)]
    assert engine._exact_tallies(n, split) == engine._exact_tallies(n, [one])
    return f"partitioned enumeration merge equals the single pass at n={n}"


def _check_color_swap(max_n: int, scan_of: ScanOf, _census_of: CensusOf) -> str:
    n = min(max_n, 4)
    # the odd side shift colors the even corners of each matching white
    swapped = Counter(mono for g in enumerate_gluings(n)
                      for _q, mono in enumerate_q(glue(shift_gluing(g, 1))))
    assert scan_of(n).tallies == swapped
    return f"per-monomial totals are invariant under the black/white swap at n={n}"


def _check_lassalle(_max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    # partition_coefficient itself raises on a fraction
    count = 0
    for n in range(3, 13):
        for parts in partitions(n - 1, 2):
            value = partition_coefficient(n, Monomial(parts))
            assert value > 0, f"non-positive coefficient {value} for mu={parts} at n={n}"
            count += 1
    return f"{count} genus-one coefficients up to n=12 are positive integers"


CHECKS: dict[str, Callable[[int, ScanOf, CensusOf], str]] = {
    "gluing-counts": _check_gluing_counts,
    "twisted-counts": _check_twisted_counts,
    "glue-invariants": _check_glue_invariants,
    "rotation-equivariance": _check_rotation_equivariance,
    "oracle-equivalence": _check_oracle_equivalence,
    "genus1-agreement": _check_genus1_agreement,
    "pinned-values": _check_pinned_values,
    "census-pinned-counts": _check_pinned_census_counts,
    "orbit-stabilizer": _check_orbit_stabilizer,
    "decoration-count": _check_decoration_count,
    "decoration-accounting": _check_decoration_accounting,
    "reduction-closure": _check_reduction,
    "parallel-determinism": _check_determinism,
    "color-swap": _check_color_swap,
    "lassalle-positivity": _check_lassalle,
}


def run_check(
    name: str, max_n: int, scan_of: ScanOf,
    census_of: CensusOf = functools.partial(preset, "contributing"),
) -> CheckResult:
    """Run one registered check; a failure or exception is a failed result."""
    try:
        return CheckResult(name, True, CHECKS[name](max_n, scan_of, census_of))
    except Exception as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def run_selftest(max_n: int = 6, threads: int = 1) -> list[CheckResult]:
    """Run every check at scale ``max_n``, scanning each n and building the
    contributing census at most once."""
    engine.check_limit(max_n)
    scans: dict[int, ScanResult] = {}

    def scan_of(n: int) -> ScanResult:
        if n not in scans:
            scans[n] = engine.scan(n, threads=threads)
        return scans[n]

    census_of = functools.cache(functools.partial(preset, "contributing"))
    return [run_check(name, max_n, scan_of, census_of) for name in CHECKS]
