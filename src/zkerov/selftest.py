"""The verification checks: one registry behind ``selftest``, the acceptance
suite and ``genus1 --verify``.

Each entry of CHECKS is ``(name, acceptance criterion or None, fn)``, where
``fn(max_n, scan_of, census_of)`` runs the check at a scale bounded by
``max_n`` and returns a one-line detail, raising on failure.  ``scan_of(n)``
returns the ScanResult of n and ``census_of()`` the contributing
reduced-bipartite census for n <= 6; run_selftest memoizes both for the
length of one run, so the checks share one scan per n and one census.
run_check never raises:
failures (including unexpected exceptions) come back as a failed
CheckResult so the CLI can render one line per check and exit 2 when
anything failed.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable

from . import engine
from .admissibility import (
    Monomial,
    candidate_colorings,
    hall_condition,
    orientation_walk_condition,
)
from .census import (
    ReducedMapClass,
    canonical_key,
    census_classes,
    contributing_reduced_bipartite_census,
    decoration_count,
    small_reduced_census,
    is_contributing,
    reduce_map,
    stabilizer_order,
    underlying_multigraph,
    verify_decoration_accounting,
)
from .closedform import (
    family_sum_polynomial,
    partition_coefficient,
    partition_polynomial,
    symmetrized_polynomial,
)
from .engine import ScanResult, rescaled_coefficient, strata
from .partitions import partitions
from .polygon import (
    Gluing,
    double_factorial,
    enumerate_gluings,
    enumerate_twisted_gluings,
    glue,
    rotate_gluing,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def genus1_mismatches(n: int, result: ScanResult) -> list[str]:
    """Disagreements among the four genus-one routes at n: the per-partition
    closed form against the tuple-family sum, the symmetrized sum and the
    genus-one stratum of ``result``; empty when all four agree."""
    reference = {m.parts: v for m, v in partition_polynomial(n).terms.items()}
    mismatches = []
    for name, other in (
        ("tuple-family sum", family_sum_polynomial(n)),
        ("symmetrized sum", symmetrized_polynomial(n)),
    ):
        got = {m.parts: v for m, v in other.terms.items()}
        if got != reference:
            mismatches.append(f"{name} disagrees: {got} != {reference}")
    part = strata(result, 2)[0]
    enum_terms = {m.parts: v for m, v in part.terms.items()}
    if enum_terms != reference:
        mismatches.append(f"enumeration disagrees: {enum_terms} != {reference}")
    if {m.parts: v for m, v in part.raw_counts.items()} != enum_terms:
        mismatches.append("genus-one rescale factor is not 1")
    return mismatches


def _check_gluing_counts(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    counts = []
    for n in range(1, max_n + 1):
        got = sum(1 for _ in enumerate_gluings(n))
        expected = double_factorial(2 * n - 1)
        assert got == expected, f"n={n}: {got} != {expected}"
        counts.append(got)
    return f"matching counts {counts} match the double factorials"


def _check_twisted_counts(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    top = min(max_n, 4)
    for n in range(1, top + 1):
        got = sum(1 for _ in enumerate_twisted_gluings(n))
        expected = double_factorial(2 * n - 1) << n
        assert got == expected, f"n={n}: {got} != {expected}"
    return f"twisted counts match (2n-1)!!*2^n for n<= {top}"


def _check_glue_invariants(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    top = min(max_n, 5)
    maps = 0
    for n in range(1, top + 1):
        for g in enumerate_gluings(n):
            m = glue(g)
            assert sum(m.degree.values()) == 2 * n
            assert m.euler_char == m.vertex_count - n + 1
            assert m.doubled_genus >= 0
            assert m.bipartite
            maps += 1
    return f"{maps} maps satisfy the degree-sum, Euler, and bipartite invariants"


def _check_rotation_equivariance(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    top = min(max_n, 4)
    checked = 0
    for n in range(1, top + 1):
        for g in enumerate_gluings(n):
            m = glue(g)
            sig = (sorted(m.degree.values()), m.euler_char,
                   len(m.black_vertices), len(m.white_vertices))
            for r in range(n):
                m2 = glue(rotate_gluing(g, r))
                sig2 = (sorted(m2.degree.values()), m2.euler_char,
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
        rng = random.Random(20260808)
        while sampled < 10_000:
            perm = list(range(14))
            rng.shuffle(perm)
            pairing = [0] * 14
            for k in range(0, 14, 2):
                a, b = perm[k], perm[k + 1]
                pairing[a] = b
                pairing[b] = a
            m = glue(Gluing(tuple(pairing)))
            for q in candidate_colorings(m):
                assert hall_condition(m, q) == orientation_walk_condition(m, q), (pairing, q)
                sampled += 1
    extra = f" plus {sampled} sampled pairs at n=7" if sampled else ""
    return f"both oracles agree on all {pairs} (map, q) pairs for n<= {top}{extra}"


def _check_genus1_agreement(max_n: int, scan_of: ScanOf, _census_of: CensusOf) -> str:
    checked = 0
    for n in range(3, max_n + 1):
        result = scan_of(n)
        mismatches = genus1_mismatches(n, result)
        assert not mismatches, f"n={n}: " + "; ".join(mismatches)
        checked += sum(1 for m in result.tallies if m.vertex_count == n - 1)
    return f"three closed forms == enumeration on {checked} genus-one coefficients, n=3..{max_n}"


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


def _check_rescale_integrality(max_n: int, scan_of: ScanOf, _census_of: CensusOf) -> str:
    top = min(max_n, 6)
    terms = 0
    for n in range(1, top + 1):
        for part in strata(scan_of(n)):
            bad = [m for m, v in part.terms.items() if type(v) is not int]
            assert not bad, f"non-integer coefficients at n={n}: {bad}"
            terms += len(part.terms)
    return f"{terms} rescaled coefficients are exact integers for n<= {top}"


def _check_pinned_census_counts(max_n: int, _scan_of: ScanOf, census_of: CensusOf) -> str:
    details = []
    if max_n >= 3:
        small = small_reduced_census(3)
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
    fam = census_classes(3, doubled_genus=2, bipartite_only=True)
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
                report = verify_decoration_accounting(c, b0 + kp, w0 + kp + lv)
                assert report.ok, report
                cases += 1
    return f"labeled-map accounting holds for {cases} decoration targets on {len(bases)} bases"


def _check_reduction(max_n: int, _scan_of: ScanOf, census_of: CensusOf) -> str:
    top = min(max_n, 6)
    targets = {canonical_key(underlying_multigraph(glue(c.representative)))
               for c in census_of()}
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
    branches = tuple(engine._branches(n))
    one = engine._scan_branch((n, branches, 0))
    split = [engine._scan_branch((n, branches[k::3], 0)) for k in range(3)]
    merged: dict[tuple[int, ...], int] = {}
    for _leaves, _total, tal in split:
        for key, v in tal.items():
            merged[key] = merged.get(key, 0) + v
    assert sum(total for _leaves, total, _tal in split) == one[1]
    assert merged == one[2]
    return f"partitioned enumeration merge equals the single pass at n={n}"


def _check_color_swap(max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    n = min(max_n, 4)
    branches = tuple(engine._branches(n))
    plain = engine._scan_branch((n, branches, 0))[2]
    swapped = engine._scan_branch((n, branches, 1))[2]
    assert plain == swapped
    return f"per-monomial totals are invariant under the black/white swap at n={n}"


def _check_degenerate_genus1(_max_n: int, scan_of: ScanOf, _census_of: CensusOf) -> str:
    part = strata(scan_of(2), 2)[0]
    assert part.terms == {} and part.raw_counts == {}
    return "the genus-one stratum at n=2 is empty"


def _check_lassalle(_max_n: int, _scan_of: ScanOf, _census_of: CensusOf) -> str:
    # partition_coefficient itself raises on a fraction or a negative value
    count = 0
    for n in range(3, 13):
        for parts in partitions(n - 1, 2):
            value = partition_coefficient(n, Monomial(parts))
            assert value > 0, f"non-positive coefficient {value} for mu={parts} at n={n}"
            count += 1
    return f"{count} genus-one coefficients up to n=12 are positive integers"


CHECKS: tuple[tuple[str, int | None, Callable[[int, ScanOf, CensusOf], str]], ...] = (
    ("gluing-counts", 1, _check_gluing_counts),
    ("twisted-counts", None, _check_twisted_counts),
    ("glue-invariants", None, _check_glue_invariants),
    ("rotation-equivariance", None, _check_rotation_equivariance),
    ("oracle-equivalence", 4, _check_oracle_equivalence),
    ("genus1-agreement", 2, _check_genus1_agreement),
    ("pinned-values", 3, _check_pinned_values),
    ("rescale-integrality", 9, _check_rescale_integrality),
    ("census-pinned-counts", 6, _check_pinned_census_counts),
    ("orbit-stabilizer", 8, _check_orbit_stabilizer),
    ("decoration-count", 7, _check_decoration_count),
    ("decoration-accounting", 8, _check_decoration_accounting),
    ("reduction-closure", None, _check_reduction),
    ("parallel-determinism", None, _check_determinism),
    ("color-swap", None, _check_color_swap),
    ("degenerate-genus1", 11, _check_degenerate_genus1),
    ("lassalle-positivity", 5, _check_lassalle),
)


def _contributing_census() -> list[ReducedMapClass]:
    """The contributing reduced-bipartite classes for n <= 6, the census
    the checks use."""
    return contributing_reduced_bipartite_census(6)


def run_check(
    name: str, max_n: int, scan_of: ScanOf, census_of: CensusOf = _contributing_census,
) -> CheckResult:
    """Run one registered check; a failure or exception is a failed result."""
    fn = {check: fn for check, _criterion, fn in CHECKS}[name]
    try:
        return CheckResult(name, True, fn(max_n, scan_of, census_of))
    except Exception as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def run_selftest(max_n: int = 6, threads: int = 1, force: bool = False) -> list[CheckResult]:
    """Run every check at scale ``max_n``, scanning each n and building the
    contributing census at most once."""
    engine.check_limit(max_n, force)
    scans: dict[int, ScanResult] = {}

    def scan_of(n: int) -> ScanResult:
        if n not in scans:
            scans[n] = engine.scan(n, threads=threads, force=force)
        return scans[n]

    census_of = functools.cache(_contributing_census)
    return [run_check(name, max_n, scan_of, census_of) for name, _criterion, _fn in CHECKS]
