"""Exact evaluation of the three genus-one closed forms.

All three routes sum over tuples/partitions of n-1 with parts >= 2 and
must agree term by term:

* the per-partition coefficient
      n * (l! / prod l_j!) * (5/24*S2 + 1/4*S1 + 1/6*(S1^2 - S2)) * prod(a_i - 1)
  with S1 = sum a_i, S2 = sum a_i^2 and l_j the part multiplicities;
* the symmetrized sum of n * (same bracket) * prod(a_i - 1) over ordered
  tuples (a_1, ..., a_k);
* the raw three-family sum over ordered tuples, whose bracket factors are
  split by the degree-3 vertex structure of the underlying reduced maps
  (families T1, T2, T3 below).

Arithmetic is in integers: each formula is evaluated times a fixed
denominator (24 for the bracket, 12 for the families), the tuple routes
add these scaled values per partition, and every total is divided once
by ``engine.exact_quotient``, a remainder raising InternalConsistencyError.
In genus one the enumeration's sign (-1)^(n+1+V) is +1, so these values
equal raw (M,q) pair counts; genus1_mismatches compares the three routes
with the genus-one stratum of a scan.

Neither tuple route lists an ordered tuple.  Each evaluates its summand
once per distinct argument it reads, times the number of ordered tuples
that share that argument, and the number comes from ``_orderings``: a
table that maps each partition of s = 0..n-1 into parts >= 2 to its
number of orderings, built by appending a last part a to the entries of
s - a.  The symmetrized summand reads only the multiset of parts, so it
is evaluated once per partition of n-1; the families read k, a_1, a_2
and the multiset of the parts after them, so the family route takes the
one tuple (n-1,) and then each (a_1, a_2) with every partition of the
rest.  The count never comes from l!/prod l_j!, which is what keeps the
symmetrized route apart from the per-partition coefficient.  The work
grows with the partitions, exp(O(sqrt n)), where the tuples grow as the
Fibonacci numbers: at n=26 (46,368 ordered tuples in 383 partitions,
3,507 family groups) the symmetrized route is about 10 times and the
family route about 5 times faster than when every tuple was listed
(``BENCH_scan.json``: medians of 10 calls in fresh interpreters, 2-vCPU
Xeon, CPython 3.11), and the three routes agree for every n <= 40 in the
tests.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .admissibility import Monomial
from .engine import ScanResult, exact_quotient, strata
from .partitions import partitions

# what _scaled_bracket and _scaled_families are multiplied by
BRACKET_DENOMINATOR = 24
FAMILY_DENOMINATOR = 12


class ClosedFormResult(NamedTuple):
    terms: dict[Monomial, int]


def _scaled_bracket(parts: tuple[int, ...]) -> int:
    """24 * (5/24*S2 + 1/4*S1 + 1/6*(S1^2 - S2))."""
    s1 = sum(parts)
    s2 = sum(a * a for a in parts)
    return 5 * s2 + 6 * s1 + 4 * (s1 * s1 - s2)


def _scaled_families(n: int, tup: tuple[int, ...]) -> tuple[int, int, int]:
    """12 * (T1, T2, T3) of one ordered tuple (a_1, ..., a_k):
    T1 = 5kn/4 * C(a1,3) * tail, T2 = 2k(k+1)n/3 * C(a1,2) * tail and
    T3 = 2k(k-1)n/3 * C(a1,2) * C(a2-1,2) * tail2, where tail is
    prod(a_i - 1) over i >= 2 and tail2 the same over i >= 3."""
    k = len(tup)
    a1 = tup[0]
    tail2 = math.prod(a - 1 for a in tup[2:])
    t3 = 0
    tail = 1
    if k >= 2:
        a2 = tup[1]
        tail = (a2 - 1) * tail2
        t3 = 8 * k * (k - 1) * n * math.comb(a1, 2) * math.comb(a2 - 1, 2) * tail2
    t1 = 15 * k * n * math.comb(a1, 3) * tail
    t2 = 8 * k * (k + 1) * n * math.comb(a1, 2) * tail
    return t1, t2, t3


def _multiplicity_factor(mu: Monomial) -> int:
    counts: dict[int, int] = {}
    for a in mu.parts:
        counts[a] = counts.get(a, 0) + 1
    out = math.factorial(len(mu.parts))
    for c in counts.values():
        out //= math.factorial(c)
    return out


def _divided_terms(
    n: int, scaled: dict[tuple[int, ...], int], denominator: int
) -> ClosedFormResult:
    """Per-partition scaled totals divided once by their denominator."""
    terms = {
        Monomial(parts): exact_quotient(total, denominator, f"term {parts} at n={n}")
        for parts, total in scaled.items()
    }
    return ClosedFormResult(terms=terms)


def partition_coefficient(n: int, mu: Monomial) -> int:
    """Genus-one coefficient of R_mu in the n-th polynomial; 0 off-stratum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sum(mu.parts) != n - 1:
        return 0
    scaled = n * _multiplicity_factor(mu) * _scaled_bracket(mu.parts)
    for a in mu.parts:
        scaled *= a - 1
    return exact_quotient(scaled, BRACKET_DENOMINATOR, f"coefficient of {mu.parts} at n={n}")


def _orderings(total: int) -> list[dict[tuple[int, ...], int]]:
    """``ways[s]`` for s = 0..total: each ascending tuple of parts >= 2
    summing to s, mapped to its number of orderings; ``ways[total]`` by
    length and then by parts.  An ordering ends in some part a after an
    ordering of s - a, so the counts add up from ``ways[0] = {(): 1}``
    without listing an ordering or taking a factorial."""
    ways: list[dict[tuple[int, ...], int]] = [{(): 1}]
    for s in range(1, total + 1):
        row: dict[tuple[int, ...], int] = {}
        for a in range(2, s + 1):
            for parts, count in ways[s - a].items():
                i = bisect_right(parts, a)
                key = parts[:i] + (a,) + parts[i:]
                row[key] = row.get(key, 0) + count
        ways.append(row)
    ways[total] = dict(sorted(ways[total].items(), key=lambda item: (len(item[0]), item[0])))
    return ways


def symmetrized_polynomial(n: int) -> ClosedFormResult:
    """Genus-one polynomial via the symmetrized ordered-tuple sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # the summand reads only the multiset of parts: once per partition,
    # times its orderings
    acc = {
        parts[::-1]: count * n * _scaled_bracket(parts) * math.prod(a - 1 for a in parts)
        for parts, count in _orderings(n - 1)[n - 1].items() if parts
    }
    return _divided_terms(n, acc, BRACKET_DENOMINATOR)


def family_sum_polynomial(n: int) -> ClosedFormResult:
    """Genus-one polynomial via the raw three-family ordered-tuple sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    total = n - 1
    ways = _orderings(total)
    # keys in the table's order, the one the symmetrized route's terms have
    acc = {parts[::-1]: 0 for parts in ways[total] if parts}
    # the families read a_1, a_2 and only the multiset of the parts after
    # them: the one tuple (n-1,), then (a_1, a_2) before each such rest
    groups = [((total,), 1)] if total >= 2 else []
    groups += [((a1, a2) + rest, count)
               for a1 in range(2, total - 1) for a2 in range(2, total - a1 + 1)
               for rest, count in ways[total - a1 - a2].items()]
    for tup, count in groups:
        acc[tuple(sorted(tup, reverse=True))] += count * sum(_scaled_families(n, tup))
    return _divided_terms(n, acc, FAMILY_DENOMINATOR)


def partition_polynomial(n: int) -> ClosedFormResult:
    """Genus-one polynomial via the per-partition coefficient formula."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    terms = {}
    for parts in partitions(n - 1, 2):
        if not parts:
            continue
        mono = Monomial(parts)
        terms[mono] = partition_coefficient(n, mono)
    return ClosedFormResult(terms=terms)


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
    enum_terms = {m.parts: v for m, v in strata(result, 2)[0].terms.items()}
    if enum_terms != reference:
        mismatches.append(f"enumeration disagrees: {enum_terms} != {reference}")
    return mismatches
