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

Both tuple routes still enumerate every ordered tuple, but evaluate each
summand once per distinct argument it reads, times the number of tuples
that share it: the symmetrized summand reads only the multiset of parts,
so the tuples are counted per partition; the families read k, a_1, a_2
and the multiset of the parts after them, so the tuples are counted per
(a_1, a_2, sorted rest).  The count of orderings comes from that
enumeration and never from l!/prod l_j!, which is what keeps the
symmetrized route apart from the per-partition coefficient.  At n=26
(46,368 tuples in 383 partitions and 3,507 family groups) the symmetrized
route takes 44 ms and the family route 57 ms in-process, against 118 and
108 ms summed tuple by tuple (fastest of 5 calls, 2-vCPU Xeon, CPython
3.11).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .admissibility import Monomial
from .engine import ScanResult, exact_quotient, strata
from .partitions import compositions_any_length, partitions

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


def symmetrized_polynomial(n: int) -> ClosedFormResult:
    """Genus-one polynomial via the symmetrized ordered-tuple sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # the summand reads only the multiset of parts: count each one's orderings
    orderings = Counter(map(tuple, map(sorted, compositions_any_length(n - 1, 2))))
    acc = {
        parts[::-1]: count * n * _scaled_bracket(parts) * math.prod(a - 1 for a in parts)
        for parts, count in orderings.items()
    }
    return _divided_terms(n, acc, BRACKET_DENOMINATOR)


def family_sum_polynomial(n: int) -> ClosedFormResult:
    """Genus-one polynomial via the raw three-family ordered-tuple sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # the families read a_1, a_2 and only the multiset of the parts after them
    groups = Counter(tup[:2] + tuple(sorted(tup[2:])) for tup in compositions_any_length(n - 1, 2))
    acc: dict[tuple[int, ...], int] = {}
    for tup, count in groups.items():
        key = tuple(sorted(tup, reverse=True))
        acc[key] = acc.get(key, 0) + count * sum(_scaled_families(n, tup))
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
    part = strata(result, 2)[0]
    enum_terms = {m.parts: v for m, v in part.terms.items()}
    if enum_terms != reference:
        mismatches.append(f"enumeration disagrees: {enum_terms} != {reference}")
    if {m.parts: v for m, v in part.raw_counts.items()} != enum_terms:
        mismatches.append("genus-one rescale factor is not 1")
    return mismatches
