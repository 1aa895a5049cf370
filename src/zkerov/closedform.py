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
add these scaled values per partition, and every total is divided once,
with a remainder raising InternalConsistencyError.  The exact fractions
(_bracket, family_tuple_values) are those integers over the denominator.
In genus one the enumeration's sign (-1)^(n+1+V) is +1, so these values
equal raw (M,q) pair counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .admissibility import Monomial
from .engine import InternalConsistencyError
from .partitions import compositions_any_length, partitions

# what _scaled_bracket and _scaled_families are multiplied by
BRACKET_DENOMINATOR = 24
FAMILY_DENOMINATOR = 12


@dataclass(frozen=True)
class ClosedFormResult:
    n: int
    terms: dict[Monomial, int]


def _scaled_bracket(parts: tuple[int, ...]) -> int:
    """24 * (5/24*S2 + 1/4*S1 + 1/6*(S1^2 - S2))."""
    s1 = sum(parts)
    s2 = sum(a * a for a in parts)
    return 5 * s2 + 6 * s1 + 4 * (s1 * s1 - s2)


def _bracket(parts: tuple[int, ...]) -> Fraction:
    return Fraction(_scaled_bracket(parts), BRACKET_DENOMINATOR)


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


def family_tuple_values(n: int, tup: tuple[int, ...]) -> tuple[Fraction, Fraction, Fraction]:
    """The three family contributions (T1, T2, T3) of one ordered tuple."""
    t1, t2, t3 = _scaled_families(n, tup)
    return (
        Fraction(t1, FAMILY_DENOMINATOR),
        Fraction(t2, FAMILY_DENOMINATOR),
        Fraction(t3, FAMILY_DENOMINATOR),
    )


def _multiplicity_factor(mu: Monomial) -> int:
    counts: dict[int, int] = {}
    for a in mu.parts:
        counts[a] = counts.get(a, 0) + 1
    out = math.factorial(len(mu.parts))
    for c in counts.values():
        out //= math.factorial(c)
    return out


def _exact_quotient(total: int, denominator: int, what: str) -> int:
    quotient, remainder = divmod(total, denominator)
    if remainder:
        raise InternalConsistencyError(
            f"{what} is not an integer: {Fraction(total, denominator)}"
        )
    return quotient


def _divided_terms(
    n: int, scaled: dict[tuple[int, ...], int], denominator: int
) -> ClosedFormResult:
    """Per-partition scaled totals divided once by their denominator."""
    terms = {
        Monomial(parts): _exact_quotient(total, denominator, f"term {parts} at n={n}")
        for parts, total in scaled.items()
    }
    return ClosedFormResult(n=n, terms=terms)


def partition_coefficient(n: int, mu: Monomial) -> int:
    """Genus-one coefficient of R_mu in the n-th polynomial; 0 off-stratum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sum(mu.parts) != n - 1:
        return 0
    scaled = n * _multiplicity_factor(mu) * _scaled_bracket(mu.parts)
    for a in mu.parts:
        scaled *= a - 1
    out = _exact_quotient(scaled, BRACKET_DENOMINATOR, f"coefficient of {mu.parts} at n={n}")
    if out < 0:
        raise InternalConsistencyError(f"negative genus-one coefficient {out} for {mu.parts}")
    return out


def symmetrized_polynomial(n: int) -> ClosedFormResult:
    """Genus-one polynomial via the symmetrized ordered-tuple sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    acc: dict[tuple[int, ...], int] = {}
    for tup in compositions_any_length(n - 1, 2):
        key = tuple(sorted(tup, reverse=True))
        value = n * _scaled_bracket(tup) * math.prod(a - 1 for a in tup)
        acc[key] = acc.get(key, 0) + value
    return _divided_terms(n, acc, BRACKET_DENOMINATOR)


def family_sum_polynomial(n: int) -> ClosedFormResult:
    """Genus-one polynomial via the raw three-family ordered-tuple sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    acc: dict[tuple[int, ...], int] = {}
    for tup in compositions_any_length(n - 1, 2):
        key = tuple(sorted(tup, reverse=True))
        acc[key] = acc.get(key, 0) + sum(_scaled_families(n, tup))
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
    return ClosedFormResult(n=n, terms=terms)
