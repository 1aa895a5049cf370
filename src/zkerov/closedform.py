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

Intermediate arithmetic is exact rational; per-partition totals are
asserted integral.  In genus one the enumeration rescale factor is
exactly 1, so these values equal raw (M,q) pair counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .admissibility import Monomial
from .engine import InternalConsistencyError
from .partitions import compositions_any_length, partitions

@dataclass(frozen=True)
class ClosedFormResult:
    n: int
    terms: dict[Monomial, int]


def _bracket(parts: tuple[int, ...]) -> Fraction:
    s1 = sum(parts)
    s2 = sum(a * a for a in parts)
    return (
        Fraction(5, 24) * s2
        + Fraction(1, 4) * s1
        + Fraction(1, 6) * (s1 * s1 - s2)
    )


def _multiplicity_factor(mu: Monomial) -> int:
    counts: dict[int, int] = {}
    for a in mu.parts:
        counts[a] = counts.get(a, 0) + 1
    out = math.factorial(len(mu.parts))
    for c in counts.values():
        out //= math.factorial(c)
    return out


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise InternalConsistencyError(f"{what} is not an integer: {value}")
    return value.numerator


def partition_coefficient(n: int, mu: Monomial) -> int:
    """Genus-one coefficient of R_mu in the n-th polynomial; 0 off-stratum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sum(mu.parts) != n - 1:
        return 0
    prod = 1
    for a in mu.parts:
        prod *= a - 1
    value = n * _multiplicity_factor(mu) * _bracket(mu.parts) * prod
    out = _as_int(value, f"coefficient of {mu.parts} at n={n}")
    if out < 0:
        raise InternalConsistencyError(f"negative genus-one coefficient {out} for {mu.parts}")
    return out


def symmetrized_polynomial(n: int) -> ClosedFormResult:
    """Genus-one polynomial via the symmetrized ordered-tuple sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    acc: dict[Monomial, Fraction] = {}
    for tup in compositions_any_length(n - 1, 2):
        prod = 1
        for a in tup:
            prod *= a - 1
        term = n * _bracket(tup) * prod
        mono = Monomial(tup)
        acc[mono] = acc.get(mono, Fraction(0)) + term
    terms = {m: _as_int(v, f"term {m.parts} at n={n}") for m, v in acc.items()}
    return ClosedFormResult(n=n, terms=terms)


def family_tuple_values(n: int, tup: tuple[int, ...]) -> tuple[Fraction, Fraction, Fraction]:
    """The three family contributions (T1, T2, T3) of one ordered tuple."""
    k = len(tup)
    a1 = tup[0]
    tail = 1
    for a in tup[1:]:
        tail *= a - 1
    t1 = (Fraction(k * n, 4) + Fraction(2 * k * n, 2)) * Fraction(
        (a1 - 2) * (a1 - 1) * a1, 6
    ) * tail
    t2 = (Fraction((k + 1) * k, 2) * Fraction(n, 3) + Fraction((k + 1) * k, 2) * n) * Fraction(
        (a1 - 1) * a1, 2
    ) * tail
    if k >= 2:
        a2 = tup[1]
        tail2 = 1
        for a in tup[2:]:
            tail2 *= a - 1
        t3 = (
            2 * Fraction(k * (k - 1), 2) * Fraction(n, 6)
            + 2 * Fraction(k * (k - 1), 2) * Fraction(n, 2)
        ) * Fraction((a1 - 1) * a1, 2) * Fraction((a2 - 2) * (a2 - 1), 2) * tail2
    else:
        t3 = Fraction(0)
    return t1, t2, t3


def family_sum_polynomial(n: int) -> ClosedFormResult:
    """Genus-one polynomial via the raw three-family ordered-tuple sum."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    acc: dict[Monomial, Fraction] = {}
    for tup in compositions_any_length(n - 1, 2):
        t1, t2, t3 = family_tuple_values(n, tup)
        mono = Monomial(tup)
        acc[mono] = acc.get(mono, Fraction(0)) + t1 + t2 + t3
    terms = {m: _as_int(v, f"term {m.parts} at n={n}") for m, v in acc.items()}
    return ClosedFormResult(n=n, terms=terms)


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


@dataclass(frozen=True)
class PositivityReport:
    max_n: int
    rows: list[tuple[int, tuple[int, ...], int]]  # (n, partition, coefficient)
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def lassalle_scan(max_n: int) -> PositivityReport:
    """Check every genus-one closed-form coefficient up to max_n is a
    positive integer."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    rows: list[tuple[int, tuple[int, ...], int]] = []
    violations: list[str] = []
    for n in range(3, max_n + 1):
        for parts in partitions(n - 1, 2):
            mono = Monomial(parts)
            try:
                value = partition_coefficient(n, mono)
            except InternalConsistencyError as exc:
                violations.append(str(exc))
                continue
            rows.append((n, mono.parts, value))
            if value <= 0:
                violations.append(
                    f"non-positive coefficient {value} for mu={mono.parts} at n={n}"
                )
    return PositivityReport(max_n=max_n, rows=rows, violations=violations)
