"""Kerov polynomials K_k^(alpha) computed algebraically, for the tests.

Shares no model with the gluing enumeration: no polygons, maps or
colorings, only symmetric functions, in exact rational arithmetic.

1. The Jack character Ch_k at a diagram lambda: zero when |lambda| < k,
   and alpha * k * theta_lambda when |lambda| = k (Stanley 1989), with
       theta_lambda = prod over the cells s != (1,1) of (alpha*a'(s) - l'(s)),
   where a'(s) = j-1 and l'(s) = i-1 for the cell in row i and column j.
2. The free cumulants R_j(lambda) of the transition measure of lambda
   drawn with boxes alpha wide and 1 high.  Its Cauchy transform is
   prod (z - y) / prod (z - x), with x = alpha*(c-1) - (r-1) over the
   addable cells (r, c) and y = alpha*c - r over the removable cells.
3. K_k, the polynomial in R_2, ..., R_(k+1) with Ch_k = K_k(R_2, R_3, ...)
   on every diagram, by exact interpolation over all lambda with
   |lambda| <= k.  The system is overdetermined for k >= 2; a point that
   does not fit, or too few points to fix every coefficient, raises.
4. Off the route, only to check theta_lambda = [p_n] J_lambda, the identity
   step 1 rests on: the integral-form Jack polynomials J_lambda^(alpha) in
   the power-sum basis, by Gram-Schmidt on the monomial functions in
   lexicographic order (which extends dominance) under the scalar product
   <p_lambda, p_mu> = delta z_lambda alpha^len(lambda), then scaled by
   c_lambda = prod (alpha*arm + leg + 1) over the cells.

At alpha = 1 these are the classical Kerov polynomials (Biane 2003); at
alpha = 2 the zonal ones (Lassalle, "Jack polynomials and free
cumulants", 2009; Feray-Sniady, "Zonal polynomials via Stanley's
coordinates and free cumulants", 2011).  Both begin with R_(k+1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

Partition = tuple[int, ...]


def partitions(n: int, largest: int | None = None):
    """Partitions of n as descending tuples, in descending lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def theta(la: Partition, alpha: Fraction) -> Fraction:
    """theta_lambda = prod over the cells s != (1,1) of (alpha*a'(s) - l'(s))."""
    return prod((alpha * j - i for i, part in enumerate(la) for j in range(part) if i or j),
                start=Fraction(1))


def free_cumulants(la: Partition, alpha: Fraction, top: int) -> list[Fraction]:
    """[R_0, R_1, ..., R_top] of the alpha-anisotropic diagram of la (R_0 = 0)."""
    rows = (*la, 0)
    xs = [alpha * rows[r] - r for r in range(len(rows)) if r == 0 or rows[r - 1] > rows[r]]
    ys = [alpha * rows[r] - (r + 1) for r in range(len(la)) if rows[r] > rows[r + 1]]
    # moments: sum M_k t^k = prod (1 - y t) / prod (1 - x t), with t = 1/z
    moments = [Fraction(1)] + [Fraction(0)] * top
    for y in ys:
        moments = [moments[0]] + [moments[i] - y * moments[i - 1] for i in range(1, top + 1)]
    for x in xs:
        for i in range(1, top + 1):
            moments[i] += x * moments[i - 1]

    def times(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        return [sum((a[i] * b[d - i] for i in range(d + 1)), start=Fraction(0)) for d in range(top + 1)]

    # M(t) = 1 + sum_j R_j t^j M(t)^j; the j = k term is the only one with R_k at order k
    powers = [[Fraction(1)] + [Fraction(0)] * top]
    for _ in range(top):
        powers.append(times(powers[-1], moments))
    cumulants = [Fraction(0)] * (top + 1)
    for k in range(1, top + 1):
        cumulants[k] = moments[k] - sum((cumulants[j] * powers[j][k - j] for j in range(1, k)),
                                        start=Fraction(0))
    return cumulants


def _solve(rows: list[list[Fraction]], unknowns: int) -> list[Fraction]:
    """The one solution of an overdetermined linear system given as
    augmented rows; raises ValueError when it has none or several."""
    rows = [list(r) for r in rows]
    for col in range(unknowns):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pivot is None:
            raise ValueError(f"the points do not determine coefficient {col}")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        head[:] = [x / head[col] for x in head]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                f = row[col]
                row[:] = [a - f * b for a, b in zip(row, head)]
    if any(row[-1] for row in rows[unknowns:]):
        raise ValueError("no polynomial fits every point")
    return [rows[i][-1] for i in range(unknowns)]


@lru_cache(maxsize=None)
def kerov_polynomial(k: int, alpha: int | Fraction) -> dict[Partition, Fraction]:
    """K_k^(alpha) as {parts of mu: coefficient of R_mu}, nonzero terms only."""
    alpha = Fraction(alpha)
    monos = [mu for d in range(k + 2) for mu in partitions(d) if all(p >= 2 for p in mu)]
    rows = []
    for n in range(k + 1):
        for la in partitions(n):
            r = free_cumulants(la, alpha, k + 1)
            rows.append([prod((r[p] for p in mu), start=Fraction(1)) for mu in monos]
                        + [alpha * k * theta(la, alpha) if n == k else Fraction(0)])
    coeffs = _solve(rows, len(monos))
    return {mu: c for mu, c in zip(monos, coeffs) if c}


# step 4, off the route: Gram-Schmidt, only to check theta_lambda = [p_n] J_lambda
def z(la: Partition) -> int:
    return prod(part ** la.count(part) * factorial(la.count(part)) for part in set(la))


def _power_sum_in_monomials(la: Partition, mu: Partition) -> int:
    """Coefficient of m_mu in p_la: the ways to send each part of la to one
    of the slots mu_1, mu_2, ... so that every slot is filled exactly.

    The count for the parts from la[i] on depends only on the multiset of
    room left in the slots, so it is memoized on that room sorted in
    descending order; slots with equal room are tried once, weighted by
    how many there are."""

    @lru_cache(maxsize=None)
    def ways(i: int, room: Partition) -> int:
        if i == len(la):
            return 1
        total = 0
        for j, left in enumerate(room):
            if left >= la[i] and (j == 0 or room[j - 1] != left):
                rest = sorted(room[:j] + (left - la[i],) + room[j + 1:], reverse=True)
                total += room.count(left) * ways(i + 1, tuple(rest))
        return total

    return ways(0, mu)


@lru_cache(maxsize=None)
def monomials_in_power_sums(n: int) -> dict[Partition, dict[Partition, Fraction]]:
    """m_mu in the power-sum basis for every partition mu of n.

    p_mu = sum over nu >= mu (dominance) of L[mu][nu] m_nu, so m_mu follows
    from the m_nu above it, taken in descending lexicographic order."""
    out: dict[Partition, dict[Partition, Fraction]] = {}
    for mu in partitions(n):
        vec = {mu: Fraction(1)}
        diagonal = 0
        for nu in partitions(n):
            coeff = _power_sum_in_monomials(mu, nu)
            if nu == mu:
                diagonal = coeff
                break
            for rho, x in out[nu].items():
                vec[rho] = vec.get(rho, 0) - coeff * x
        out[mu] = {rho: x / diagonal for rho, x in vec.items() if x}
    return out


def _hook_scale(la: Partition, alpha: Fraction) -> Fraction:
    """c_lambda = prod over the cells of (alpha*arm + leg + 1)."""
    cols = [sum(1 for part in la if part > j) for j in range(la[0])] if la else []
    return prod(
        (alpha * (la[i] - j - 1) + cols[j] - i for i in range(len(la)) for j in range(la[i])),
        start=Fraction(1),
    )


@lru_cache(maxsize=None)
def jack_polynomials(n: int, alpha: Fraction) -> dict[Partition, dict[Partition, Fraction]]:
    """J_lambda^(alpha) in the power-sum basis for every partition lambda of n."""

    def dot(u: dict[Partition, Fraction], v: dict[Partition, Fraction]) -> Fraction:
        return sum((x * v[rho] * z(rho) * alpha ** len(rho) for rho, x in u.items() if rho in v),
                   start=Fraction(0))

    monomial = monomials_in_power_sums(n)
    monic: dict[Partition, dict[Partition, Fraction]] = {}
    for la in sorted(monomial):
        vec = dict(monomial[la])
        for q in monic.values():
            c = dot(monomial[la], q) / dot(q, q)
            for rho, x in q.items():
                vec[rho] = vec.get(rho, 0) - c * x
        monic[la] = {rho: x for rho, x in vec.items() if x}
    return {la: {rho: _hook_scale(la, alpha) * x for rho, x in p.items()} for la, p in monic.items()}
