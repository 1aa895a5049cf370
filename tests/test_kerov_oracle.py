"""The enumeration's coefficients against Kerov polynomials derived from
theta_lambda and free cumulants (tests/kerov_oracle.py), a route that
shares no model with the gluings.

At alpha=1 the oracle must give the classical Kerov polynomials; at
alpha=2 its zonal K_n must equal, term by term, the signed raw counts
(-1)^(n+1+V) * raw that the engine reports as coefficients.  Jack
polynomials by Gram-Schmidt check the one identity the route rests on,
[p_n] J_lambda = theta_lambda.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import kerov_oracle
from kerov_oracle import jack_polynomials, kerov_polynomial, theta
from zkerov.closedform import partition_polynomial
from zkerov.engine import rescaled_coefficient, scan
from zkerov.polygon import one_face_counts

# Biane 2003; also the orientable half of the gluing tallies
CLASSICAL = {
    1: {(2,): 1},
    2: {(3,): 1},
    3: {(4,): 1, (2,): 1},
    4: {(5,): 1, (3,): 5},
    5: {(6,): 1, (4,): 15, (2, 2): 5, (2,): 8},
    6: {(7,): 1, (5,): 35, (3, 2): 35, (3,): 84},
}


def test_oracle_imports_nothing_from_the_package():
    """The oracle stays a route of its own: theta_lambda is also computed in
    polygon.one_face_counts, and importing it would compare that formula
    with itself."""
    tree = ast.parse(Path(kerov_oracle.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.split(".")[0] == "zkerov"]


@pytest.mark.parametrize("alpha", [1, 2])
def test_jack_polynomials_have_unit_coefficient_of_p1n(alpha):
    for n in range(1, 7):
        for la, j in jack_polynomials(n, alpha).items():
            assert j[(1,) * n] == 1, (n, la)


@pytest.mark.parametrize("alpha", [1, 2, Fraction(5, 3)])
def test_jack_polynomials_have_theta_as_coefficient_of_pn(alpha):
    for n in range(1, 8):
        for la, j in jack_polynomials(n, alpha).items():
            assert j.get((n,), 0) == theta(la, alpha), (n, la)


@pytest.mark.parametrize("k", sorted(CLASSICAL))
def test_alpha_one_gives_the_classical_kerov_polynomials(k):
    assert kerov_polynomial(k, 1) == CLASSICAL[k]


@pytest.mark.parametrize("n", range(1, 10))
def test_alpha_two_equals_the_enumeration(n):
    result = scan(n, threads=2)
    enumerated = {m.parts: rescaled_coefficient(n, m, raw) for m, raw in result.tallies.items()}
    assert kerov_polynomial(n, 2) == enumerated


@pytest.mark.parametrize("n", range(1, 11))
def test_one_black_vertex_column_is_the_linear_part(n):
    """[R_(w+1)] K_n = (-1)^(n+w) N_n(1, w): the oracle's single-part
    coefficients against the b = 1 cells of the one-face formula."""
    linear = {mu[0] - 1: c for mu, c in kerov_polynomial(n, 2).items() if len(mu) == 1}
    assert linear == {w: (-1) ** (n + w) * c for (b, w), c in one_face_counts(n).items() if b == 1}


def test_genus_one_stratum_of_k10_is_the_closed_form():
    """Doubled genus 2 is |mu| = n - 1.  Tier-1 does not scan n = 10, so
    this is what checks genus1 there against a route that shares no model
    with the scan or the closed forms."""
    stratum = {mu: c for mu, c in kerov_polynomial(10, 2).items() if sum(mu) == 9}
    assert stratum == {m.parts: c for m, c in partition_polynomial(10).terms.items()}


def test_zonal_k6_has_integer_coefficients():
    k6 = kerov_polynomial(6, 2)
    assert k6[(7,)] == 1
    assert (k6[(4,)], k6[(2,)]) == (-701, -1348)
    assert all(c.denominator == 1 for c in k6.values())
