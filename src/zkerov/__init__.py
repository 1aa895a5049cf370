"""Exact enumeration of genus-stratified zonal Kerov polynomial coefficients.

The package computes coefficients two independent ways (exhaustive
pair-gluing enumeration of a labeled 2n-gon, and genus-one closed forms),
cross-checks them, and runs a census of the small reduced maps the
construction is built from.
"""

from .admissibility import (
    BipartiteGraph,
    Monomial,
    bipartite_graph,
    candidate_colorings,
    enumerate_q,
    hall_condition,
    orientation_walk_condition,
)
from .closedform import (
    ClosedFormResult,
    partition_coefficient,
    partition_polynomial,
    family_sum_polynomial,
    symmetrized_polynomial,
)
from .engine import (
    GenusPolynomial,
    InternalConsistencyError,
    ScanResult,
    rescaled_coefficient,
    rescaled_coefficient_exact,
    scan,
    strata,
)
from .polygon import (
    GluedMap,
    Gluing,
    double_factorial,
    enumerate_gluings,
    enumerate_twisted_gluings,
    glue,
    reflect_gluing,
    rotate_gluing,
)

__version__ = "0.1.0"
