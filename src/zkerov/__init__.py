"""Exact enumeration of genus-stratified zonal Kerov polynomial coefficients.

The package computes coefficients two independent ways (exhaustive
pair-gluing enumeration of a labeled 2n-gon, and genus-one closed forms),
cross-checks them, and runs a census of the small reduced maps the
construction is built from.
"""

from .admissibility import Monomial
from .engine import (
    GenusPolynomial,
    InternalConsistencyError,
    ScanResult,
    rescaled_coefficient,
    scan,
    strata,
)

__version__ = "0.1.0"
