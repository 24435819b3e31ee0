"""Verification toolkit for univalent functions whose reciprocal has
nonnegative Taylor coefficients.

The class under study: analytic f(z) = z + a2 z^2 + ... on the unit disk
with z/f(z) = 1 + sum_{n>=1} b_n z^n, all b_n >= 0, subject to the
weighted budget sum_{n>=2} (n-1) b_n <= lambda for a parameter
0 < lambda <= 1.  Membership, coefficient functionals, sharp bounds and
a constrained extremal search are implemented in the submodules:

series     exact truncated power series over Fraction
rootcheck  unit-disk nonvanishing test for real polynomials
model      members, the functional registry, extremal catalog
search     grid search, bound certificates, conjecture scan
cli        command line front end: argparse and every output shape
"""

from ucv.series import TruncatedSeries
from ucv.rootcheck import UnitPolynomial, min_root_modulus, nonvanishing_in_open_disk
from ucv.model import ClassMember, CoefficientReport, NonMember, extremal_catalog, validate
from ucv.search import BoundCertificate, SearchConfig, closed_form_bound, conjecture_scan, optimize, verify_bounds

__all__ = [
    "TruncatedSeries",
    "UnitPolynomial",
    "min_root_modulus",
    "nonvanishing_in_open_disk",
    "ClassMember",
    "CoefficientReport",
    "NonMember",
    "validate",
    "extremal_catalog",
    "SearchConfig",
    "BoundCertificate",
    "closed_form_bound",
    "optimize",
    "verify_bounds",
    "conjecture_scan",
]

__version__ = "0.1.0"
