"""Exact census of geometrically indecomposable bundles on curves.

Computes the universal counting polynomials A(g, r, d) in the Weil
coordinates of a genus-g curve, together with the derived Higgs-moduli
point counts, Poincare polynomials, and constant-term invariants.
"""

from .errors import (CensusError, ExponentOverflow, HigherOrderPole,
                     IdentityViolation, NegativeBettiCoefficient, NotAugmented,
                     NotPolynomialAfterClearing, NotUnitConstantTerm, NotWeil,
                     PoleArgument, SubstitutionToZeroPole, UsageError)
from .partitions import Partition, pairing, partitions_up_to
from .pipeline import (ENGINE_VERSION, KacResult, RegularityReport,
                       betti_polynomial, check_identities, constant_term,
                       count_points, degree_class_sums, identity_report,
                       kac_polynomial, kac_rational, kac_series_oracle,
                       latex_value, lift_paired, regularity_report,
                       rhs_series)
from .ring import FactoredRat, Monomial, SparsePoly
from .zeta import CurveData, pair_reduce, siegel_volume, torsion_volume_series, \
    weil_from_counts

__version__ = "0.1.0"

__all__ = [
    "CensusError", "CurveData", "ENGINE_VERSION", "ExponentOverflow",
    "FactoredRat", "HigherOrderPole", "IdentityViolation", "KacResult",
    "Monomial",
    "NegativeBettiCoefficient", "NotAugmented", "NotPolynomialAfterClearing",
    "NotUnitConstantTerm", "NotWeil", "Partition", "PoleArgument",
    "RegularityReport", "SparsePoly",
    "SubstitutionToZeroPole", "UsageError", "betti_polynomial",
    "check_identities", "constant_term", "count_points", "degree_class_sums",
    "identity_report", "kac_polynomial", "kac_rational", "kac_series_oracle",
    "latex_value", "lift_paired", "pair_reduce", "pairing",
    "partitions_up_to", "regularity_report", "rhs_series",
    "siegel_volume", "torsion_volume_series", "weil_from_counts",
]
