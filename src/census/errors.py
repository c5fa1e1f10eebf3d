"""Error taxonomy shared by all census modules.

Every domain failure raised on purpose derives from CensusError so the
command line front end can map it to a single exit code and print the
error name verbatim.
"""


class CensusError(Exception):
    """Base class for every domain error raised by this package."""


class SubstitutionToZeroPole(CensusError):
    """A substitution made a denominator atom vanish identically."""


class ExponentOverflow(CensusError):
    """A monomial exponent left the packed field range |e| < 2**22."""


class PoleArgument(CensusError):
    """A zeta-type factor was requested at an argument where it has a pole."""


class NotUnitConstantTerm(CensusError):
    """Series logarithm of a series whose constant term is not 1."""


class NotAugmented(CensusError):
    """Plethystic exponential of a series outside the augmentation ideal."""


class NotWeil(CensusError):
    """Point counts are inconsistent with a curve (|sigma| != sqrt(q))."""


class HigherOrderPole(CensusError):
    """A chain residue met a pole that is not structurally simple."""


class NotPolynomialAfterClearing(CensusError):
    """(1 - z^r) times the rank-r generating function kept a z-denominator."""


class NegativeBettiCoefficient(CensusError):
    """The Poincare specialization produced a negative or non-integer coefficient."""


class IdentityViolation(CensusError):
    """An internal cross-check identity failed; indicates an engine bug."""


class UsageError(CensusError):
    """Invalid command line invocation."""
