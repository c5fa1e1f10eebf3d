"""Value builders that only the tests use."""

from census.ring import ONE_MONOMIAL, FactoredRat, Monomial, atom_inverse
from census.series import BiSeries, z_truncate_frac


def geometric(constant=1, **exponents):
    """1/(1 - constant*monomial(**exponents))."""
    return atom_inverse(constant, Monomial(exponents))


def const(c):
    """The constant FactoredRat c."""
    return FactoredRat.from_monomial(ONE_MONOMIAL, c)


def series(var, coeffs, z_order=None):
    """The BiSeries Σ coeffs[j] var^j, exact through len(coeffs) - 1."""
    return BiSeries(var, len(coeffs) - 1, coeffs, z_order)


def truncate_z(f, D):
    """f in (or re-truncated within) the z-polynomial mode of degree D."""
    return BiSeries(f.var, f.order, [z_truncate_frac(c, D) for c in f.coeffs],
                    D)
