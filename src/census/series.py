"""Truncated series in one main variable (usually T) with FactoredRat
coefficients, plus the plethystic exponential and logarithm.

Coefficients may be rational in z (the default) or truncated z-polynomials
of degree <= z_order; the second mode re-truncates after every product so
that truncation commutes with all the series operations.

The logarithm solves F·L' = F' one coefficient at a time (O(order²)
coefficient products, one sum per coefficient); the exponential sums the
powers of its argument.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAugmented, NotUnitConstantTerm
from .ring import (FactoredRat, Monomial, ONE_MONOMIAL, SparsePoly,
                   _read, _slot, add_many)

__all__ = [
    "BiSeries",
    "frac_to_series",
    "mobius",
    "pleth_exp",
    "pleth_log",
    "series_exp",
    "series_log",
    "z_decompose",
    "z_truncate_frac",
]


def mobius(k):
    if k < 1:
        raise ValueError("mobius argument must be positive")
    out = 1
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            out = -out
        d += 1
    if k > 1:
        out = -out
    return out


def _poly_drop_high(poly, var, dmax):
    slot = _slot(var)
    return SparsePoly._raw({m: c for m, c in poly.terms.items()
                            if _read(m, slot) <= dmax})


def z_truncate_frac(f, bound, var="z"):
    """Drop everything of var-degree > bound, expanding var-denominators.

    The result agrees with f through var-degree bound and carries no
    denominator atom involving var.
    """
    f = f.normalize()
    if f.is_zero():
        return f
    keep = []
    expand = []
    for atom in f.denominator:
        if atom.shape.exponent(var):
            expand.append(atom)
        else:
            keep.append(atom)
    az = f.prefactor.exponent(var)
    slot = _slot(var)
    low = min(_read(m, slot) for m in f.numerator.terms) + az
    if low > bound:
        return FactoredRat.zero()
    num = _poly_drop_high(f.numerator, var, bound - az)
    for atom in expand:
        e = atom.shape.exponent(var)
        if e <= 0:
            raise ValueError("denominator atom %r not expandable in %s"
                             % (atom, var))
        # each geometric factor has unit constant term, so the lowest
        # var-degree of the running product never drops below `low`
        kmax = (bound - low) // e
        geom = {ONE_MONOMIAL: 1}
        mk = ONE_MONOMIAL
        ck = 1
        for _ in range(kmax):
            mk = mk * atom.shape
            ck = ck * atom.constant
            geom[mk] = geom.get(mk, 0) + ck
        num = _poly_drop_high(num * SparsePoly(geom), var, bound - az)
    return FactoredRat(f.prefactor, num, tuple(keep)).normalize()


def z_decompose(f, var="z"):
    """Split a var-polynomial FactoredRat into {var-degree: coefficient}.

    Denominator atoms must be free of var; Laurent (negative) degrees from
    the prefactor are allowed.
    """
    f = f.normalize()
    if f.is_zero():
        return {}
    for atom in f.denominator:
        if atom.shape.exponent(var):
            raise ValueError("denominator involves %s: %r" % (var, atom))
    az = f.prefactor.exponent(var)
    base = f.prefactor.without(var)
    return {az + d: FactoredRat(base, SparsePoly._raw(terms),
                                f.denominator).normalize()
            for d, terms in f.numerator.split(var).items()}


def frac_to_series(f, var, order, z_order=None):
    """Power-series expansion of a FactoredRat regular at var=0."""
    parts = z_decompose(z_truncate_frac(f, order, var), var)
    if any(d < 0 for d in parts):
        raise ValueError("%r has a pole at %s=0" % (f, var))
    return BiSeries(var, order,
                    [parts.get(j, FactoredRat.zero())
                     for j in range(order + 1)], z_order)


class BiSeries:
    """Series Σ c_j * var^j, exact through degree `order`.

    z_order=None means coefficients are arbitrary FactoredRat (rational in
    z); an integer D means every coefficient is kept as a z-polynomial of
    degree <= D and products are re-truncated.
    """

    __slots__ = ("var", "order", "z_order", "coeffs")

    def __init__(self, var, order, coeffs, z_order=None):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("expected %d coefficients, got %d"
                             % (order + 1, len(coeffs)))
        self.var = var
        self.order = order
        self.z_order = z_order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, var, order, z_order=None):
        return cls(var, order, [FactoredRat.zero()] * (order + 1), z_order)

    @classmethod
    def one(cls, var, order, z_order=None):
        return cls(var, order,
                   [FactoredRat.one()] + [FactoredRat.zero()] * order,
                   z_order)

    def coefficient(self, j):
        if not 0 <= j <= self.order:
            raise ValueError("coefficient %d outside truncation order %d"
                             % (j, self.order))
        return self.coeffs[j]

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def _align(self, other):
        if not isinstance(other, BiSeries):
            raise TypeError("expected BiSeries, got %r" % (other,))
        if self.var != other.var:
            raise ValueError("series variables differ: %s vs %s"
                             % (self.var, other.var))
        if self.z_order != other.z_order:
            raise ValueError("series z-truncation modes differ")
        return min(self.order, other.order)

    def _snap(self, f):
        if self.z_order is None:
            return f.normalize()
        return z_truncate_frac(f, self.z_order)

    def __add__(self, other):
        n = self._align(other)
        return BiSeries(self.var, n,
                        [self.coeffs[j] + other.coeffs[j]
                         for j in range(n + 1)], self.z_order)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BiSeries(self.var, self.order, [-c for c in self.coeffs],
                        self.z_order)

    def __mul__(self, other):
        n = self._align(other)
        out = []
        for j in range(n + 1):
            acc = FactoredRat.zero()
            for i in range(j + 1):
                a = self.coeffs[i]
                b = other.coeffs[j - i]
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + a * b
            out.append(self._snap(acc))
        return BiSeries(self.var, n, out, self.z_order)

    def mul_scalar(self, c):
        return BiSeries(self.var, self.order,
                        [f.mul_scalar(c) for f in self.coeffs], self.z_order)

    def adams(self, k):
        """psi_k: every variable v (including the series variable) -> v^k."""
        if k < 1:
            raise ValueError("adams index must be >= 1")
        out = [FactoredRat.zero()] * (self.order + 1)
        for j, c in enumerate(self.coeffs):
            if j * k > self.order:
                break
            if not c.is_zero():
                out[j * k] = self._snap(c.adams(k))
        return BiSeries(self.var, self.order, out, self.z_order)

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.var == other.var and self.order == other.order
                and self.z_order == other.z_order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    __hash__ = None

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append("(%r)*%s^%d" % (c, self.var, j))
        body = " + ".join(parts) if parts else "0"
        return "BiSeries[%s^<=%d](%s)" % (self.var, self.order, body)


def _constant_part(f, z_order):
    """The piece of a coefficient that blocks augmentation: the whole
    coefficient in rational mode, its z-constant in truncated mode."""
    if z_order is None:
        return f.normalize()
    return z_truncate_frac(f, 0)


def _check_augmented(f):
    if not _constant_part(f.coeffs[0], f.z_order).is_zero():
        raise NotAugmented("constant term %r is not in the augmentation ideal"
                           % (f.coeffs[0],))


def _check_unit(f):
    if _constant_part(f.coeffs[0], f.z_order) != FactoredRat.one():
        raise NotUnitConstantTerm("constant term %r is not 1"
                                  % (f.coeffs[0],))


def _power_cap(f):
    # joint (main-variable, z) filtration: an augmented element raised to a
    # power beyond order + z_order truncates to zero
    return f.order + (f.z_order or 0) + 2


def series_exp(f):
    """Ordinary exponential of an augmented series, exact coefficients."""
    _check_augmented(f)
    result = BiSeries.one(f.var, f.order, f.z_order)
    power = result
    coef = Fraction(1)
    for m in range(1, _power_cap(f)):
        power = power * f
        if power.is_zero():
            break
        coef /= m
        result = result + power.mul_scalar(coef)
    return result


def _log_coeffs(coeffs, snap, inv0=None):
    """[L_0 = 0, L_1, ..., L_n] for L = log F, F = Σ F_j x^j, by the
    logarithmic-derivative recurrence n·F_0·L_n = n·F_n − Σ_{0<k<n} k·L_k·F_{n−k}.

    It runs on M_n = n·L_n, so every scalar is an integer until the final
    M_n/n.  inv0 is 1/F_0, or None when F_0 = 1; each M_n is one add_many,
    then snap.
    """
    ms = [None]
    for n in range(1, len(coeffs)):
        parts = [coeffs[n].mul_scalar(n)]
        for k in range(1, n):
            a, b = ms[k], coeffs[n - k]
            if not (a.is_zero() or b.is_zero()):
                parts.append(-(a * b))
        mn = add_many(parts)
        if inv0 is not None:
            mn = mn * inv0
        ms.append(snap(mn))
    return [FactoredRat.zero()] + [m.mul_scalar(Fraction(1, n))
                                   for n, m in enumerate(ms[1:], 1)]


def _z_log_and_inverse(f0, D):
    """(log f0, 1/f0) through z-degree D for a z-polynomial f0 with
    z-constant 1: f0 − 1 is nilpotent modulo z^(D+1), so both are finite
    z-polynomials.  The log is the recurrence of _log_coeffs run in z; the
    inverse is G_n = −Σ_{0<k<=n} c_k·G_{n−k}."""
    parts = z_decompose(z_truncate_frac(f0, D))
    c = [parts.get(j, FactoredRat.zero()) for j in range(D + 1)]
    inv = [FactoredRat.one()]
    for n in range(1, D + 1):
        inv.append(add_many([(c[k] * inv[n - k]).mul_scalar(-1)
                             for k in range(1, n + 1)
                             if not c[k].is_zero()]))

    def as_poly(coeffs):
        return add_many([c_j * FactoredRat.from_monomial(Monomial.of(z=j))
                         for j, c_j in enumerate(coeffs)])

    return as_poly(_log_coeffs(c, FactoredRat.normalize)), as_poly(inv)


def series_log(f):
    """Ordinary logarithm of a series with unit constant term.

    Solves F·L' = F' coefficientwise: n·F_0·L_n = n·F_n − Σ_{0<k<n}
    k·L_k·F_{n−k}, O(order²) coefficient products.  In rational mode
    F_0 = 1 exactly.  In the z-truncated mode F_0 may be 1 plus a
    z-positive part; then L_0 = log F_0 and 1/F_0 come from the same
    recurrence run in z (_z_log_and_inverse), once per call.
    """
    _check_unit(f)
    f0 = f.coeffs[0]
    if f.z_order is None or f0 == FactoredRat.one():
        log0, inv0 = FactoredRat.zero(), None
    else:
        log0, inv0 = _z_log_and_inverse(f0, f.z_order)
    logs = _log_coeffs(f.coeffs, f._snap, inv0)
    logs[0] = log0
    return BiSeries(f.var, f.order, logs, f.z_order)


def _adams_reach(f):
    # psi_k(f) survives truncation only while k stays within the main order
    # (for T-positive parts) or the z-order (for a z-positive constant term)
    if f.z_order is not None and not f.coeffs[0].is_zero():
        return max(f.order, f.z_order)
    return f.order

def pleth_exp(f):
    """Exp(f) = exp(Σ_k ψ_k(f)/k) for f in the augmentation ideal."""
    _check_augmented(f)
    acc = BiSeries.zero(f.var, f.order, f.z_order)
    for k in range(1, _adams_reach(f) + 1):
        acc = acc + f.adams(k).mul_scalar(Fraction(1, k))
    return series_exp(acc)


def pleth_log(f):
    """Log(f) = Σ_k μ(k)/k ψ_k(log f) for f with unit constant term."""
    g = series_log(f)
    acc = BiSeries.zero(f.var, f.order, f.z_order)
    for k in range(1, _adams_reach(g) + 1):
        mu = mobius(k)
        if mu:
            acc = acc + g.adams(k).mul_scalar(Fraction(mu, k))
    return acc
