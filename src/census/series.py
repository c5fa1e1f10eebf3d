"""Truncated series in one main variable (usually T) with FactoredRat
coefficients, plus the plethystic exponential and logarithm.

Coefficients may be rational in z (the default) or truncated z-polynomials
of degree <= z_order, whose denominators are free of z.  The second mode
forms no term past z_order: a product multiplies only the z-slices of
the numerators whose degrees sum within it (_times), z_truncate_frac
divides by each z-atom as a power series one z-degree at a time, and an
Adams operation drops what it lifts past the bound, so truncation
commutes with all the series operations.

LazyLog holds log F and grows it one degree at a time, on demand: it
solves F·L' = F' (O(n²) coefficient products through degree n, one sum
per coefficient) for M_n = n·L_n, so a caller that keeps one can extend
it instead of starting again.  [T^n] of the plethystic Log is read from
it alone, as Σ_{k|n} μ(k)/k ψ_k(L_{n/k}) = Σ_{k|n} μ(k)/n ψ_k(M_{n/k})
in one sum.  The exponential sums the powers of its argument.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAugmented, NotUnitConstantTerm
from .ring import (FactoredRat, Monomial, SparsePoly, _SHIFT, _check_codes,
                   _clean, _slot, add_many)

__all__ = [
    "BiSeries",
    "LazyLog",
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


def z_truncate_frac(f, bound, var="z"):
    """Drop everything of var-degree > bound, expanding var-denominators.

    The result agrees with f through var-degree bound and carries no
    denominator atom involving var.  The numerator is divided by each
    var-atom (1 - c·m) as a power series, Q = N + c·m·Q, one var-degree at
    a time from the bottom, so no term past bound is ever formed.
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
    sh = _SHIFT[_slot(var)]
    cap = bound - f.prefactor.exponent(var)
    slices = f.numerator.split(var)
    low = min(slices)
    if low > cap:
        return FactoredRat.zero()
    for atom in expand:
        e = atom.shape.exponent(var)
        if e <= 0:
            raise ValueError("denominator atom %r not expandable in %s"
                             % (atom, var))
        rest, c = atom.shape.code - (e << sh), atom.constant_fast
        for k in range(low + e, cap + 1):
            below = slices.get(k - e)
            if below:
                blk = slices.setdefault(k, {})
                get = blk.get
                for m, cf in below.items():
                    m += rest
                    blk[m] = get(m, 0) + c * cf
    num = {m + (k << sh): _clean(cf) for k, blk in slices.items()
           if k <= cap for m, cf in blk.items() if cf}
    _check_codes(num)
    return FactoredRat(f.prefactor, SparsePoly._raw(num),
                       tuple(keep)).normalize()


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


def _snap(f, z_order):
    """Normalize f, or in the z-truncated mode truncate it to z_order."""
    if z_order is None:
        return f.normalize()
    return z_truncate_frac(f, z_order)


def _times(a, b, z_order):
    """a * b; in the z-truncated mode only the z-slices i, j of the
    numerators with i + j <= z_order less the prefactor's z-exponent are
    multiplied, so no term past z_order is formed."""
    if z_order is None:
        return a * b
    pre = a.prefactor * b.prefactor
    cap = z_order - pre.exponent("z")
    sh = _SHIFT[_slot("z")]
    right = sorted(b.numerator.split("z").items())
    out = {}
    get = out.get
    for i, left in a.numerator.split("z").items():
        for j, blk in right:
            if i + j > cap:
                break
            shift = (i + j) << sh
            for mb, cb in blk.items():
                mb += shift
                for ma, ca in left.items():
                    m = ma + mb
                    out[m] = get(m, 0) + ca * cb
    _check_codes(out)
    num = SparsePoly._raw({m: _clean(c) for m, c in out.items() if c})
    return FactoredRat(pre, num, a.denominator + b.denominator).normalize()


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
                acc = acc + _times(a, b, self.z_order)
            out.append(acc)
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
                out[j * k] = _snap(c.adams(k), self.z_order)
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


class LazyLog:
    """log F for F = Σ_j F_j x^j, grown one x-degree at a time on demand,
    and the coefficients of Log F read from it.

    source(j) gives F_j, called once per j in increasing order.  F_0 = 1,
    or, in the z-truncated mode, inv0 = 1/F_0 and log0 = log F_0.
    """

    __slots__ = ("z_order", "_source", "_inv0", "_fs", "_ms", "_log0")

    def __init__(self, source, z_order=None, inv0=None, log0=None):
        self.z_order = z_order
        self._source = source
        self._inv0 = inv0
        self._fs = [source(0)]
        self._ms = [None]
        self._log0 = FactoredRat.zero() if log0 is None else log0

    def coefficient(self, j):
        """F_j."""
        while len(self._fs) <= j:
            self._fs.append(self._source(len(self._fs)))
        return self._fs[j]

    def _m(self, n):
        """M_n = n·L_n for n >= 1, by F_0·M_n = n·F_n − Σ_{0<k<n}
        M_k·F_{n−k}, so every scalar is an integer; each M_n is one
        add_many."""
        ms, fs = self._ms, self._fs
        while len(ms) <= n:
            m = len(ms)
            parts = [self.coefficient(m).mul_scalar(m)]
            for k in range(1, m):
                a, b = ms[k], fs[m - k]
                if not (a.is_zero() or b.is_zero()):
                    parts.append(-_times(a, b, self.z_order))
            mm = add_many(parts)
            if self._inv0 is not None:
                mm = _times(mm, self._inv0, self.z_order)
            ms.append(mm)
        return ms[n]

    def log(self, n):
        """L_n, the x^n coefficient of log F: L_0 = log F_0, else M_n/n."""
        if not n:
            return self._log0
        return self._m(n).mul_scalar(Fraction(1, n))

    def pleth_coefficient(self, n):
        """[x^n] Log F = [x^n] Σ_k μ(k)/k ψ_k(log F), as one add_many.

        For n >= 1 only the k dividing n reach x^n, so this is
        Σ_{k|n} μ(k)/n ψ_k(M_{n/k}) and reads M_1..M_n alone; at n = 0,
        ψ_k of the z-positive log F_0 truncates to zero past z_order.
        """
        if n:
            ks = [k for k in range(1, n + 1) if not n % k]
        else:
            ks = range(1, max(self.z_order or 0, 1) + 1)
        parts = []
        for k in ks:
            mu = mobius(k)
            c = self._m(n // k) if n else self._log0
            if mu and not c.is_zero():
                parts.append(_snap(c.adams(k), self.z_order)
                             .mul_scalar(Fraction(mu, n or k)))
        return add_many(parts)


def _z_log_and_inverse(f0, D):
    """(log f0, 1/f0) through z-degree D for a z-polynomial f0 with
    z-constant 1: f0 − 1 is nilpotent modulo z^(D+1), so both are finite
    z-polynomials, the log from the recurrence run in z and the inverse
    exp(−log f0)."""
    parts = z_decompose(z_truncate_frac(f0, D))
    log = series_log(BiSeries("z", D, [parts.get(j, FactoredRat.zero())
                                       for j in range(D + 1)]))

    def as_poly(s):
        return add_many([c_j * FactoredRat.from_monomial(Monomial.of(z=j))
                         for j, c_j in enumerate(s.coeffs)])

    return as_poly(log), as_poly(series_exp(-log))


def _lazy_log(f):
    """The LazyLog of a series with unit constant term."""
    _check_unit(f)
    if f.z_order is None or f.coeffs[0] == FactoredRat.one():
        return LazyLog(f.coeffs.__getitem__, f.z_order)
    log0, inv0 = _z_log_and_inverse(f.coeffs[0], f.z_order)
    return LazyLog(f.coeffs.__getitem__, f.z_order, inv0, log0)


def series_log(f):
    """Ordinary logarithm of a series with unit constant term.

    Solves F·L' = F' coefficientwise (LazyLog.log), O(order²)
    coefficient products.  In rational mode F_0 = 1 exactly.  In the
    z-truncated mode F_0 may be 1 plus a z-positive part; then
    L_0 = log F_0 and 1/F_0 come from _z_log_and_inverse, once per call.
    """
    log = _lazy_log(f)
    return BiSeries(f.var, f.order, [log.log(n) for n in range(f.order + 1)],
                    f.z_order)


def pleth_exp(f):
    """Exp(f) = exp(Σ_k ψ_k(f)/k) for f in the augmentation ideal."""
    _check_augmented(f)
    acc = BiSeries.zero(f.var, f.order, f.z_order)
    # ψ_k(f) survives truncation only while k stays within the main order
    # (T-positive parts) or the z-order (a z-positive constant term)
    for k in range(1, max(f.order, f.z_order or 0) + 1):
        acc = acc + f.adams(k).mul_scalar(Fraction(1, k))
    return series_exp(acc)


def pleth_log(f):
    """Log(f) = Σ_k μ(k)/k ψ_k(log f) for f with unit constant term, one
    T-degree at a time (LazyLog.pleth_coefficient)."""
    log = _lazy_log(f)
    return BiSeries(f.var, f.order,
                    [log.pleth_coefficient(n) for n in range(f.order + 1)],
                    f.z_order)
