"""Truncated series in one main variable (usually T) with FactoredRat
coefficients rational in z, plus the plethystic exponential and logarithm.

LazyLog holds log F and grows it one degree at a time, on demand: it
solves F·L' = F' (O(n²) coefficient products through degree n, one sum
per coefficient) for M_n = n·L_n, so a caller that keeps one can extend
it instead of starting again.  [T^n] of the plethystic Log is read from
it alone, as Σ_{k|n} μ(k)/k ψ_k(L_{n/k}) = Σ_{k|n} μ(k)/n ψ_k(M_{n/k})
in one sum.  The exponential sums the powers of its argument.

The series oracle's truncated z-series mode lives in LazyLog, _times and
z_truncate_frac only.  F_j stays rational in z as its source gives it;
every M_k, n·F_n and Adams image is a z-polynomial of degree <= D with
z-free denominators.  A product M_k·F_{n-k} multiplies only numerator
terms within D (a z-atom has a positive z-exponent, so expanding it only
raises degrees), then expands F's z-atoms and normalizes once; an Adams
operation drops what it lifts past D, so truncation commutes with the Log.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAugmented, NotUnitConstantTerm
from .ring import (FactoredRat, SparsePoly, _SHIFT, _check_codes,
                   _clean, _slot, add_many)

__all__ = [
    "BiSeries",
    "LazyLog",
    "frac_to_series",
    "mobius",
    "pleth_exp",
    "pleth_log",
    "series_exp",
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
    denominator atom involving var.
    """
    f = f.normalize()
    return _truncate(f.numerator.split(var), f.denominator, bound, var)


def _truncate(by_degree, atoms, bound, var="z"):
    """z_truncate_frac of the numerator {var-degree: {code without var:
    coefficient}}, changed in place, over atoms that need not be
    normalized.  Each var-atom (1 - c·m) divides it as a power series,
    Q = N + c·m·Q, one var-degree at a time from the bottom, so no term
    past bound is ever formed; the result is normalized once."""
    low = min(by_degree, default=bound + 1)
    if low > bound:
        return FactoredRat.zero()
    keep = []
    sh = _SHIFT[_slot(var)]
    for atom in atoms:
        e = atom.shape.exponent(var)
        if not e:
            keep.append(atom)
            continue
        if e < 0:
            raise ValueError("denominator atom %r not expandable in %s"
                             % (atom, var))
        rest, c = atom.shape.code - (e << sh), atom.constant_fast
        for k in range(low + e, bound + 1):
            below = by_degree.get(k - e)
            if below:
                blk = by_degree.setdefault(k, {})
                get = blk.get
                for m, cf in below.items():
                    m += rest
                    blk[m] = get(m, 0) + c * cf
    num = {m + (k << sh): _clean(cf) for k, blk in by_degree.items()
           if k <= bound for m, cf in blk.items() if cf}
    _check_codes(num)
    return FactoredRat(SparsePoly._raw(num), keep).normalize()


def z_decompose(f, var="z"):
    """Split a var-polynomial FactoredRat into {var-degree: coefficient}.

    Denominator atoms must be free of var; Laurent (negative) degrees are
    allowed.
    """
    f = f.normalize()
    if f.is_zero():
        return {}
    for atom in f.denominator:
        if atom.shape.exponent(var):
            raise ValueError("denominator involves %s: %r" % (var, atom))
    return {d: FactoredRat(SparsePoly._raw(terms), f.denominator).normalize()
            for d, terms in f.numerator.split(var).items()}


def frac_to_series(f, var, order):
    """Power-series expansion of a FactoredRat regular at var=0."""
    parts = z_decompose(z_truncate_frac(f, order, var), var)
    if any(d < 0 for d in parts):
        raise ValueError("%r has a pole at %s=0" % (f, var))
    return BiSeries(var, order,
                    [parts.get(j, FactoredRat.zero())
                     for j in range(order + 1)])


def _snap(f, z_order):
    """Normalize f, or in the z-truncated mode truncate it to z_order."""
    if z_order is None:
        return f.normalize()
    return z_truncate_frac(f, z_order)


def _times(a, b, z_order):
    """a * b; in the z-truncated mode trunc(a * b): only the numerator
    terms of z-degrees i + j <= z_order are multiplied, then the z-atoms
    of both are expanded (_truncate)."""
    if z_order is None:
        return a * b
    right = sorted(b.numerator.split("z").items())
    blocks = {}
    for i, left in a.numerator.split("z").items():
        for j, blk in right:
            if i + j > z_order:
                break
            out = blocks.setdefault(i + j, {})
            get = out.get
            for mb, cb in blk.items():
                for ma, ca in left.items():
                    m = ma + mb
                    out[m] = get(m, 0) + ca * cb
    return _truncate(blocks, a.denominator + b.denominator, z_order)


class BiSeries:
    """Series Σ c_j * var^j with FactoredRat coefficients, exact through
    degree `order`."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var, order, coeffs):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("expected %d coefficients, got %d"
                             % (order + 1, len(coeffs)))
        self.var = var
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, var, order):
        return cls(var, order, [FactoredRat.zero()] * (order + 1))

    @classmethod
    def one(cls, var, order):
        return cls(var, order,
                   [FactoredRat.one()] + [FactoredRat.zero()] * order)

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
        return min(self.order, other.order)

    def __add__(self, other):
        n = self._align(other)
        return BiSeries(self.var, n,
                        [self.coeffs[j] + other.coeffs[j]
                         for j in range(n + 1)])

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
            out.append(acc)
        return BiSeries(self.var, n, out)

    def mul_scalar(self, c):
        return BiSeries(self.var, self.order,
                        [f.mul_scalar(c) for f in self.coeffs])

    def adams(self, k):
        """psi_k: every variable v (including the series variable) -> v^k."""
        if k < 1:
            raise ValueError("adams index must be >= 1")
        out = [FactoredRat.zero()] * (self.order + 1)
        for j, c in enumerate(self.coeffs):
            if j * k > self.order:
                break
            if not c.is_zero():
                out[j * k] = c.adams(k).normalize()
        return BiSeries(self.var, self.order, out)

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (self.var == other.var and self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    __hash__ = None

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append("(%r)*%s^%d" % (c, self.var, j))
        body = " + ".join(parts) if parts else "0"
        return "BiSeries[%s^<=%d](%s)" % (self.var, self.order, body)


def _check_augmented(f):
    if not f.coeffs[0].is_zero():
        raise NotAugmented("constant term %r is not in the augmentation ideal"
                           % (f.coeffs[0],))


def _check_unit(f):
    if f.coeffs[0] != FactoredRat.one():
        raise NotUnitConstantTerm("constant term %r is not 1"
                                  % (f.coeffs[0],))


def series_exp(f):
    """Ordinary exponential of an augmented series, exact coefficients."""
    _check_augmented(f)
    result = BiSeries.one(f.var, f.order)
    power = result
    coef = Fraction(1)
    for m in range(1, f.order + 1):
        power = power * f
        if power.is_zero():
            break
        coef /= m
        result = result + power.mul_scalar(coef)
    return result


class LazyLog:
    """log F for F = Σ_j F_j x^j with F_0 = 1, grown one x-degree at a time
    on demand, and the coefficients of Log F read from it.  source(j)
    gives F_j, called once per j in increasing order.  With z_order = D,
    the oracle's truncated mode, which lives here only, F_j stays rational
    in z, coefficient(j) and n·F_n read trunc(F_j), and every M_k·F_{n−k}
    and Adams image is truncated past D (_times, _snap).  adams(f, k) is
    ψ_k on a coefficient, the ring's FactoredRat.adams unless the
    coefficients are in coordinates that ψ_k does not just raise to the
    k-th power."""

    __slots__ = ("z_order", "_source", "_adams", "_fs", "_ts", "_ms")

    def __init__(self, source, z_order=None, adams=FactoredRat.adams):
        self.z_order = z_order
        self._source = source
        self._adams = adams
        self._fs = [source(0)]
        self._ts = self._fs if z_order is None else self._fs[:]
        self._ms = [None]

    def coefficient(self, j):
        """F_j; in the truncated mode trunc(F_j)."""
        fs, ts = self._fs, self._ts
        while len(fs) <= j:
            fs.append(self._source(len(fs)))
            if ts is not fs:
                ts.append(z_truncate_frac(fs[-1], self.z_order))
        return ts[j]

    def _m(self, n):
        """M_n = n·L_n for n >= 1, by M_n = n·F_n − Σ_{0<k<n} M_k·F_{n−k},
        so every scalar is an integer; M_n of several parts is one add_many."""
        ms, fs = self._ms, self._fs
        while len(ms) <= n:
            m = len(ms)
            parts = [self.coefficient(m).mul_scalar(m)]
            for k in range(1, m):
                a, b = ms[k], fs[m - k]
                if not (a.is_zero() or b.is_zero()):
                    parts.append(-_times(a, b, self.z_order))
            ms.append(add_many(parts) if len(parts) > 1 else parts[0])
        return ms[n]

    def pleth_coefficient(self, n):
        """[x^n] Log F = [x^n] Σ_k μ(k)/k ψ_k(log F), as one add_many.

        Only the k dividing n reach x^n, so this is
        Σ_{k|n} μ(k)/n ψ_k(M_{n/k}) and reads M_1..M_n alone; at n = 0
        it is 0.
        """
        parts = []
        for k in range(1, n + 1):
            if n % k:
                continue
            mu = mobius(k)
            c = self._m(n // k)
            if mu and not c.is_zero():
                parts.append(_snap(self._adams(c, k), self.z_order)
                             .mul_scalar(Fraction(mu, n)))
        return add_many(parts)


def pleth_exp(f):
    """Exp(f) = exp(Σ_k ψ_k(f)/k) for f in the augmentation ideal; ψ_k(f)
    survives truncation only while k stays within the order."""
    _check_augmented(f)
    acc = BiSeries.zero(f.var, f.order)
    for k in range(1, f.order + 1):
        acc = acc + f.adams(k).mul_scalar(Fraction(1, k))
    return series_exp(acc)


def pleth_log(f):
    """Log(f) = Σ_k μ(k)/k ψ_k(log f) for f with constant term 1, one
    T-degree at a time (LazyLog.pleth_coefficient)."""
    _check_unit(f)
    log = LazyLog(f.coeffs.__getitem__)
    return BiSeries(f.var, f.order,
                    [log.pleth_coefficient(n) for n in range(f.order + 1)])
