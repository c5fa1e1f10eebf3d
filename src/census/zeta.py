"""Zeta-function ingredients over a genus-g curve kept symbolic: the
numerator roots live in formal variables a1..a{2g} (written alpha below)
with q an independent variable, so every value is a FactoredRat.

Also: ingestion of actual point counts into Weil numbers, and the two
volume quantities used by the census identities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotWeil, PoleArgument
from .partitions import box_stats
from .ring import (
    FAMILY_SIZE,
    FactoredRat,
    Monomial,
    ONE_MONOMIAL,
    SparsePoly,
    atom_inverse,
)
from .series import BiSeries, pleth_exp

MAX_GENUS = FAMILY_SIZE // 2    # the ring's a-variables, two per genus


def alpha_name(i):
    return "a%d" % i


def alpha_names(g):
    """a1..a{2g}; past MAX_GENUS a ValueError, before any product forms."""
    if g > MAX_GENUS:
        raise ValueError("genus %d is above the limit %d" % (g, MAX_GENUS))
    return [alpha_name(i) for i in range(1, 2 * g + 1)]


def one_minus(coeff, monomial):
    """FactoredRat 1 - coeff*monomial."""
    terms = {ONE_MONOMIAL: 1}
    c = Fraction(coeff)
    if monomial.is_one():
        terms[ONE_MONOMIAL] = 1 - c
    else:
        terms[monomial] = -c
    return FactoredRat(SparsePoly(terms))


def pair_reduce(f, g):
    """Rewrite modulo the Weil relations a_{2i-1}·a_{2i} = q.

    Every even-indexed root is replaced by q/a_{2i-1}, leaving a fraction
    in the g odd roots and q.  Cancellations between numerator-root
    products and q-powers only become visible in these coordinates, so
    pole analysis must happen after this reduction.

    The g substitutions are one monomial map, a_{2i}^e -> q^e a_{2i-1}^-e,
    made in one pass and followed by one normalize (by normalize alone
    when no even root occurs).  Substituting one root at a time with a
    normalize after each gives the same bytes where there is no
    denominator, since the content monomial is unique.  With atoms, the
    earlier normalizes could in principle cancel atoms that share a
    factor in another order; the sha256 pins of J_λ, the λ-terms and the
    oracle, and the byte comparisons against the one-root-at-a-time
    reference in the tests, hold.
    """
    return f.substitute_all([
        (alpha_name(2 * i), 1, Monomial.of(q=1, **{alpha_name(2 * i - 1): -1}))
        for i in range(1, g + 1)])


def _check_not_unit(coeff, monomial):
    if monomial.is_one() and Fraction(coeff) == 1:
        raise PoleArgument("zeta denominator atom vanishes identically")


def zeta_at(g, coeff, monomial):
    """ζ at the argument coeff*monomial:
    ∏_i (1-α_i·arg) / ((1-arg)(1-q·arg))."""
    c = Fraction(coeff)
    if c == 0:
        return FactoredRat.one()
    q_shape = monomial * Monomial.of(q=1)
    _check_not_unit(c, monomial)
    _check_not_unit(c, q_shape)
    out = atom_inverse(c, monomial) * atom_inverse(c, q_shape)
    for name in alpha_names(g):
        out = out * one_minus(c, monomial * Monomial.of(**{name: 1}))
    return out.normalize()


def zeta_value(g, u, v):
    """ζ(q^{-u} z^v) as a FactoredRat."""
    if v < 0:
        raise ValueError("v must be nonnegative")
    return zeta_at(g, 1, Monomial.of(q=-u, z=v))


def zeta_star(g, u, v):
    """ζ(q^{-u} z^v) with the removable point (u,v)=(1,0) filled in.

    At (1,0) the value is q^{-g} ∏_i (1-α_i) / (1-q^{-1}); the product of
    the α-pair relations gives ∏α_i = q^g, which eliminates α-inverses.
    """
    if (u, v) != (1, 0):
        return zeta_value(g, u, v)
    out = FactoredRat.from_monomial(Monomial.of(q=-g))
    out = out * atom_inverse(1, Monomial.of(q=-1))
    for name in alpha_names(g):
        out = out * one_minus(1, Monomial.of(**{name: 1}))
    return out.normalize()


def j_factor(g, lam):
    """J_λ = ∏ over boxes of ζ*(q^{-1-leg} z^{arm}), modulo the Weil
    relations: each factor is pair-reduced before multiplying, which keeps
    the intermediate numerators in g roots instead of 2g."""
    out = FactoredRat.one()
    for arm, leg in box_stats(lam):
        out = out * pair_reduce(zeta_star(g, 1 + leg, arm), g)
    return out.normalize()


@dataclass(frozen=True)
class CurveData:
    """A concrete curve over F_q: counts, zeta numerator, Weil numbers."""

    q: int
    genus: int
    point_counts: tuple
    numerator: tuple        # a_0..a_{2g}, integers
    weil_numbers: tuple     # σ_1..σ_{2g}, complex, σ_{2i-1}σ_{2i} = q

    def assignment(self):
        """Numeric substitution {a_i: σ_i, q: q} honoring the pair relation."""
        out = {"q": complex(self.q)}
        for i, s in enumerate(self.weil_numbers, start=1):
            out[alpha_name(i)] = s
        return out

    def count(self, l):
        """|X(F_{q^l})| recomputed from the Weil numbers (numeric)."""
        return (1 + self.q ** l
                - sum(s ** l for s in self.weil_numbers)).real

    @staticmethod
    def from_dict(obj):
        try:
            q, genus, counts = obj["q"], obj["genus"], obj["point_counts"]
        except (KeyError, TypeError) as exc:
            raise ValueError("curve input needs q, genus, point_counts: %s"
                             % (exc,))
        if type(q) is not int:
            raise ValueError("curve q must be a JSON integer")
        if type(genus) is not int or genus < 0:
            raise ValueError("curve genus must be a JSON integer >= 0")
        if type(counts) is not list or any(type(n) is not int for n in counts):
            raise ValueError("curve point_counts must be JSON integers")
        return weil_from_counts(q, counts, genus=genus)


_WEIL_TOL = 1e-6
_ROOT_TOL = 1e-14     # _simple_roots' stopping step, a share of its radius


def _real_weil_polynomial(a, q):
    """h, lowest degree first, with x^{2g}P(1/x) = x^g h(x + q/x) for the
    numerator P = Σ a_k T^k: the functional equation pairs a_{g-j} x^j
    with a_{g+j} x^{-j} = a_{g-j} q^j x^{-j}, and x^j + (q/x)^j = D_j(t)
    for D_0 = 2, D_1 = t, D_{j+1} = t D_j - q D_{j-1}."""
    g = len(a) // 2
    h = [a[g]] + [0] * g
    prev, cur = [2], [0, 1]
    for j in range(1, g + 1):
        for i, c in enumerate(cur):
            h[i] += a[g - j] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= q * c
        prev, cur = cur, nxt
    return h


def _divmod(f, d):
    """Quotient and remainder of f by d over Fraction, lowest degree
    first; the remainder carries no zero leading coefficients."""
    f = list(f)
    n = len(d) - 1
    quot = []
    for i in range(len(f) - 1, n - 1, -1):
        c = Fraction(f[i]) / d[-1]
        quot.append(c)
        for j, dj in enumerate(d):
            f[i - n + j] -= c * dj
    rem = f[:n]
    while rem and not rem[-1]:
        rem.pop()
    return quot[::-1], rem


def _gcd(f, d):
    """The monic greatest common divisor of f and d over Fraction."""
    while d:
        f, d = d, _divmod(f, d)[1]
    return [Fraction(c) / f[-1] for c in f]


def _squarefree_levels(h):
    """[s_1, s_2, ...] for a monic h: s_k is monic with the roots of h of
    multiplicity at least k, each once, so h = s_1 s_2 ... exactly."""
    levels = []
    while len(h) > 1:
        d = _gcd(h, [i * c for i, c in enumerate(h)][1:])
        levels.append(_divmod(h, d)[0])
        h = d
    return levels


def _simple_roots(f):
    """The roots of a monic f with simple roots, lowest degree first, by
    Durand–Kerner sweeps in complex floats from a circle that holds every
    root (twice Fujiwara's bound), until no root moves by _ROOT_TOL of
    that radius, or for at most 100 sweeps."""
    c = [complex(x) for x in f]
    n = len(c) - 1
    if n < 2:
        return [-c[0]] if n else []
    radius = 2 * max(abs(c[n - k]) ** (1 / k) for k in range(1, n + 1))
    z = [cmath.rect(radius, 0.4 + 2 * math.pi * k / n) for k in range(n)]
    for _ in range(100):
        step = 0.0
        for k, zk in enumerate(z):
            num = 0j
            for x in reversed(c):
                num = num * zk + x
            den = 1
            for j, zj in enumerate(z):
                if j != k:
                    den *= zk - zj
            w = num / den
            z[k] = zk - w
            step = max(step, abs(w))
        if step <= _ROOT_TOL * radius:
            break
    return z


def weil_from_counts(q, counts, genus=None):
    """Build CurveData from |X(F_{q^l})| for l = 1..g.

    Exact Newton identities produce the numerator; the functional equation
    fills the top half.  Each root t of the real Weil polynomial h gives
    the pair σ, q/σ of roots of x² - t·x + q.  h is split exactly into
    squarefree levels, so a repeated root keeps its multiplicity; only
    the simple roots of each level are found numerically.  Every σ is
    checked against |σ| = √q.
    """
    counts = tuple(int(n) for n in counts)
    g = len(counts)
    if genus is not None and genus != g:
        raise ValueError("genus %d needs exactly %d point counts, got %d"
                         % (genus, genus, len(counts)))
    if q < 2:
        raise ValueError("q must be at least 2")
    if any(n < 0 for n in counts):
        raise ValueError("point counts must be nonnegative")

    # power sums of the Weil numbers
    p = [0] + [1 + q ** l - counts[l - 1] for l in range(1, g + 1)]
    e = [Fraction(1)] + [Fraction(0)] * g
    for l in range(1, g + 1):
        acc = Fraction(0)
        for i in range(1, l + 1):
            acc += (-1) ** (i - 1) * e[l - i] * p[i]
        e[l] = acc / l
    a = [0] * (2 * g + 1)
    a[0] = 1
    for k in range(1, g + 1):
        ak = (-1) ** k * e[k]
        if ak.denominator != 1:
            raise NotWeil("counts give a non-integer zeta numerator")
        a[k] = int(ak)
    for k in range(0, g):
        a[2 * g - k] = q ** (g - k) * a[k]

    if g == 0:
        return CurveData(q, 0, counts, (1,), ())

    try:
        sigmas = []
        for level in _squarefree_levels(_real_weil_polynomial(a, q)):
            # a root t = ±2√q gives the real pair σ = q/σ = t/2, taken
            # apart: the square root below would lose half its digits
            edge = _gcd(level, [-4 * q, 0, 1])
            for t in _simple_roots(edge):
                sigmas += (t / 2, t / 2)
            for t in _simple_roots(_divmod(level, edge)[0]):
                # the roots of x^2 - t x + q, larger modulus first
                d = cmath.sqrt(t * t - 4 * q)
                s = (t + d if (t.conjugate() * d).real >= 0 else t - d) / 2
                sigmas += (s, q / s)
        sq = math.sqrt(q)
        if not all(map(cmath.isfinite, sigmas)):
            raise OverflowError
    except OverflowError:
        raise ValueError("q and the point counts are too large for numeric "
                         "root extraction") from None
    for s in sigmas:
        if abs(abs(s) - sq) > _WEIL_TOL * sq:
            raise NotWeil("|σ| = %.8f differs from √q = %.8f"
                          % (abs(s), sq))

    # the loop builds the σ as pairs; put the lower (re, im) first in
    # each, and order the pairs by their first members
    def key(s):
        return round(s.real, 9), round(s.imag, 9)

    pairs = [sorted(sigmas[i:i + 2], key=key) for i in range(0, 2 * g, 2)]
    pairs.sort(key=lambda pair: key(pair[0]))
    return CurveData(q, g, counts, tuple(a),
                     tuple(s for pair in pairs for s in pair))


def siegel_volume(g, r):
    """q^{(g-1)(r²-1)} ∏(1-α_i) / (q-1) · ∏_{k=2}^{r} ζ(q^{-k}), modulo
    the Weil relations: as in j_factor, each factor is pair-reduced before
    multiplying."""
    if r < 1:
        raise ValueError("rank must be positive")
    out = FactoredRat.from_monomial(Monomial.of(q=(g - 1) * (r * r - 1)))
    for name in alpha_names(g):
        out = out * pair_reduce(one_minus(1, Monomial.of(**{name: 1})), g)
    # 1/(q-1) = -1/(1-q)
    out = out * atom_inverse(1, Monomial.of(q=1)).mul_scalar(-1)
    for k in range(2, r + 1):
        out = out * pair_reduce(zeta_at(g, 1, Monomial.of(q=-k)), g)
    return out.normalize()


def torsion_volume_series(g, L):
    """Exp((1 - Σα_i + q) s / (q-1)) truncated at s^L."""
    if L < 1:
        raise ValueError("truncation order must be positive")
    terms = {ONE_MONOMIAL: 1, Monomial.of(q=1): 1}
    for name in alpha_names(g):
        terms[Monomial.of(**{name: 1})] = -1
    c1 = FactoredRat(SparsePoly(terms))
    c1 = c1 * atom_inverse(1, Monomial.of(q=1)).mul_scalar(-1)
    coeffs = [FactoredRat.zero()] * (L + 1)
    coeffs[1] = c1.normalize()
    return pleth_exp(BiSeries("s", L, coeffs))
