"""Zeta-function ingredients over a genus-g curve kept symbolic: the
numerator roots live in formal variables a1..a{2g} (written alpha below)
with q an independent variable, so every value is a FactoredRat.

Also: the zeta-numerator coordinates e1..eg of W-invariant values, with
their Adams operations and their rewriting in the roots; ingestion of
actual point counts into a curve's integer zeta numerator, exact
evaluation of W-invariant values at a curve, and the two volume
quantities used by the census identities.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .errors import NotWeil, PoleArgument
from .partitions import box_stats
from .ring import (
    _SHIFT,
    FAMILY_SIZE,
    FactoredRat,
    Monomial,
    ONE_MONOMIAL,
    SparsePoly,
    _clean,
    _read,
    _scale,
    _slot,
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


# ---------------------------------------------------------------------------
# Zeta-numerator coordinates: a W-invariant value written in q and the
# coefficients c_1..c_g of P(u) = ∏_i (1 - α_i u) = Σ_k c_k u^k, held in the
# variables e1..eg.  c_0 = 1, and the functional equation gives
# c_{2g-k} = q^{g-k} c_k.

def coeff_name(j):
    return "e%d" % j


@lru_cache(maxsize=None)
def zeta_coefficients(g):
    """c_0..c_{2g} as polynomials in q and e1..eg."""
    alpha_names(g)  # the genus limit, met before anything is built
    low = [SparsePoly.one()] + [SparsePoly({Monomial.of(**{coeff_name(j): 1}): 1})
                                for j in range(1, g + 1)]
    return tuple(low + [low[k].mul_monomial(Monomial.of(q=g - k))
                        for k in range(g - 1, -1, -1)])


@lru_cache(maxsize=None)
def coefficient_power_sum(g, m):
    """p_m = Σ_i α_i^m, m >= 1, in q and e1..eg, by Newton's identities
    m c_m + Σ_{i=1}^{m} p_i c_{m-i} = 0, with c_k = 0 past 2g."""
    c = zeta_coefficients(g)
    out = c[m].mul_scalar(-m) if m <= 2 * g else SparsePoly.zero()
    for i in range(max(1, m - 2 * g), m):
        out = out - coefficient_power_sum(g, i) * c[m - i]
    return out


@lru_cache(maxsize=None)
def adams_coefficient(g, k, j, e=1):
    """ψ_k(c_j)^e in q and e1..eg: ψ_k(c_j) is the j-th coefficient of
    ∏_i (1 - α_i^k u), and j·ψ_k(c_j) = -Σ_{i=1}^{j} p_{ik} ψ_k(c_{j-i})."""
    if e > 1:
        return adams_coefficient(g, k, j, e - 1) * adams_coefficient(g, k, j)
    if not j:
        return SparsePoly.one()
    out = SparsePoly.zero()
    for i in range(1, j + 1):
        out = out + coefficient_power_sum(g, i * k) * adams_coefficient(
            g, k, j - i)
    return out.mul_scalar(Fraction(-1, j))


def _expand(poly, g, power, k=1):
    """Σ over the terms c·m·∏_j e_j^{n_j} of poly, m free of e1..eg, of
    c·m^k·∏_j power(j, n_j): the terms of one (n_j) are multiplied out
    together."""
    slots = [_slot(coeff_name(j)) for j in range(1, g + 1)]
    groups = {}
    for code, c in poly.terms.items():
        ns = tuple(_read(code, s) for s in slots)
        rest = code - sum(n << _SHIFT[s] for n, s in zip(ns, slots))
        groups.setdefault(ns, {})[_scale(rest, k)] = c
    total = {}
    get = total.get
    for ns, terms in groups.items():
        p = SparsePoly._raw(terms)
        for j, n in enumerate(ns, start=1):
            if n:
                p = p * power(j, n)
        for m, c in p.terms.items():
            total[m] = get(m, 0) + c
    return SparsePoly._raw({m: _clean(c) for m, c in total.items() if c})


def lift_adams(g, f, k):
    """ψ_k on a fraction in q, s and e1..eg whose atoms involve q and s
    alone: q -> q^k, s -> s^k and c_j -> ψ_k(c_j).  The ring's plain
    adams, c_j -> c_j^k, is wrong on the numerator."""
    if k == 1:
        return f
    return FactoredRat(_expand(f.numerator, g,
                               partial(adams_coefficient, g, k), k),
                       [a.adams(k) for a in f.denominator])


@lru_cache(maxsize=None)
def _root_coefficient(g, j, e=1):
    """c_j^e = ((-1)^j e_j(α_1..α_{2g}))^e modulo the Weil relations, in
    the odd roots and q: the g-th pair multiplies P by
    1 - (a + q/a) u + q u², a = α_{2g-1}."""
    if e > 1:
        return _root_coefficient(g, j, e - 1) * _root_coefficient(g, j)
    if not 0 <= j <= 2 * g:
        return SparsePoly.zero()
    if not g:
        return SparsePoly.one()
    a = alpha_name(2 * g - 1)
    t = SparsePoly({Monomial.of(**{a: 1}): 1, Monomial.of(q=1, **{a: -1}): 1})
    return (_root_coefficient(g - 1, j) - t * _root_coefficient(g - 1, j - 1)
            + _root_coefficient(g - 1, j - 2).mul_monomial(Monomial.of(q=1)))


def to_roots(f, g):
    """A value in q and e1..eg rewritten in the roots, pair-reduced:
    c_k -> (-1)^k e_k(α_1..α_{2g})."""
    return FactoredRat(_expand(f.numerator, g, partial(_root_coefficient, g)),
                       f.denominator).normalize()


def _set_partitions(items):
    """Every set partition of the list items, as a list of blocks."""
    if not items:
        yield []
        return
    for blocks in _set_partitions(items[1:]):
        yield [[items[0]]] + blocks
        for i, block in enumerate(blocks):
            yield blocks[:i] + [[items[0]] + block] + blocks[i + 1:]


def _pair_average(ms, s, q, g):
    """The average over the g! orders of the pairs of ∏_i D_{m_i}(t_i)/2
    over the k slots with m_i > 0 (a slot with m = 0 gives D_0/2 = 1):
    (g-k)!/(g!·2^k) times the sum over the injections of the slots into
    the pairs.  Möbius inversion over the set partitions of the slots
    makes that a sum over partitions of ∏ over blocks B of
    (-1)^{|B|-1}(|B|-1)! Σ_j ∏_{i∈B} D_{m_i}(t_j), where the product is
    expanded by D_a·D_b = D_{a+b} + q^{min(a,b)}·D_{|a-b|} and
    Σ_j D_k(t_j) = S_k."""
    def block_sum(block):
        prod = Counter(block[:1])
        for b in block[1:]:
            nxt = Counter()
            for a, c in prod.items():
                nxt[a + b] += c
                nxt[abs(a - b)] += c * q ** min(a, b)
            prod = nxt
        n = len(block) - 1
        return (-1) ** n * math.factorial(n) * sum(c * s[k]
                                                  for k, c in prod.items())

    total = sum(math.prod(map(block_sum, blocks))
                for blocks in _set_partitions(list(ms)))
    k = len(ms)
    return Fraction(total * math.factorial(g - k), math.factorial(g) * 2 ** k)


@dataclass(frozen=True)
class CurveData:
    """A concrete curve over F_q: its point counts and its zeta numerator
    P(T) = Σ a_k T^k = ∏_i (1 - σ_i T) over the 2g Weil numbers σ_i."""

    q: int
    genus: int
    point_counts: tuple
    numerator: tuple        # a_0..a_{2g}, integers

    def power_sums(self, n):
        """[S_0, ..., S_n], S_k = Σ_i σ_i^k, from Newton's identities
        k a_k = -Σ_{i=1}^{k} S_i a_{k-i}, in integers; S_0 = 2g."""
        a = self.numerator + (0,) * n
        s = [2 * self.genus]
        for k in range(1, n + 1):
            s.append(-k * a[k] - sum(s[i] * a[k - i] for i in range(1, k)))
        return s

    def evaluate(self, f):
        """The exact value at this curve of f, a pair-reduced fraction in
        the odd roots and q whose atoms involve q alone; any other variable
        or atom is a ValueError.

        Precondition: f is the pair reduction of a W-invariant value, W
        the group that permutes the g pairs σ, q/σ and swaps inside each;
        A_{g,r,d} and every value built from ζ over all 2g roots are.  So
        f's value is its average over W.  Swapping the pair of σ sends a^n
        to (q/a)^n, and the average of the two is q^{min(n,0)}·D_{|n|}(t)/2,
        t = σ + q/σ, with D as in _real_weil_polynomial.  Terms with one
        multiset of |n_i| are averaged over the orders of the pairs at once
        (_pair_average), from the power sums S_k alone.
        """
        q, odd = self.q, set(alpha_names(self.genus)[::2])
        groups = {}
        for code, c in f.numerator.terms.items():
            e, ms = 0, []
            for v, n in Monomial.from_code(code).items:
                if v in odd:
                    e += min(n, 0)
                    ms.append(abs(n))
                elif v == "q":
                    e += n
                else:
                    raise ValueError("%s is not a pair-reduced variable of "
                                     "genus %d" % (v, self.genus))
            ms = tuple(sorted(ms))
            groups[ms] = groups.get(ms, 0) + c * Fraction(q) ** e
        s = self.power_sums(max(map(sum, groups), default=0))
        value = sum((w * _pair_average(ms, s, q, self.genus)
                     for ms, w in groups.items()), Fraction(0))
        for atom in f.denominator:
            if atom.shape.variables() != ["q"]:
                raise ValueError("atom %s involves more than q" % (atom,))
            value /= 1 - atom.constant * Fraction(q) ** atom.shape.exponent("q")
        return value

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


def _sign_at_edge(f, side, q):
    """The sign of f, lowest degree first, at side·2√q (side = ±1).  There
    f = a + b√q, whose sign is that of a|a| + b|b|q, as u|u| increases."""
    a, b = (sum(c * (2 * side) ** i * q ** (i // 2)
                for i, c in enumerate(f) if i % 2 == odd) for odd in (0, 1))
    v = a * abs(a) + b * abs(b) * q
    return (v > 0) - (v < 0)


def _is_weil(h, q):
    """Whether every root t of h is real with |t| <= 2√q, by Sturm's
    theorem on f = h/gcd(h, h'), whose roots are those of h, each once.
    With V(x) the sign changes of f's Sturm chain at x, f has V(x) - V(y)
    distinct roots in (x, y]; a root at -2√q is counted apart."""
    def derivative(p):
        return [i * c for i, c in enumerate(p)][1:]

    f = _divmod(h, _gcd(h, derivative(h)))[0]
    chain = [f, derivative(f)]
    while chain[-1]:
        chain.append([-c for c in _divmod(chain[-2], chain[-1])[1]])

    def changes(side):
        signs = [s for p in chain[:-1] if (s := _sign_at_edge(p, side, q))]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    roots = changes(-1) - changes(1) + (not _sign_at_edge(f, -1, q))
    return roots == len(f) - 1


def weil_from_counts(q, counts, genus=None):
    """Build CurveData from |X(F_{q^l})| for l = 1..g.

    Exact Newton identities produce the numerator; the functional equation
    fills the top half.  The counts are a curve's when every Weil number
    has |σ| = √q, that is, when every root t = σ + q/σ of the real Weil
    polynomial h is real with |t| <= 2√q; a Sturm count on h decides it
    exactly (_is_weil), else NotWeil.
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

    # Newton's identities k a_k = -Σ_{i=1}^{k} S_i a_{k-i} on the power
    # sums S_i = 1 + q^i - N_i of the Weil numbers
    s = [None] + [1 + q ** l - n for l, n in enumerate(counts, start=1)]
    a = [1]
    for k in range(1, g + 1):
        ak = Fraction(-sum(s[i] * a[k - i] for i in range(1, k + 1)), k)
        if ak.denominator != 1:
            raise NotWeil("counts give a non-integer zeta numerator")
        a.append(int(ak))
    a += [q ** (g - k) * a[k] for k in range(g - 1, -1, -1)]
    if g and not _is_weil(_real_weil_polynomial(a, q), q):
        raise NotWeil("the Weil numbers of the counts are not all of "
                      "absolute value √q")
    return CurveData(q, g, counts, tuple(a))


def siegel_factors(g, r):
    """The W-invariant factors of siegel_volume(g, r) modulo the Weil
    relations: q^{(g-1)(r²-1)}, ∏(1-α_i) over all 2g roots (each root's
    factor pair-reduced before multiplying), 1/(q-1), ζ(q^{-k}), k = 2..r."""
    if r < 1:
        raise ValueError("rank must be positive")
    roots = FactoredRat.one()
    for name in alpha_names(g):
        roots = roots * pair_reduce(one_minus(1, Monomial.of(**{name: 1})), g)
    # 1/(q-1) = -1/(1-q)
    return [FactoredRat.from_monomial(Monomial.of(q=(g - 1) * (r * r - 1))),
            roots, atom_inverse(1, Monomial.of(q=1)).mul_scalar(-1),
            *(pair_reduce(zeta_at(g, 1, Monomial.of(q=-k)), g)
              for k in range(2, r + 1))]


def siegel_volume(g, r):
    """q^{(g-1)(r²-1)} ∏(1-α_i) / (q-1) · ∏_{k=2}^{r} ζ(q^{-k}) modulo the
    Weil relations: the product of siegel_factors(g, r)."""
    return math.prod(siegel_factors(g, r), start=FactoredRat.one()).normalize()


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
