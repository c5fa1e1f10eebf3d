"""End-to-end assembly of the indecomposable-bundle census.

kac_polynomial, betti_polynomial and count_points read kac_lift(g, r):
A_{g,r} in q and the zeta-numerator coefficients, the T^r coefficient of
the plethystic Log of a box-product partition sum, one value for every d.
The residue route, kac_rational(g, r) and degree_class_sums(g, r) (the
T^r coefficient of the Log of the partition sum of J_λ H_λ, clearing of
(1 - z^r), and summation of each degree class), is its standing check
and serves census check.  Each log of a partition sum is kept per genus
and grown one T-degree at a time (each T^k coefficient one sum over the
partitions of k), so all ranks of a genus share it, and [T^r] Log is
read from it as Σ_{k|r} μ(k)/k ψ_k(L_{r/k}).  Around them sit the
cross-checking routes (a truncated series oracle that shares only the
λ-terms with the residue route, and a pure-z constant-term pipeline that
keeps its own memo, sharing none), the Poincare specialization, exact
point counts over a concrete curve, and the conjecture/identity checkers.

Everything is exact rational arithmetic, the counts and the identities
at a sample curve included: both build their values in q and the
zeta-numerator coefficients and substitute the curve's integers
(CurveData.value).
"""

from __future__ import annotations

import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .errors import (IdentityViolation, NegativeBettiCoefficient,
                     NotPolynomialAfterClearing)
from .partitions import box_stats, pairing, partitions_of
from .residues import h_factor
from .ring import (Atom, FactoredRat, Monomial, SparsePoly, _check,
                   _check_codes, _clean, _monomials, _moves, _read, _rows,
                   _slot, _support, add_many, atom_inverse, poly_from_json,
                   poly_to_json)
from .series import BiSeries, LazyLog, frac_to_series, mobius, \
    pleth_exp, pleth_log, series_exp, z_decompose
from . import zeta as _zeta
from .zeta import (CurveData, _as_rational, alpha_name, alpha_names,
                   coeff_name, lift_adams, numerator_at, one_minus,
                   pair_reduce, to_roots)

ENGINE_VERSION = "1.0"

_ONE = Monomial()


def _lambda_term(g, lam):
    """One partition's contribution q^{(g-1)<λ,λ>} J_λ H_λ, normalized.

    Both factors are built modulo the Weil relations: the final answer is
    pair-reduced anyway, and reducing at the leaves keeps the intermediate
    numerators in g roots instead of 2g.
    """
    w = Monomial.of(q=(g - 1) * pairing(lam, lam))
    return (_zeta.j_factor(g, lam) * h_factor(g, lam)
            * FactoredRat.from_monomial(w)).normalize()


def _partition_sum_log(term, z_order=None,
                       total=lambda terms: sum(terms[1:], terms[0]),
                       adams=FactoredRat.adams):
    """log of the partition sum Σ_λ term(λ) T^{|λ|}, grown one T-degree at
    a time; each T^k coefficient is total(the λ-terms with |λ| = k).

    By default the terms are added pairwise, kept where measured to win:
    on the main route those of one size share few atoms, so one add_many
    over their multiset-max denominator multiplies each numerator by the
    atoms of all the others.  Even with add_many removing the atoms sure
    to cancel first, one add_many per T^k is slower: kac(2,3) 0.255
    against 0.241 s, kac(2,4) 3.1-3.5 against 2.3 s (CPU, 2-vCPU VM).  The
    pure-z route sums at once: its terms share almost every atom.
    """
    def coefficient(k):
        if not k:
            return FactoredRat.one()
        return total([term(lam) for lam in partitions_of(k)])

    return LazyLog(coefficient, z_order, adams)


@lru_cache(maxsize=None)
def _partition_log(g):
    """log of Σ_λ q^{(g-1)<λ,λ>} J_λ(z) H_λ(z) T^{|λ|}, kept per genus so
    that every rank shares one sum and one recurrence."""
    return _partition_sum_log(lambda lam: _lambda_term(g, lam))


def _truncated_log(g, z_order):
    """The same log in the oracle's truncated z-series mode, built afresh
    on each call: the oracle's z-order grows with the rank, so a memo
    would keep the whole truncated sum alive and seldom be read again.
    Each size sums the λ-terms of _partition_log exactly, z-atoms kept.
    Memoizing _lambda_term saved about 4 % on oracle(3,2) but raised the
    peak RSS of kac(3,3) from 62 to 67 MB with no gain in time."""
    return _partition_sum_log(lambda lam: _lambda_term(g, lam), z_order)


def rhs_series(g, R):
    """The partition sum Σ_λ q^{(g-1)<λ,λ>} J_λ(z) H_λ(z) T^{|λ|} through
    T^R, read from the memo of _partition_log."""
    if R < 1:
        raise ValueError("rank bound must be at least 1")
    log = _partition_log(g)
    return BiSeries("T", R, [log.coefficient(k) for k in range(R + 1)])


@lru_cache(maxsize=None)
def kac_rational(g, r):
    """A_{g,r}(z): (q-1) times the T^r coefficient of Log of the partition
    sum, rewritten modulo the root-pairing relations.

    The rewriting is essential, not cosmetic: the z-poles away from roots
    of unity only cancel modulo α_{2i-1}α_{2i} = q, so the normal form in
    the g odd roots and q is the only representation in which the simple
    pole structure is visible.
    """
    _validate_gr(g, r)
    A = _partition_log(g).pleth_coefficient(r)
    return pair_reduce(A * -one_minus(1, Monomial.of(q=1)), g)


@lru_cache(maxsize=None)
def _box(g, a, l):
    """The box factor of arm a and leg l in zeta-numerator coordinates:
    ∏_i (s^{2l+1} - α_i q^a) / ((q^{a+1} - s^{2l})(q^a - s^{2l+2})), with
    ∏_i (s^{2l+1} - α_i q^a) = s^{(2l+1)2g} P(q^a s^{-(2l+1)})."""
    # 1/(q^{a+1} - s^{2l}) = q^{-a-1}/(1 - s^{2l} q^{-a-1}), and likewise
    # the other: their q-powers ride in the numerator
    num = numerator_at(g, Monomial.of(q=a, s=-2 * l - 1)).mul_monomial(
        Monomial.of(q=-2 * a - 1, s=(2 * l + 1) * 2 * g))
    return (FactoredRat(num) * atom_inverse(1, Monomial.of(q=-a - 1, s=2 * l))
            * atom_inverse(1, Monomial.of(q=-a, s=2 * l + 2)))


def _box_term(g, lam):
    """∏ over the boxes of λ of _box(g, arm, leg)."""
    out = FactoredRat.one()
    for arm, leg in box_stats(lam):
        out = out * _box(g, arm, leg)
    return out


@lru_cache(maxsize=None)
def _lift_log(g):
    """log of Σ_λ _box_term(g, λ) T^{|λ|}, per genus, with the Adams
    operations of the zeta-numerator coordinates."""
    return _partition_sum_log(partial(_box_term, g),
                              adams=partial(lift_adams, g))


@lru_cache(maxsize=None)
def kac_lift(g, r):
    """A_{g,r} in q and the zeta-numerator coefficients e1..eg (the
    W-lift): (q-1)(1-s²)·[T^r] Log Σ_λ ∏_□ _box T^{|λ|} at s = 1, the box
    product of Hausel and Rodriguez-Villegas (arXiv:math/0612668, Conj.
    4.2.1), which Mellit proved equal to A_{g,r,d} for every d
    (arXiv:1707.04214)."""
    _validate_gr(g, r)
    A = (_lift_log(g).pleth_coefficient(r) * -one_minus(1, Monomial.of(q=1))
         * one_minus(1, Monomial.of(s=2)))
    return A.substitute_all([("s", 1, _ONE)])


def _validate_gr(g, r):
    if not isinstance(g, int) or g < 0:
        raise ValueError("genus must be a nonnegative integer")
    if not isinstance(r, int) or r < 1:
        raise ValueError("rank must be a positive integer")


def _z_atoms(f):
    return [a for a in f.denominator if a.shape.exponent("z")]


@lru_cache(maxsize=None)
def degree_class_sums(g, r):
    """The r values Σ_{j ≡ d (mod r)} [z^j] (1-z^r)·A_{g,r}(z), d = 0..r-1."""
    A = kac_rational(g, r)
    Q = (A * one_minus(1, Monomial.of(z=r))).normalize()
    bad = _z_atoms(Q)
    if bad:
        raise NotPolynomialAfterClearing(
            "(1-z^%d)*A_{%d,%d}(z) keeps z-denominators %s"
            % (r, g, r, ", ".join(str(a) for a in bad)))
    dec = z_decompose(Q)
    out = []
    for d in range(r):
        parts = [c for j, c in dec.items() if j % r == d]
        out.append(add_many(parts) if parts else FactoredRat.zero())
    return tuple(out)


def lift_paired(f, g):
    """One polynomial preimage of a pair-reduced, denominator-free value.

    Negative powers of an odd root are rewritten through the partner root
    (α_{2i-1}^{-1} = α_{2i}/q); leftover q powers stay as q.  Returns None
    when f is not a polynomial modulo the pairing relations.
    """
    f = f.normalize()
    if f.is_zero():
        return SparsePoly.zero()
    if f.denominator:
        return None
    odd = [alpha_name(2 * i - 1) for i in range(1, g + 1)]
    poly = f.numerator
    if not poly.variables() <= set(odd) | {"q"}:
        return None
    # α_{2i-1}^{-1} = α_{2i}/q: each negative power b adds -b times the
    # code of α_{2i-1}α_{2i}/q
    moves = [(_slot(name), Monomial.of(q=-1, **{name: 1,
                                               alpha_name(2 * i): 1}).code)
             for i, name in enumerate(odd, start=1)]
    q = _slot("q")
    out = {}
    for code, c in poly.terms.items():
        for slot, move in moves:
            b = _read(code, slot)
            if b < 0:
                code -= b * move
        if _read(code, q) < 0:
            _check(code)
            return None
        out[code] = out.get(code, 0) + c
    _check_codes(out)
    return SparsePoly._raw({m: _clean(c) for m, c in out.items() if c})


class KacResult:
    """A_{g,r,d} with provenance.

    value is the pair-reduced rational normal form (the representation in
    which equality in the coefficient ring is decidable); lifted is one
    polynomial preimage in all 2g roots and q, or None when the value is
    not polynomial.  A result read back from JSON with a polynomial model
    pair-reduces lifted on the first read of value, so output that needs
    only the polynomial never pays for it.  The JSON form holds nothing
    that depends on the run, so cached results stay bit-identical.
    """

    __slots__ = ("genus", "rank", "degree_class", "_value", "lifted",
                 "is_d_independent", "route", "orders")

    def __init__(self, genus, rank, degree_class, value, lifted,
                 is_d_independent, route, orders):
        self.genus = genus
        self.rank = rank
        self.degree_class = degree_class
        self._value = value
        self.lifted = lifted
        self.is_d_independent = is_d_independent
        self.route = route
        self.orders = orders

    @property
    def value(self):
        if self._value is None:
            self._value = pair_reduce(FactoredRat(self.lifted), self.genus)
        return self._value

    @property
    def is_polynomial(self):
        return self.lifted is not None

    @property
    def polynomial(self):
        """SparsePoly when a polynomial model exists, FactoredRat otherwise."""
        return self.lifted if self.lifted is not None else self.value

    def to_json(self):
        if self.lifted is not None:
            poly = {"kind": "polynomial"}
            poly.update(poly_to_json(self.lifted))
        else:
            poly = {"kind": "fraction"}
            poly.update(self.value.to_json())
        return {
            "genus": self.genus,
            "rank": self.rank,
            "degree_class": self.degree_class,
            "polynomial": poly,
            "flags": {"is_polynomial": self.is_polynomial,
                      "is_d_independent": self.is_d_independent},
            "provenance": {"route": self.route,
                           "orders": dict(self.orders),
                           "engine": ENGINE_VERSION},
        }

    @staticmethod
    def from_json(obj):
        poly = obj["polynomial"]
        g = int(obj["genus"])
        if poly.get("kind") == "polynomial":
            lifted = poly_from_json(poly)
            value = None
        else:
            lifted = None
            value = FactoredRat.from_json(poly).normalize()
        prov = obj.get("provenance", {})
        return KacResult(
            genus=g, rank=int(obj["rank"]),
            degree_class=int(obj["degree_class"]),
            value=value, lifted=lifted,
            is_d_independent=bool(obj["flags"]["is_d_independent"]),
            route=prov.get("route", ""), orders=dict(prov.get("orders", {})))


@lru_cache(maxsize=None)
def _kac_value(g, r):
    """kac_lift(g, r) in the roots: the pair-reduced value and its lift."""
    value = to_roots(kac_lift(g, r), g)
    return value, lift_paired(value, g)


def kac_polynomial(g, r, d):
    """A_{g,r,d} as a KacResult; d is reduced mod r.

    The value is kac_lift's in the roots, one for every d, so
    is_d_independent holds by Mellit's theorem (arXiv:1707.04214); the
    residue route's degree-class sums (degree_class_sums) are its check.
    """
    value, lifted = _kac_value(g, r)
    return KacResult(genus=g, rank=r, degree_class=d % r, value=value,
                     lifted=lifted, is_d_independent=True,
                     route="log-extraction", orders={"T": r})


def kac_series_oracle(g, r, D=None):
    """Cross-check route: coefficients A^{>=0}_{g,r,d} for d = 0..D.

    It shares with kac_rational the λ-terms (so the same h_factor) and
    each size's exact sum; its Log, Adams operations, (1 - q) factor and
    coefficient extraction are truncated at z-order D.  The rational Log,
    the (1 - z^r) clearing and the class sums are not shared, nor is
    anything of kac_polynomial's W-lift (kac_lift).
    For d past the stabilization bound (g-1)r(r-1) the list must be
    r-periodic and match the degree classes.
    """
    _validate_gr(g, r)
    if D is None:
        D = (g - 1) * r * (r - 1) + 2 * r + 2
    if D <= (g - 1) * r * (r - 1) + r:
        raise ValueError("z-order %d does not reach past the stabilization "
                         "bound %d" % (D, (g - 1) * r * (r - 1)))
    A = _truncated_log(g, D).pleth_coefficient(r)
    A = pair_reduce(A * -one_minus(1, Monomial.of(q=1)), g)
    dec = z_decompose(A)
    out = []
    for dd in range(D + 1):
        if dd in dec:
            lifted = lift_paired(dec[dd], g)
            if lifted is None:
                raise IdentityViolation(
                    "series coefficient z^%d of A_{%d,%d} is not polynomial"
                    % (dd, g, r))
            out.append(lifted)
        else:
            out.append(SparsePoly.zero())
    return out


def _constant_lambda_term(g, lam):
    """z^e ∏_i ∏_{j<=m_i(λ)} 1/(1 - z^{-j}), e = (g-1)<λ,λ> - ℓ(λ), built in
    normal form at once: 1/(1 - z^{-j}) = -z^j/(1 - z^j), and no atom
    divides the numerator ±1."""
    js = [j for mult in Counter(tuple(lam)).values()
          for j in range(1, mult + 1)]
    e = (g - 1) * pairing(lam, lam) - len(lam) + sum(js)
    atoms = sorted((Atom(1, Monomial.of(z=j)) for j in js), key=Atom.key)
    return FactoredRat(SparsePoly({Monomial.of(z=e): (-1) ** len(lam)}),
                       atoms, normalized=True)


@lru_cache(maxsize=None)
def _constant_log(g):
    """The constant-term route's own Log memo: it shares none with the main
    route, so that the route stays an independent check."""
    return _partition_sum_log(lambda lam: _constant_lambda_term(g, lam),
                              total=add_many)


@lru_cache(maxsize=None)
def _constant_class_sums(g, r):
    A0 = _constant_log(g).pleth_coefficient(r).mul_scalar(-1)
    Q0 = (A0 * one_minus(1, Monomial.of(z=r))).normalize()
    if Q0.denominator:
        raise NotPolynomialAfterClearing(
            "(1-z^%d) does not clear the constant-term series at g=%d"
            % (r, g))
    z, unit = _slot("z"), Monomial.of(z=1).code
    sums = [Fraction(0)] * r
    for m, c in Q0.numerator.terms.items():
        j = _read(m, z)
        if m != j * unit:
            raise ValueError("not a polynomial in z: %r" % (Q0,))
        sums[j % r] += c
    return tuple(sums)


def constant_term(g, r, d):
    """A_{g,r,d}(0), the number of components of the nilpotent fixed-point
    locus, through a pure-z pipeline independent of kac_polynomial."""
    _validate_gr(g, r)
    return _constant_class_sums(g, r)[d % r]


def betti_polynomial(g, r, d):
    """Poincare polynomial t^{2(1+(g-1)r^2)} A_{g,r,d}(-t,..,-t,t^2): on
    kac_lift's value, α_i -> -t is c_k -> C(2g,k)·t^k, with q -> t²."""
    A = kac_lift(g, r)
    coprime = math.gcd(r, d) == 1
    if not coprime:
        warnings.warn("betti_polynomial(%d, %d, %d): gcd(r, d) > 1 is "
                      "outside the guaranteed range" % (g, r, d),
                      RuntimeWarning, stacklevel=2)
    if A.denominator:
        raise NotPolynomialAfterClearing(
            "A_{%d,%d,%d} has no polynomial model" % (g, r, d))
    t = Monomial.of(t=1)
    subs = [(coeff_name(k), math.comb(2 * g, k), t ** k)
            for k in range(1, g + 1)] + [("q", 1, t ** 2)]
    p = A.numerator._moved(_moves(subs))
    p = p.mul_monomial(Monomial.of(t=2 * (1 + (g - 1) * r * r)))
    if not coprime or p.is_zero():
        return p
    top = 4 * (1 + (g - 1) * r * r)
    for code, c in p.terms.items():
        fc = Fraction(c)
        if fc.denominator != 1 or fc < 0:
            raise NegativeBettiCoefficient(
                "coefficient %s of t^%d in betti(%d,%d,%d)"
                % (fc, Monomial.from_code(code).exponent("t"), g, r, d))
    lead, c = p.sorted_items()[0]
    if lead != Monomial.of(t=top).items or c != 1:
        raise IdentityViolation(
            "betti(%d,%d,%d) is not monic of degree %d" % (g, r, d, top))
    return p


def count_points(curve, r, d):
    """(indecomposables, higgs_points) over the given curve, exactly.

    indecomposables is A_{g,r,d} at the curve: kac_lift's value at the
    curve's zeta-numerator coefficients c_k and q; higgs_points is
    q^{1+(g-1)r^2} times it and is only emitted in the coprime case;
    otherwise it is None.  A count that is not an integer is an
    IdentityViolation.
    """
    if not isinstance(curve, CurveData):
        raise TypeError("curve must be CurveData")
    n = curve.value(kac_lift(curve.genus, r))
    higgs = Fraction(curve.q) ** (1 + (curve.genus - 1) * r * r) * n
    if n.denominator != 1 or higgs.denominator != 1:
        raise IdentityViolation("A_{%d,%d,%d} is %s over the curve, not an "
                                "integer" % (curve.genus, r, d, n))
    return int(n), int(higgs) if math.gcd(r, d) == 1 else None


@dataclass(frozen=True)
class RegularityReport:
    """Observed z-pole structure of A_{g,r}(z) and degree-class behavior."""

    genus: int
    rank: int
    pole_orders: dict      # cyclotomic order m -> pole order at primitive m-th roots
    all_simple: bool
    clears_linear: bool    # (1-z) * A polynomial in z
    clears_power: bool     # (1-z^r) * A polynomial in z
    is_d_independent: object  # bool, or None when clears_power fails

    def lines(self):
        yield "A_{%d,%d}(z): z-pole orders by root-of-unity order:" \
            % (self.genus, self.rank)
        if self.pole_orders:
            for m in sorted(self.pole_orders):
                yield "  order-%d roots: pole order %d" % (m, self.pole_orders[m])
        else:
            yield "  (no z-poles)"
        yield "all poles simple: %s" % self.all_simple
        yield "(1-z)   clears poles: %s" % self.clears_linear
        yield "(1-z^%d) clears poles: %s" % (self.rank, self.clears_power)
        yield "degree classes coincide: %s" % self.is_d_independent


def _root_orders(atom):
    """Orders of the roots of unity at which the atom 1 - c z^k vanishes."""
    k = atom.shape.exponent("z")
    if atom.shape.without("z").is_one() and atom.constant in (1, -1):
        if atom.constant == 1:
            return [m for m in range(1, k + 1) if k % m == 0]
        return [m for m in range(1, 2 * k + 1)
                if (2 * k) % m == 0 and k % m != 0]
    # unit-circle roots only arise from constants +-1; anything else
    # contributes no cyclotomic pole
    return []


def _pole_order(num, m, k):
    """The z-pole order at the primitive m-th roots of unity of num over k
    denominator atoms that vanish there: k less the power of
    Φ_m = ±∏_{d|m}(1 - z^d)^{μ(m/d)} that divides num, and at least 0."""
    divisors = [d for d in range(1, m + 1) if not m % d]
    up = [Atom(1, Monomial.of(z=d)) for d in divisors if mobius(m // d) < 0]
    down = [Atom(1, Monomial.of(z=d)) for d in divisors if mobius(m // d) > 0]
    for j in range(k):
        for atom in up:
            num = num.mul_atom(atom)
        for atom in down:
            num = num.divide_atom(atom)
            if num is None:
                return k - j
    return 0


def _pole_orders(A):
    """{m: the z-pole order of A at the primitive m-th roots of unity} for
    each m where A has a pole."""
    counts = Counter(m for atom in _z_atoms(A) for m in _root_orders(atom))
    orders = {}
    for m in sorted(counts):
        k = _pole_order(A.numerator, m, counts[m])
        if k:
            orders[m] = k
    return orders


def regularity_report(g, r):
    """Inspect the z-poles of kac_rational(g, r) and the degree classes.

    A count of the denominator atoms alone cannot see removable
    cyclotomic factors (an atom 1 - z^k never splits, even when only its
    z = 1 part is a genuine pole), and regularity at nontrivial roots of
    unity is exactly the behavior worth reporting, so each count is
    reduced by the power of Φ_m dividing the numerator (_pole_order).
    Everything is exact.
    """
    A = kac_rational(g, r)
    orders = _pole_orders(A)
    lin = not _z_atoms((A * one_minus(1, Monomial.of(z=1))).normalize())
    power = not _z_atoms((A * one_minus(1, Monomial.of(z=r))).normalize())
    indep = None
    if power:
        sums = degree_class_sums(g, r)
        indep = all(s == sums[0] for s in sums[1:])
    return RegularityReport(
        genus=g, rank=r, pole_orders=orders,
        all_simple=all(v <= 1 for v in orders.values()),
        clears_linear=lin, clears_power=power, is_d_independent=indep)


def _sample_curve(g):
    """A fixed Weil-valid curve datum of genus g for the numeric identities.

    Small genera use literal curves; g >= 3 is synthesized from the first
    g of nine distinct Frobenius traces over F_4, ordered so that every
    point count stays nonnegative.  Supported through g = 9.
    """
    if g == 0:
        return _zeta.weil_from_counts(2, [])
    if g == 1:
        return _zeta.weil_from_counts(2, [3])
    if g == 2:
        return _zeta.weil_from_counts(3, [3, 13])
    traces = (0, 1, 2, -1, 3, -2, -3, 4, -4)
    if g > len(traces):
        raise ValueError("no sample curve of genus %d" % g)
    q = 4
    counts = []
    s_prev = [2] * g
    s_cur = list(traces[:g])
    for l in range(1, g + 1):
        if l > 1:
            s_next = [traces[j] * s_cur[j] - q * s_prev[j] for j in range(g)]
            s_prev, s_cur = s_cur, s_next
        counts.append(q ** l + 1 - sum(s_cur))
    return _zeta.weil_from_counts(q, counts)


def _torsion_resummed(g, L):
    """Both sides of the torsion-volume resummation, compared exactly."""
    lhs = _zeta.torsion_volume_series(g, L)
    coeffs = [FactoredRat.zero()]
    for l in range(1, L + 1):
        terms = {_ONE: 1, Monomial.of(q=l): 1}
        for name in alpha_names(g):
            m = Monomial.of(**{name: l})
            terms[m] = terms.get(m, 0) - 1
        f = FactoredRat(SparsePoly(terms))
        f = f * atom_inverse(1, Monomial.of(q=l)).mul_scalar(Fraction(-1, l))
        coeffs.append(f)
    rhs = series_exp(BiSeries("s", L, coeffs))
    return lhs == rhs


def _exp_log_roundtrip(g, order=5):
    """pleth_log(pleth_exp(f)) == f for a seeded random augmented series."""
    rng = random.Random(1000 + g)
    coeffs = [FactoredRat.zero()]
    for _ in range(order):
        terms = {}
        for mono in (_ONE, Monomial.of(q=1), Monomial.of(z=1),
                     Monomial.of(q=1, z=2)):
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        coeffs.append(FactoredRat(SparsePoly(terms)))
    f = BiSeries("T", order, coeffs)
    return pleth_log(pleth_exp(f)) == f


def _zeta_product_convergence(g, L):
    """T(s) = ∏_{i>=1} ζ_X(q^{-i}s), the resummed torsion volume series
    (torsion_lift_series), splits as ∏_{i<=L} ζ_X(q^{-i}s) · T(q^{-L}s),
    where [s^j]T(q^{-L}s) = q^{-Lj}·T_j: both sides are built in q and the
    zeta-numerator coordinates and checked exactly at a sample curve
    through s^L."""
    curve = _sample_curve(g)
    prod = BiSeries.one("s", L)
    for i in range(1, L + 1):
        prod = prod * frac_to_series(
            _zeta.zeta_lift(g, Monomial.of(q=-i, s=1)), "s", L)
    p = list(map(curve.value, prod.coeffs))
    t = list(map(curve.value, _zeta.torsion_lift_series(g, L).coeffs))
    return all(t[n] == sum(p[n - j] * Fraction(t[j], curve.q ** (L * j))
                           for j in range(n + 1))
               for n in range(L + 1))


def _siegel_instantiation(g, L):
    """The unstable volume at a sample curve against a direct route,
    exactly: the factors of siegel_lift_factors, in q and the
    zeta-numerator coordinates, substituted at the curve one by one,
    against |Pic^0| = P(1) and Z_X(u) = P(u)/((1-u)(1-qu)) at u = q^{-k}
    read from the curve's integer numerator.
    """
    curve = _sample_curve(g)
    q = Fraction(curve.q)

    def P(u):
        return sum(a * u ** j for j, a in enumerate(curve.numerator))

    for r in (2, 3):
        volume = math.prod(map(curve.value, _zeta.siegel_lift_factors(g, r)))
        direct = q ** ((g - 1) * (r * r - 1)) * P(1) / (q - 1)
        for k in range(2, r + 1):
            u = q ** -k
            direct *= P(u) / ((1 - u) * (1 - q * u))
        if volume != direct:
            return False
    return True


def identity_report(g, L):
    """Run the internal consistency identities; list of (name, passed)."""
    _validate_gr(g, 1)
    if L < 1:
        raise ValueError("truncation order must be at least 1")
    return [
        ("torsion-resummation", _torsion_resummed(g, L)),
        ("exp-log-roundtrip", _exp_log_roundtrip(g)),
        ("zeta-product-convergence", _zeta_product_convergence(g, L)),
        ("siegel-volume", _siegel_instantiation(g, L)),
    ]


def check_identities(g, L):
    """identity_report, raising IdentityViolation when anything fails."""
    report = identity_report(g, L)
    failed = [name for name, ok in report if not ok]
    if failed:
        raise IdentityViolation("identities failed: %s" % ", ".join(failed))
    return report


# ---------------------------------------------------------------------------
# LaTeX

def _latex_var(name, e):
    if name.startswith("a") and name[1:].isdigit():
        base = "\\alpha_{%s}" % name[1:] if len(name) > 2 \
            else "\\alpha_%s" % name[1:]
    else:
        base = name
    if e == 1:
        return base
    if 0 <= e <= 9:
        return "%s^%d" % (base, e)
    return "%s^{%d}" % (base, e)


def _latex_coeff(c, is_first, has_mono):
    sign = "-" if c < 0 else ("" if is_first else "+")
    c = abs(c)
    if c.denominator == 1:
        body = "" if (c == 1 and has_mono) else str(c.numerator)
    else:
        body = "\\tfrac{%d}{%d}" % (c.numerator, c.denominator)
    return sign + body


def latex_poly(p):
    """LaTeX for a SparsePoly, terms in the ring's canonical order."""
    slots = _support(p.terms)
    rows = _rows(p.terms, slots)
    if not rows:
        return "0"
    monos = _monomials(rows, slots, _latex_var)
    return "".join([_latex_coeff(c, i == 0, bool(mono)) + mono
                    for i, ((_, _, c), mono) in enumerate(zip(rows, monos))])


@lru_cache(maxsize=None)
def _pattern_atoms(g, sign, k):
    """The pair-reduced atom factorization of ∏_{i=1}^{2g}(1 - sign·q^k·α_i)."""
    atoms = []
    for i in range(1, g + 1):
        name = alpha_name(2 * i - 1)
        atoms.append(Atom.make(sign, Monomial.of(q=k, **{name: 1})))
        atoms.append(Atom.make(sign, Monomial.of(q=k + 1, **{name: -1})))
    return tuple(atoms)


def _pattern_latex(sign, k, g):
    s = "-" if sign == 1 else "+"
    qs = "" if k == 0 else ("q" if k == 1 else "q^{%d}" % k)
    return "".join("(1%s%s%s)" % (s, qs, _latex_var(alpha_name(i), 1))
                   for i in range(1, 2 * g + 1))


def latex_value(res):
    """Best-effort factored LaTeX for a KacResult.

    Products ∏(1 ± α_i) and ∏(1 ± qα_i) are recognized by exact trial
    division in the pair-reduced coordinates; whatever remains is printed
    expanded (over a denominator when the value is not polynomial).
    """
    g = res.genus
    f = res.value
    if f.is_zero():
        return "0"
    if g == 0:
        return latex_poly(res.lifted) if res.lifted is not None \
            else _latex_fraction(f)
    num = f.numerator
    factors = []
    for sign, k in ((1, 0), (-1, 0), (1, 1), (-1, 1)):
        while True:
            trial = num
            mono = Monomial()
            ok = True
            for u, um, atom in _pattern_atoms(g, sign, k):
                # pattern factor == u * um * atom; strip the unit parts
                quot = trial.divide_atom(atom)
                if quot is None:
                    ok = False
                    break
                trial = quot if u == 1 else quot.mul_scalar(Fraction(1, u))
                mono = mono * um
            if not ok:
                break
            num = trial.mul_monomial(mono ** -1)
            factors.append(_pattern_latex(sign, k, g))
    rest = FactoredRat(num, f.denominator).normalize()
    if not factors:
        return _latex_fraction(rest)
    try:
        c = _as_rational(rest)
    except ValueError:
        return "".join(factors) + "\\cdot\\left[%s\\right]" % _latex_fraction(rest)
    if c == 1:
        return "".join(factors)
    lead = _latex_coeff(c, True, True)
    return (lead if lead else "") + "".join(factors)


def _latex_fraction(f):
    f = f.normalize()
    num = f.numerator
    if not f.denominator:
        return latex_poly(num)
    den = SparsePoly.one()
    for a in f.denominator:
        den = den.mul_atom(a)
    return "\\frac{%s}{%s}" % (latex_poly(num), latex_poly(den))
