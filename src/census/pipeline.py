"""End-to-end assembly of the indecomposable-bundle census.

The main entry point is kac_polynomial(g, r, d): the T^r coefficient of
the plethystic Log of the partition sum, clearing of (1 - z^r), and
summation of one degree class.  The log of the partition sum is kept per
genus and grown one T-degree at a time (each T^k coefficient one sum over
the partitions of k), so all ranks of a genus share it, and [T^r] Log is
read from it as Σ_{k|r} μ(k)/k ψ_k(L_{r/k}).  Around it sit the
cross-checking routes (a truncated series oracle that shares only the
λ-terms with the main route, and a pure-z constant-term pipeline that
keeps its own memo, sharing none), the Poincare specialization, numeric
point counts, and the conjecture/identity checkers.

Everything is exact rational arithmetic; floats appear only in
count_points and in the numeric convergence identities.
"""

from __future__ import annotations

import cmath
import math
import random
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (IdentityViolation, NegativeBettiCoefficient,
                     NotPolynomialAfterClearing, RoundingFailure)
from .partitions import pairing, partitions_of
from .residues import h_factor
from .ring import (Atom, FactoredRat, Monomial, SparsePoly, _check,
                   _check_codes, _clean, _read, _slot, add_many, atom_inverse,
                   poly_from_json, poly_to_json)
from .series import BiSeries, LazyLog, frac_to_series, pleth_exp, \
    pleth_log, series_exp, z_decompose, z_truncate_frac
from . import zeta as _zeta
from .zeta import CurveData, alpha_name, alpha_names, pair_reduce

ENGINE_VERSION = "1.0"

_ONE = Monomial()


def _q_minus_one():
    return FactoredRat.from_poly(SparsePoly({Monomial.of(q=1): 1, _ONE: -1}))


def _one_minus_z_pow(r):
    return FactoredRat.from_poly(SparsePoly({_ONE: 1, Monomial.of(z=r): -1}))


def _lambda_term(g, lam):
    """One partition's contribution q^{(g-1)<λ,λ>} J_λ H_λ, normalized.

    Both factors are built modulo the Weil relations: the final answer is
    pair-reduced anyway, and reducing at the leaves keeps the intermediate
    numerators in g roots instead of 2g.
    """
    w = Monomial.of(q=(g - 1) * pairing(lam, lam))
    return (_zeta.j_factor(g, lam) * h_factor(g, lam)
            * FactoredRat.from_monomial(w)).normalize()


def _partition_sum_log(term, z_order=None):
    """log of the partition sum Σ_λ term(λ) T^{|λ|}, grown one T-degree at
    a time; each T^k coefficient is the sum of the λ-terms with |λ| = k.

    The terms are added pairwise: those of one size share few atoms, so one
    add_many over their multiset-max denominator multiplies each numerator
    by the atoms of all the others.  Even with add_many removing the atoms
    sure to cancel first, one add_many per T^k is slower: kac(2,3) 0.255
    against 0.241 s, kac(2,4) 3.1-3.5 against 2.3 s (CPU, 2-vCPU VM).
    """
    def coefficient(k):
        if not k:
            return FactoredRat.one()
        terms = [term(lam) for lam in partitions_of(k)]
        return sum(terms[1:], terms[0])

    return LazyLog(coefficient, z_order)


@lru_cache(maxsize=None)
def _partition_log(g):
    """log of Σ_λ q^{(g-1)<λ,λ>} J_λ(z) H_λ(z) T^{|λ|}, kept per genus so
    that every rank shares one sum and one recurrence."""
    return _partition_sum_log(lambda lam: _lambda_term(g, lam))


def _truncated_log(g, z_order):
    """The same log in the oracle's truncated z-series mode, built afresh
    on each call: the oracle's z-order grows with the rank, so a memo
    would keep the whole truncated sum alive and seldom be read again."""
    return _partition_sum_log(
        lambda lam: z_truncate_frac(_lambda_term(g, lam), z_order), z_order)


def rhs_series(g, R, z_order=None):
    """The partition sum Σ_λ q^{(g-1)<λ,λ>} J_λ(z) H_λ(z) T^{|λ|} through T^R.

    z_order=None keeps coefficients rational in z and reads the memo of
    _partition_log; an integer switches to the truncated z-series mode.
    """
    if R < 1:
        raise ValueError("rank bound must be at least 1")
    log = _partition_log(g) if z_order is None else _truncated_log(g, z_order)
    return BiSeries("T", R, [log.coefficient(k) for k in range(R + 1)],
                    z_order)


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
    A = _partition_log(g).pleth_coefficient(r) * _q_minus_one()
    return pair_reduce(A, g)


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
    Q = (A * _one_minus_z_pow(r)).normalize()
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
    poly = f.numerator.mul_monomial(f.prefactor)
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
            self._value = pair_reduce(FactoredRat.from_poly(self.lifted),
                                      self.genus)
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


def kac_polynomial(g, r, d):
    """A_{g,r,d} as a KacResult; d is reduced mod r."""
    sums = degree_class_sums(g, r)
    value = sums[d % r]
    indep = all(s == sums[0] for s in sums[1:])
    lifted = lift_paired(value, g)
    return KacResult(genus=g, rank=r, degree_class=d % r, value=value,
                     lifted=lifted, is_d_independent=indep,
                     route="log-extraction", orders={"T": r})


def kac_series_oracle(g, r, D=None):
    """Cross-check route: coefficients A^{>=0}_{g,r,d} for d = 0..D.

    Each λ-term, the same _lambda_term (and so the same h_factor) that
    kac_polynomial uses, is expanded as a z-series to order D, and the
    partition sum and its Log are taken in that truncated mode; the
    rational Log, the (1 - z^r) clearing and the degree-class sums are not
    shared with kac_polynomial.  For d past the stabilization bound
    (g-1)r(r-1) the list must be r-periodic and match the degree classes.
    """
    _validate_gr(g, r)
    if D is None:
        D = (g - 1) * r * (r - 1) + 2 * r + 2
    if D <= (g - 1) * r * (r - 1) + r:
        raise ValueError("z-order %d does not reach past the stabilization "
                         "bound %d" % (D, (g - 1) * r * (r - 1)))
    A = _truncated_log(g, D).pleth_coefficient(r) * _q_minus_one()
    A = pair_reduce(A, g)
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


def _as_rational(f):
    """A constant FactoredRat as a Fraction."""
    f = f.normalize()
    if f.denominator:
        raise ValueError("not constant: %r" % (f,))
    poly = f.numerator.mul_monomial(f.prefactor)
    total = Fraction(0)
    for m, c in poly.terms.items():
        if m:  # code 0 is the monomial 1
            raise ValueError("not constant: %r" % (f,))
        total += Fraction(c)
    return total


@lru_cache(maxsize=None)
def _constant_log(g):
    """The constant-term route's own Log memo: it shares none with the main
    route, so that the route stays an independent check."""
    def term(lam):
        t = FactoredRat.from_monomial(
            Monomial.of(z=(g - 1) * pairing(lam, lam) - len(lam)))
        for mult in Counter(tuple(lam)).values():
            for j in range(1, mult + 1):
                t = t * atom_inverse(1, Monomial.of(z=-j))
        return t

    return _partition_sum_log(term)


@lru_cache(maxsize=None)
def _constant_class_sums(g, r):
    A0 = _constant_log(g).pleth_coefficient(r).mul_scalar(-1)
    Q0 = (A0 * _one_minus_z_pow(r)).normalize()
    if Q0.denominator:
        raise NotPolynomialAfterClearing(
            "(1-z^%d) does not clear the constant-term series at g=%d"
            % (r, g))
    dec = z_decompose(Q0)
    sums = []
    for d in range(r):
        total = Fraction(0)
        for j, c in dec.items():
            if j % r == d:
                total += _as_rational(c)
        sums.append(total)
    return tuple(sums)


def constant_term(g, r, d):
    """A_{g,r,d}(0), the number of components of the nilpotent fixed-point
    locus, through a pure-z pipeline independent of kac_polynomial."""
    _validate_gr(g, r)
    return _constant_class_sums(g, r)[d % r]


def betti_polynomial(g, r, d):
    """Poincare polynomial t^{2(1+(g-1)r^2)} A_{g,r,d}(-t,..,-t,t^2)."""
    res = kac_polynomial(g, r, d)
    coprime = math.gcd(r, d) == 1
    if not coprime:
        warnings.warn("betti_polynomial(%d, %d, %d): gcd(r, d) > 1 is "
                      "outside the guaranteed range" % (g, r, d),
                      RuntimeWarning, stacklevel=2)
    if res.lifted is None:
        raise NotPolynomialAfterClearing(
            "A_{%d,%d,%d} has no polynomial model" % (g, r, d))
    p = res.lifted
    for name in alpha_names(g):
        p = p.substitute(name, -1, Monomial.of(t=1))
    p = p.substitute("q", 1, Monomial.of(t=2))
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
    lead, c = p.sorted_terms()[0]
    if lead != Monomial.of(t=top) or c != 1:
        raise IdentityViolation(
            "betti(%d,%d,%d) is not monic of degree %d" % (g, r, d, top))
    return p


def count_points(curve, r, d):
    """(indecomposables, higgs_points) over the given curve.

    higgs_points is q^{1+(g-1)r^2} times the indecomposable count and is
    only emitted in the coprime case; otherwise it is None.
    """
    if not isinstance(curve, CurveData):
        raise TypeError("curve must be CurveData")
    res = kac_polynomial(curve.genus, r, d)
    point = curve.assignment()
    if res.lifted is not None:
        v = res.lifted.eval_numeric(point)
    else:
        v = res.value.eval_numeric(point)
    n = round(v.real)
    err = abs(v - n)
    if err >= 1e-6 * max(1.0, abs(v)):
        raise RoundingFailure(
            "count %r is %.3g away from the nearest integer" % (v, err))
    n = int(n)
    if math.gcd(r, d) != 1:
        return n, None
    e = 1 + (curve.genus - 1) * r * r
    hv = Fraction(curve.q) ** e * n
    if hv.denominator != 1:
        raise RoundingFailure("q^%d * %d is not an integer" % (e, n))
    return n, int(hv)


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


def _numeric_pole_order(A, m, point):
    """log-slope estimate of the pole order at a primitive m-th root."""
    root = cmath.exp(2j * cmath.pi / m)
    vals = []
    for eps in (1e-3, 1e-4):
        pt = dict(point)
        pt["z"] = root * (1 + eps)
        vals.append(abs(A.eval_numeric(pt)))
    if vals[0] == 0.0:
        return 0
    return max(0, round(math.log10(vals[1] / vals[0])))


def regularity_report(g, r):
    """Inspect the z-poles of kac_rational(g, r) and the degree classes.

    Pole orders are measured numerically at a generic pairing-compatible
    point: a structural scan of the denominator atoms cannot see removable
    cyclotomic factors (an atom 1 - z^k never splits, even when only its
    z = 1 part is a genuine pole), and regularity at nontrivial roots of
    unity is exactly the behavior worth reporting.  The clearing booleans
    are exact.
    """
    A = kac_rational(g, r)
    candidates = set()
    for atom in _z_atoms(A):
        candidates.update(_root_orders(atom))
    point = _zeta.paired_point(
        4.0, [cmath.rect(2.0, 0.6 + 0.9 * i) for i in range(1, g + 1)])
    orders = {}
    for m in sorted(candidates):
        k = _numeric_pole_order(A, m, point)
        if k:
            orders[m] = k
    lin = not _z_atoms((A * _one_minus_z_pow(1)).normalize())
    power = not _z_atoms((A * _one_minus_z_pow(r)).normalize())
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

    Small genera use literal curves; g >= 3 is synthesized from g distinct
    Frobenius traces over F_4 (distinct quadratic factors keep the zeta
    numerator roots simple for the numeric root finder).  Supported
    through g = 9.
    """
    if g == 0:
        return _zeta.weil_from_counts(2, [])
    if g == 1:
        return _zeta.weil_from_counts(2, [3])
    if g == 2:
        return _zeta.weil_from_counts(3, [3, 13])
    traces = (0, 1, 2, 3, -1, -2, -3, 4, -4)
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
        f = FactoredRat.from_poly(SparsePoly(terms))
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
        coeffs.append(FactoredRat.from_poly(SparsePoly(terms)))
    f = BiSeries("T", order, coeffs)
    return pleth_log(pleth_exp(f)) == f


def _zeta_product_convergence(g, L):
    """∏_{i<=L} ζ_X(q^{-i}s) approaches the torsion volume series.

    Compared numerically at a sample curve; the truncation error of the
    finite product is O(q^{-L}) per coefficient.
    """
    curve = _sample_curve(g)
    point = curve.assignment()
    prod = BiSeries.one("s", L)
    for i in range(1, L + 1):
        prod = prod * frac_to_series(
            _zeta.zeta_at(g, 1, Monomial.of(q=-i, s=1)), "s", L)
    want = _zeta.torsion_volume_series(g, L)
    tol = 30.0 * curve.q ** (-L)
    for j in range(L + 1):
        a = prod.coefficient(j).eval_numeric(point)
        b = want.coefficient(j).eval_numeric(point)
        if abs(a - b) > tol * max(1.0, abs(b)):
            return False
    return True


def _siegel_instantiation(g, L):
    """The symbolic unstable volume against a direct numeric route.

    The direct route uses only the integer zeta-numerator coefficients and
    point counts: |Pic^0| = P(1) and Z_X(q^{-k}) = exp Σ_l N_l q^{-kl}/l.
    """
    curve = _sample_curve(g)
    point = curve.assignment()
    for r in (2, 3):
        sym = _zeta.siegel_volume(g, r).eval_numeric(point)
        pic0 = sum(curve.numerator)
        direct = curve.q ** ((g - 1) * (r * r - 1)) * pic0 / (curve.q - 1)
        for k in range(2, r + 1):
            s = sum(curve.count(l) * curve.q ** (-k * l) / l
                    for l in range(1, 60))
            direct *= math.exp(s)
        if abs(sym - direct) > 1e-8 * max(1.0, abs(direct)):
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


def _latex_monomial(m):
    return "".join(_latex_var(v, e) for v, e in m.items)


def _latex_coeff(c, is_first, has_mono):
    c = Fraction(c)
    sign = "-" if c < 0 else ("" if is_first else "+")
    c = abs(c)
    if c.denominator == 1:
        body = "" if (c == 1 and has_mono) else str(c.numerator)
    else:
        body = "\\tfrac{%d}{%d}" % (c.numerator, c.denominator)
    return sign + body


def latex_poly(p):
    """LaTeX for a SparsePoly, terms in the ring's canonical order."""
    terms = p.sorted_terms()
    if not terms:
        return "0"
    bits = []
    for i, (m, c) in enumerate(terms):
        mono = "" if m.is_one() else _latex_monomial(m)
        bits.append(_latex_coeff(c, i == 0, bool(mono)) + mono)
    return "".join(bits)


def _pattern_atoms(g, sign, k):
    """The pair-reduced atom factorization of ∏_{i=1}^{2g}(1 - sign·q^k·α_i)."""
    atoms = []
    for i in range(1, g + 1):
        name = alpha_name(2 * i - 1)
        atoms.append(Atom.make(sign, Monomial.of(q=k, **{name: 1})))
        atoms.append(Atom.make(sign, Monomial.of(q=k + 1, **{name: -1})))
    return atoms


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
    pre = f.prefactor
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
            num = trial
            pre = pre * mono ** -1
            factors.append(_pattern_latex(sign, k, g))
    rest = FactoredRat(pre, num, f.denominator).normalize()
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
    num = f.numerator.mul_monomial(f.prefactor)
    if not f.denominator:
        return latex_poly(num)
    den = SparsePoly.one()
    for a in f.denominator:
        den = den.mul_atom(a)
    return "\\frac{%s}{%s}" % (latex_poly(num), latex_poly(den))
