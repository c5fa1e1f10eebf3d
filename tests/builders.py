"""Value builders that only the tests use."""

import cmath
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import and_, itemgetter, or_, rshift

from census.errors import HigherOrderPole, PoleArgument, SubstitutionToZeroPole
from census.partitions import box_stats, chain_blocks, pairing, partitions_of
from census.ring import (
    _HALF,
    _KEY,
    _MASK,
    _NAMES,
    _P,
    _ROUND,
    _SHIFT,
    ONE_MONOMIAL,
    Atom,
    FactoredRat,
    Monomial,
    SparsePoly,
    _check,
    _DivisionFilter,
    _clean,
    _moves,
    _mul_binomial_mod,
    _read,
    _slot,
    _sorted_atoms,
    _specialize,
    _support,
    atom_inverse,
    rational_to_json,
    var_key,
)
from census import pipeline
from census.series import BiSeries, LazyLog, _check_unit, z_decompose
from census.zeta import (_divmod, _gcd, _real_weil_polynomial, alpha_name,
                         alpha_names, one_minus, pair_reduce, zeta_at)


def geometric(constant=1, **exponents):
    """1/(1 - constant*monomial(**exponents))."""
    return atom_inverse(constant, Monomial(exponents))


def const(c):
    """The constant FactoredRat c."""
    return FactoredRat.from_monomial(ONE_MONOMIAL, c)


def series(var, coeffs):
    """The BiSeries Σ coeffs[j] var^j, exact through len(coeffs) - 1."""
    return BiSeries(var, len(coeffs) - 1, coeffs)


def substitute_poly(p, var, coeff, image):
    """The polynomial p under var -> coeff*image."""
    return p._moved(_moves([(var, coeff, image)]))


def atom_poly(atom):
    """The atom (1 - c*m) as a polynomial."""
    return SparsePoly._raw({0: 1, atom.shape.code: _clean(-atom.constant)})


def log_coefficient(log, n):
    """L_n, the x^n coefficient of the log F that a LazyLog holds: 0 at
    n = 0, else M_n/n."""
    if not n:
        return FactoredRat.zero()
    return log._m(n).mul_scalar(Fraction(1, n))


def series_log(f):
    """Ordinary logarithm of a series with constant term 1: solves
    F·L' = F' coefficientwise (LazyLog), O(order²) coefficient
    products."""
    _check_unit(f)
    log = LazyLog(f.coeffs.__getitem__)
    return BiSeries(f.var, f.order,
                    [log_coefficient(log, n) for n in range(f.order + 1)])


def zeta_tilde(g, coeff, monomial):
    """ζ̃(arg) = arg^{1-g} ζ(arg)."""
    c = Fraction(coeff)
    if c == 0:
        raise PoleArgument("zeta_tilde needs a nonzero argument")
    e = 1 - g
    scale = FactoredRat.from_monomial(monomial ** e).mul_scalar(c ** e)
    return (scale * zeta_at(g, coeff, monomial)).normalize()


# ---------------------------------------------------------------------------
# The fraction route to H_λ that census.residues replaced: each summand K_σ
# multiplied out, then residues and leader specialization on FactoredRat.
# The tests compare the factor-list route against it.

def _z(i):
    return "z%d" % i


def rho(g, hi, lo):
    """ζ̃(z_hi/z_lo)/ζ̃(z_lo/z_hi) for hi > lo, modulo the Weil relations:
    -(w-q)∏(1-α_i w) / ((1-qw)∏(w-α_i)) with w = z_hi/z_lo, then
    pair-reduced, so every product downstream stays in the g odd roots."""
    w = Monomial.of(**{_z(hi): 1, _z(lo): -1})
    num = SparsePoly({Monomial.of(q=1): 1, w: -1})      # q - w
    pref = ONE_MONOMIAL
    dens = []
    for name in alpha_names(g):
        am = Monomial.of(**{name: 1})
        num = num.mul_atom(Atom(Fraction(1), w * am))
        # (w - α) = -α(1 - w/α); the 2g sign flips cancel pairwise
        pref = pref * am ** -1
        dens.append(Atom(Fraction(1), w * am ** -1))
    dens.append(Atom(Fraction(1), w * Monomial.of(q=1)))
    return pair_reduce(FactoredRat(num.mul_monomial(pref), dens), g)


def kernel_summand(g, sigma):
    """K_σ: the chain atoms 1/(1-z_σ1) ∏ 1/(1-q z_σ(i+1)/z_σi) times one ρ
    per inversion of σ, multiplied out but not normalized."""
    n = len(sigma)
    pieces = [atom_inverse(1, Monomial.of(**{_z(sigma[0]): 1}))]
    for i in range(n - 1):
        shape = Monomial.of(q=1, **{_z(sigma[i + 1]): 1, _z(sigma[i]): -1})
        pieces.append(atom_inverse(1, shape))
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                pieces.append(rho(g, sigma[i], sigma[j]))
    num = SparsePoly.one()
    dens = []
    for p in pieces:
        num = num * p.numerator
        dens.extend(p.denominator)
    return FactoredRat(num, dens)


def res_simple(f, var, point=ONE_MONOMIAL):
    """Residue of the form f·d(var)/var at var = point, a monomial.

    The pole must be structurally simple after normalization: exactly one
    denominator atom may vanish identically on the substitution.  Returns
    0 when f is regular there.
    """
    if point.exponent(var):
        raise ValueError("residue point may not involve %s" % (var,))
    f = f.normalize()
    singular = []
    regular = []
    for atom in f.denominator:
        e = atom.shape.exponent(var)
        if e:
            rest = atom.shape.without(var) * point ** e
            if rest.is_one() and atom.constant == 1:
                singular.append((atom, e))
                continue
        regular.append(atom)
    if not singular:
        return FactoredRat.zero()
    if len(singular) > 1:
        raise HigherOrderPole(
            "pole of order %d at %s = %r" % (len(singular), var, point))
    _, e = singular[0]
    rest = FactoredRat(f.numerator, regular)
    return rest.substitute_all([(var, 1, point)]).mul_scalar(Fraction(-1, e))


def h_tilde(f, lam):
    """Res_λ of f, a fraction in z_1..z_n with n = ℓ(λ); a FactoredRat in
    the first variable of each block.  Each block's chain is resolved from
    the top, and the sign (-1)^{ℓ(λ) - #blocks} restores the orientation."""
    blocks = chain_blocks(lam)
    if not blocks:
        raise ValueError("partition must be nonempty")
    for _, first, last in blocks:
        for k in range(last, first, -1):
            f = res_simple(f, _z(k), Monomial.of(q=-1, **{_z(k - 1): 1}))
    if (lam.length() - len(blocks)) % 2:
        f = f.mul_scalar(-1)
    return f.normalize()


def specialize_leaders(f, lam):
    """The first variable of block i (part i) specialized to z^i q^{-r_{<i}},
    where r_{<i}, the number of variables in the blocks below, is its index
    less one."""
    for part, first, _ in chain_blocks(lam):
        f = f.substitute_all(
            [(_z(first), 1, Monomial.of(z=part, q=1 - first))])
    return f.normalize()


# ---------------------------------------------------------------------------
# The routes that the z-truncated series mode and lift_paired replaced:
# each z-atom expanded as a geometric series multiplied in whole, then the
# terms past the bound dropped; and the lift taken one Monomial at a time.
# The tests compare the new routes against them.

def _drop_high(poly, var, dmax):
    slot = _slot(var)
    return SparsePoly._raw({m: c for m, c in poly.terms.items()
                            if _read(m, slot) <= dmax})


def z_truncate_by_geometric(f, bound, var="z"):
    """z_truncate_frac by multiplying the numerator by Σ_k (c·m)^k for each
    var-atom (1 - c·m) and dropping what lies past bound."""
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
    slot = _slot(var)
    low = min(_read(m, slot) for m in f.numerator.terms)
    if low > bound:
        return FactoredRat.zero()
    num = _drop_high(f.numerator, var, bound)
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
        num = _drop_high(num * SparsePoly(geom), var, bound)
    return FactoredRat(num, keep).normalize()


def lift_paired_by_terms(f, g):
    """lift_paired one Monomial at a time: α_{2i-1}^{-1} = α_{2i}/q applied
    once per negative power; None when f is not a polynomial modulo the
    pairing relations."""
    f = f.normalize()
    if f.is_zero():
        return SparsePoly.zero()
    if f.denominator:
        return None
    odd = [alpha_name(2 * i - 1) for i in range(1, g + 1)]
    poly = f.numerator
    if not poly.variables() <= set(odd) | {"q"}:
        return None
    moves = [(name, Monomial.of(q=-1, **{name: 1, alpha_name(2 * i): 1}))
             for i, name in enumerate(odd, start=1)]
    out = {}
    for code, c in poly.terms.items():
        m = Monomial.from_code(code)
        for name, move in moves:
            b = m.exponent(name)
            if b < 0:
                m = m * move ** -b
        if m.exponent("q") < 0:
            return None
        out[m] = out.get(m, 0) + c
    return SparsePoly(out)


def add_many_by_lcm(fracs):
    """add_many as it was before the atoms sure to cancel were removed
    ahead of normalize: every numerator is multiplied by all of its
    missing atoms, and normalize divides out what cancels."""
    live = [f for f in fracs if not f.numerator.is_zero()]
    if not live:
        return FactoredRat.zero()
    counts = [Counter(f.denominator) for f in live]
    lcm = reduce(or_, counts)
    total = {}
    for f, c in zip(live, counts):
        num = f.numerator
        for a, k in lcm.items():
            for _ in range(k - c.get(a, 0)):
                num = num.mul_atom(a)
        for m, cf in num.terms.items():
            total[m] = total.get(m, 0) + cf
    num = SparsePoly._raw({m: _clean(c) for m, c in total.items() if c})

    def seed(w):
        out = {}
        for f, c in zip(live, counts):
            img = f._images.get(w)
            if img is None:
                return None
            for a, k in lcm.items():
                for _ in range(k - c.get(a, 0)):
                    cc = _specialize(a, w)
                    if cc is None:
                        return None
                    img = _mul_binomial_mod(img, cc, a.shape.exponent(w))
            for d, v in img.items():
                out[d] = out.get(d, 0) + v
        return {d: v % _P for d, v in out.items() if v % _P}

    return FactoredRat(num, _sorted_atoms(lcm.elements())).normalize(seed)


# ---------------------------------------------------------------------------
# The paths that the monomial skip of normalize and the one-step pure-z
# λ-term replaced: every atom tried through the division filter, and the
# λ-term multiplied together from atom_inverse factors.  The tests compare
# the new paths against them byte for byte.

def normalize_by_filter(f):
    """normalize with every atom tried through the division filter, even
    on a numerator of one term."""
    filt = _DivisionFilter(f.numerator)
    den = []
    for atom, k in sorted(Counter(f.denominator).items(),
                          key=lambda ak: ak[0].key()):
        den += [atom] * (k - filt.cancel(atom, k))
    return FactoredRat(filt.poly, _sorted_atoms(den), normalized=True)


def normalize_by_division(f):
    """normalize with no division filter: each atom, in Atom.key order, is
    cancelled by exact division as often as it divides."""
    num = f.numerator
    if num.is_zero():
        return FactoredRat.zero()
    den = []
    for atom, k in sorted(Counter(f.denominator).items(),
                          key=lambda ak: ak[0].key()):
        while k:
            quotient = num.divide_atom(atom)
            if quotient is None:
                break
            num, k = quotient, k - 1
        den += [atom] * k
    return FactoredRat(num, _sorted_atoms(den), normalized=True)


def constant_lambda_term_by_chain(g, lam):
    """The pure-z λ-term z^{(g-1)<λ,λ>-ℓ(λ)} ∏_i ∏_{j<=m_i(λ)} 1/(1-z^{-j})
    as a product of atom_inverse factors."""
    t = FactoredRat.from_monomial(
        Monomial.of(z=(g - 1) * pairing(lam, lam) - len(lam)))
    for mult in Counter(tuple(lam)).values():
        for j in range(1, mult + 1):
            t = t * atom_inverse(1, Monomial.of(z=-j))
    return t


# ---------------------------------------------------------------------------
# The passes that the one-map pair reduction and the row serializer
# replaced, and the content read slot by slot: the even roots substituted
# one at a time with a normalize after each, and every exponent of the
# JSON read again through Monomial.exponent.  The tests compare the
# library's passes against them byte for byte.

def content_monomial_by_slots(p):
    """The content monomial with a min pass over every slot of the
    support."""
    terms = p.terms
    code = 0
    for s in _support(terms):
        rnd, sh = _ROUND[s], _SHIFT[s]
        low = min(map(and_, map(rshift, map(rnd.__add__, terms),
                                repeat(sh)), repeat(_MASK)))
        code += (low - _HALF) << sh
    return Monomial._raw(code)


def substitute_by_atoms(f, var, coeff, image):
    """FactoredRat.substitute_all of one variable: the numerator and each
    atom substituted on their own, then normalize."""
    if image.exponent(var):
        raise ValueError("substitution image mentions %r itself" % (var,))
    pre = ONE_MONOMIAL
    num = substitute_poly(f.numerator, var, coeff, image)
    den = []
    scale = Fraction(1)
    for a in f.denominator:
        kind, payload = a._moved(_moves([(var, coeff, image)]))
        if kind == "zero":
            raise SubstitutionToZeroPole("atom %s vanishes" % (a,))
        if kind == "scalar":
            scale /= payload
            continue
        u, um, at = payload
        if u != 1:
            scale /= u
        if not um.is_one():
            pre = pre * um ** -1
        den.append(at)
    num = num.mul_monomial(pre)
    if scale != 1:
        num = num.mul_scalar(scale)
    return FactoredRat(num, den).normalize()


def pair_reduce_by_roots(f, g):
    """pair_reduce one even root at a time, each substitution followed by
    a normalize."""
    for i in range(1, g + 1):
        f = substitute_by_atoms(f, alpha_name(2 * i), 1,
                                Monomial.of(q=1, **{alpha_name(2 * i - 1): -1}))
    return f.normalize()


def sorted_terms_by_fields(p):
    """The terms of SparsePoly.sorted_items as (Monomial, coefficient)
    pairs, each term's key built from its (name, exponent) fields."""
    reads = [(_ROUND[s], _SHIFT[s], _NAMES[s], _KEY[s])
             for s in _support(p.terms)]
    rows = []
    for m, c in p.terms.items():
        fields = [(name, vk, (((m + rnd) >> sh) & _MASK) - _HALF)
                  for rnd, sh, name, vk in reads]
        items = tuple((name, e) for name, _, e in fields if e)
        key = (sum(e for _, e in items),
               tuple((vk, e) for _, vk, e in fields if e))
        rows.append((key, Monomial._raw(m, items), c))
    rows.sort(key=itemgetter(0), reverse=True)
    return [row[1:] for row in rows]


def _exponents(m, variables):
    return [m.exponent(v) for v in variables]


def _terms_to_json_by_exponents(p, variables):
    return [[_exponents(m, variables), rational_to_json(c)]
            for m, c in sorted_terms_by_fields(p)]


def poly_to_json_by_exponents(p):
    """poly_to_json reading every exponent through Monomial.exponent."""
    variables = sorted(p.variables(), key=var_key)
    return {"variables": variables,
            "terms": _terms_to_json_by_exponents(p, variables)}


def frac_to_json_by_exponents(f):
    """FactoredRat.to_json reading every exponent through
    Monomial.exponent, with the content monomial split off slot by slot."""
    pre = content_monomial_by_slots(f.numerator)
    num = f.numerator.mul_monomial(pre ** -1)
    names = num.variables().union(
        pre.variables(), *(a.shape.variables() for a in f.denominator))
    variables = sorted(names, key=var_key)
    return {
        "variables": variables,
        "prefactor": _exponents(pre, variables),
        "numerator": _terms_to_json_by_exponents(num, variables),
        "denominator": [[rational_to_json(a.constant),
                         _exponents(a.shape, variables)]
                        for a in _sorted_atoms(f.denominator)],
    }


# ---------------------------------------------------------------------------
# The division that the line walk of divide_atom replaced, and the pairwise
# fold that the pure-z partition sum replaced by one add_many per T^k.  The
# tests compare the new routes against them byte for byte.

def divide_atom_by_buckets(p, atom):
    """SparsePoly.divide_atom by bottom-up synthetic division in the
    leading variable v of the shape: the terms sorted into one dict per
    v-degree, each carried d degrees up, every carried code checked."""
    if not p.terms:
        return p
    v, d = atom.shape.leading()
    sh = _SHIFT[_slot(v)]
    shape_rest = atom.shape.code - (d << sh)
    c = atom.constant_fast
    buckets = p.split(v)
    hi = max(buckets)
    lo = min(buckets)
    qmax = hi - d
    quotient = {}
    for k in range(lo, hi + 1):
        blk = buckets.pop(k, None)
        if not blk:
            continue
        blk = {m0: cf for m0, cf in blk.items() if cf}
        if not blk:
            continue
        if k > qmax:
            return None
        vk = k << sh
        for m0, cf in blk.items():
            quotient[m0 + vk] = _clean(cf)
        carry = buckets.setdefault(k + d, {})
        for m0, cf in blk.items():
            m1 = _check(m0 + shape_rest)
            carry[m1] = carry.get(m1, 0) + c * cf
    return SparsePoly._raw(quotient)


def partition_sum_by_pairs(term, k):
    """The T^k coefficient Σ_{|λ|=k} term(λ) of a partition sum, added
    pairwise."""
    if not k:
        return FactoredRat.one()
    terms = [term(lam) for lam in partitions_of(k)]
    return sum(terms[1:], terms[0])


def constant_class_sums_by_decompose(g, r):
    """The class sums of constant_term read through z_decompose: one
    normalized FactoredRat per z-degree of Q0, each made a Fraction."""
    A0 = pipeline._constant_log(g).pleth_coefficient(r).mul_scalar(-1)
    Q0 = (A0 * one_minus(1, Monomial.of(z=r))).normalize()
    sums = [Fraction(0)] * r
    for j, c in z_decompose(Q0).items():
        sums[j % r] += pipeline._as_rational(c)
    return tuple(sums)


def univariate_by_support(poly, w):
    """Whether poly involves no variable but w, read from its whole
    support: the test that the division filter's early-exit
    _univariate replaced."""
    return all(_NAMES[s] == w for s in _support(poly.terms))


# ---------------------------------------------------------------------------
# The float routes that exact arithmetic replaced: complex-float values
# at a point, the Weil numbers of a curve by a root finder, counts
# rounded under an error bound, and the log-slope pole orders that
# regularity_report once estimated.

_WEIL_TOL = 1e-6
_ROOT_TOL = 1e-14     # _simple_roots' stopping step, a share of its radius


def eval_numeric(f, point, tol=1e-12):
    """A FactoredRat or SparsePoly at a numeric point, in complex floats;
    ZeroDivisionError where a denominator atom is within tol of 0."""
    def at(code):
        out = complex(1)
        for v, e in Monomial._raw(code).items:
            out *= point[v] ** e
        return out

    if isinstance(f, SparsePoly):
        f = FactoredRat(f)
    value = sum((c * at(m) for m, c in f.numerator.terms.items()), complex(0))
    for a in f.denominator:
        v = 1 - a.constant_fast * at(a.shape.code)
        if abs(v) <= tol:
            raise ZeroDivisionError("atom %s vanishes at the point" % (a,))
        value /= v
    return value


def paired_point(q, odd_roots):
    """Numeric assignment honoring the pair relations: the even root of
    each pair is q divided by the odd one."""
    pt = {"q": q}
    for i, a in enumerate(odd_roots, start=1):
        pt[alpha_name(2 * i - 1)] = a
        pt[alpha_name(2 * i)] = q / a
    return pt


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


def weil_numbers(curve):
    """σ_1..σ_{2g} of a curve's zeta numerator in complex floats, with
    σ_{2i-1}σ_{2i} = q.  Each root t of the real Weil polynomial h gives
    the pair σ, q/σ of roots of x² - t·x + q.  h is split exactly into
    squarefree levels, so a repeated root keeps its multiplicity; only the
    simple roots of each level are found numerically.  ValueError where
    the floats overflow."""
    q = curve.q
    try:
        sigmas = []
        for level in _squarefree_levels(_real_weil_polynomial(
                curve.numerator, q)):
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
        if not all(map(cmath.isfinite, sigmas)):
            raise OverflowError
    except OverflowError:
        raise ValueError("q and the point counts are too large for numeric "
                         "root extraction") from None

    # put the lower (re, im) first in each pair, and order the pairs by
    # their first members
    def key(s):
        return round(s.real, 9), round(s.imag, 9)

    pairs = [sorted(sigmas[i:i + 2], key=key)
             for i in range(0, len(sigmas), 2)]
    pairs.sort(key=lambda pair: key(pair[0]))
    return tuple(s for pair in pairs for s in pair)


def is_weil_by_roots(curve):
    """Whether every float Weil number has |σ| = √q to _WEIL_TOL."""
    sq = math.sqrt(curve.q)
    return all(abs(abs(s) - sq) <= _WEIL_TOL * sq
               for s in weil_numbers(curve))


def weil_point(curve):
    """The numeric point {q: q, a_i: σ_i} of a curve's Weil numbers."""
    point = {"q": complex(curve.q)}
    point.update(zip(alpha_names(curve.genus), weil_numbers(curve)))
    return point


def _rounding_bound(poly, q):
    """A bound on the float error of poly at the Weil numbers of a curve
    over F_q.  A term c·m of degree k in the roots has |m(σ)| =
    q^{e_q + k/2}, as |σ| = √q.  Each σ is off by about _ROOT_TOL of
    itself, the root finder's stopping step, so the term by k·_ROOT_TOL
    of its size; float products and the sum of N add (e_q + k + N)·ε.
    A bound beyond the float range is inf."""
    n, eps = len(poly.terms), sys.float_info.epsilon
    bound = 0.0
    for code, c in poly.terms.items():
        exps = dict(Monomial._raw(code).items)
        e_q = exps.pop("q", 0)
        k = sum(map(abs, exps.values()))
        try:
            size = q ** (e_q + k / 2)
        except OverflowError:
            return math.inf
        bound += abs(c) * size * (k * _ROOT_TOL + (e_q + k + n) * eps)
    return bound


def float_count(curve, r, d):
    """A_{g,r,d} at a curve as the polynomial model in floats at the
    Weil numbers, rounded; None where _rounding_bound is not below 1/4.
    Where the bound allows, the float value must lie that close to an
    integer."""
    lifted = pipeline.kac_polynomial(curve.genus, r, d).lifted
    if not _rounding_bound(lifted, curve.q) < 0.25:
        return None
    v = eval_numeric(lifted, weil_point(curve))
    n = round(v.real)
    assert abs(v - n) < min(0.25, 1e-6 * max(1.0, abs(v))), (curve, r, d, v)
    return n


def quotient_ring_value(f, q, traces):
    """f, a polynomial in a1..a{2g} and q, in the ring ⊗_i Q[x_i]/(x_i² -
    t_i·x_i + q) with a_{2i-1} = x_i and a_{2i} = t_i - x_i = q/x_i: the
    value at a curve whose real Weil polynomial has the roots t_i, as a
    Fraction, with no Weil number written down.  Every coefficient but
    that of 1 must vanish."""
    def mul(u, v, t):
        return (u[0] * v[0] - q * u[1] * v[1],
                u[0] * v[1] + u[1] * v[0] + t * u[1] * v[1])

    total = Counter()
    for m, c in f.terms.items():
        exps = dict(Monomial._raw(m).items)
        vec = {(): Fraction(c) * q ** exps.pop("q", 0)}
        for i, t in enumerate(traces, start=1):
            u = (1, 0)
            for root, n in (((0, 1), exps.get(alpha_name(2 * i - 1), 0)),
                            ((t, -1), exps.get(alpha_name(2 * i), 0))):
                for _ in range(n):
                    u = mul(u, root, t)
            vec = {k + (b,): w * u[b] for k, w in vec.items() for b in (0, 1)}
        total.update(vec)
    assert not any(w for k, w in total.items() if any(k)), total
    return total[(0,) * len(traces)]


def numeric_pole_order(A, m, point):
    """log-slope estimate of the pole order at a primitive m-th root."""
    root = cmath.exp(2j * cmath.pi / m)
    vals = []
    for eps in (1e-3, 1e-4):
        pt = dict(point)
        pt["z"] = root * (1 + eps)
        vals.append(abs(eval_numeric(A, pt)))
    if vals[0] == 0.0:
        return 0
    return max(0, round(math.log10(vals[1] / vals[0])))


def numeric_pole_orders(A, g):
    """The z-pole orders of A, a fraction in z, q and the g odd roots, as
    complex-float log-slopes at a fixed pairing-compatible point."""
    candidates = set()
    for atom in pipeline._z_atoms(A):
        candidates.update(pipeline._root_orders(atom))
    point = paired_point(
        4.0, [cmath.rect(2.0, 0.6 + 0.9 * i) for i in range(1, g + 1)])
    orders = {}
    for m in sorted(candidates):
        k = numeric_pole_order(A, m, point)
        if k:
            orders[m] = k
    return orders


def kac_by_residues(g, r, d):
    """kac_polynomial(g, r, d) from the residue route's degree-class sums,
    with is_d_independent read from them."""
    sums = pipeline.degree_class_sums(g, r)
    value = sums[d % r]
    return pipeline.KacResult(
        genus=g, rank=r, degree_class=d % r, value=value,
        lifted=pipeline.lift_paired(value, g),
        is_d_independent=all(s == sums[0] for s in sums[1:]),
        route="log-extraction", orders={"T": r})


def betti_by_box_product(g, r):
    """betti_polynomial(g, r, d), the same for every d, from the (z, w)
    box product of Hausel and Rodriguez-Villegas (arXiv:math/0612668):
    t^{2(1+(g-1)r²)} times (z² - 1)(1 - w²)·[T^r] Log of
    Σ_λ ∏_□ (z^{2a+1} - w^{2l+1})^{2g} / ((z^{2a+2} - w^{2l})(z^{2a} -
    w^{2l+2})) T^{|λ|} at w = 1 and z = -t, w held in s.  It shares only
    the ring and LazyLog with the library's route: no Weil numbers, no
    zeta-numerator coordinates, and the ring's plain Adams operations."""
    def box(a, l):
        base = SparsePoly({Monomial.of(z=2 * a + 1): 1,
                           Monomial.of(s=2 * l + 1): -1})
        num = reduce(SparsePoly.__mul__, [base] * (2 * g), SparsePoly.one())
        # 1/(z^{2a+2} - w^{2l}) = z^{-2a-2}/(1 - w^{2l} z^{-2a-2}), and so on
        return (FactoredRat(num.mul_monomial(Monomial.of(z=-4 * a - 2)))
                * geometric(1, z=-2 * a - 2, s=2 * l)
                * geometric(1, z=-2 * a, s=2 * l + 2))

    def term(lam):
        out = FactoredRat.one()
        for a, l in box_stats(lam):
            out = out * box(a, l)
        return out

    def coefficient(k):
        if not k:
            return FactoredRat.one()
        return reduce(FactoredRat.__add__, map(term, partitions_of(k)))

    A = (LazyLog(coefficient).pleth_coefficient(r)
         * FactoredRat(SparsePoly({Monomial.of(z=2): 1, ONE_MONOMIAL: -1}))
         * one_minus(1, Monomial.of(s=2)))
    A = (A.substitute_all([("s", 1, ONE_MONOMIAL)])
         .substitute_all([("z", -1, Monomial.of(t=1))]))
    assert not A.denominator, A
    return A.numerator.mul_monomial(Monomial.of(t=2 * (1 + (g - 1) * r * r)))
