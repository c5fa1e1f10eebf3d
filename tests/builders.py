"""Value builders that only the tests use."""

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import repeat
from operator import and_, itemgetter, or_, rshift

from census.errors import HigherOrderPole, SubstitutionToZeroPole
from census.partitions import chain_blocks, pairing, partitions_of
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
    _at_point,
    _check,
    _DivisionFilter,
    _clean,
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
from census.series import BiSeries, z_decompose
from census.zeta import alpha_name, alpha_names, pair_reduce


def geometric(constant=1, **exponents):
    """1/(1 - constant*monomial(**exponents))."""
    return atom_inverse(constant, Monomial(exponents))


def const(c):
    """The constant FactoredRat c."""
    return FactoredRat.from_monomial(ONE_MONOMIAL, c)


def series(var, coeffs):
    """The BiSeries Σ coeffs[j] var^j, exact through len(coeffs) - 1."""
    return BiSeries(var, len(coeffs) - 1, coeffs)


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
    return pair_reduce(FactoredRat(pref, num, tuple(dens)), g)


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
    pref = ONE_MONOMIAL
    num = SparsePoly.one()
    dens = []
    for p in pieces:
        pref = pref * p.prefactor
        num = num * p.numerator
        dens.extend(p.denominator)
    return FactoredRat(pref, num, tuple(dens))


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
    rest = FactoredRat(f.prefactor, f.numerator, tuple(regular))
    return rest.substitute(var, 1, point).mul_scalar(Fraction(-1, e))


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
        f = f.substitute(_z(first), 1, Monomial.of(z=part, q=1 - first))
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
    az = f.prefactor.exponent(var)
    slot = _slot(var)
    low = min(_read(m, slot) for m in f.numerator.terms) + az
    if low > bound:
        return FactoredRat.zero()
    num = _drop_high(f.numerator, var, bound - az)
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
        num = _drop_high(num * SparsePoly(geom), var, bound - az)
    return FactoredRat(f.prefactor, num, tuple(keep)).normalize()


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
    poly = f.numerator.mul_monomial(f.prefactor)
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
        num = f.numerator.mul_monomial(f.prefactor)
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
            r, e = _at_point(f.prefactor, w)
            img = {d + e: v * r for d, v in img.items()}
            for a, k in lcm.items():
                for _ in range(k - c.get(a, 0)):
                    cc = _specialize(a, w)
                    if cc is None:
                        return None
                    img = _mul_binomial_mod(img, cc, a.shape.exponent(w))
            for d, v in img.items():
                out[d] = out.get(d, 0) + v
        return {d: v % _P for d, v in out.items() if v % _P}

    return FactoredRat(ONE_MONOMIAL, num,
                       _sorted_atoms(lcm.elements())).normalize(seed)


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
    num = filt.poly
    mc = num.content_monomial()
    return FactoredRat(f.prefactor * mc, num.mul_monomial(mc ** -1),
                       _sorted_atoms(den), normalized=True)


def normalize_by_division(f):
    """normalize with no division filter: each atom, in Atom.key order, is
    cancelled by exact division as often as it divides, and the content
    monomial is then moved into the prefactor."""
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
    mc = num.content_monomial()
    return FactoredRat(f.prefactor * mc, num.mul_monomial(mc ** -1),
                       _sorted_atoms(den), normalized=True)


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
    """FactoredRat.substitute of one variable: the prefactor, numerator
    and each atom substituted on their own, then normalize."""
    if image.exponent(var):
        raise ValueError("substitution image mentions %r itself" % (var,))
    sc, pre = f.prefactor.subs(var, coeff, image)
    num = f.numerator.substitute(var, coeff, image)
    den = []
    scale = Fraction(sc)
    for a in f.denominator:
        kind, payload = a.subs(var, coeff, image)
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
    if scale != 1:
        num = num.mul_scalar(scale)
    return FactoredRat(pre, num, den).normalize()


def pair_reduce_by_roots(f, g):
    """pair_reduce one even root at a time, each substitution followed by
    a normalize."""
    for i in range(1, g + 1):
        f = substitute_by_atoms(f, alpha_name(2 * i), 1,
                                Monomial.of(q=1, **{alpha_name(2 * i - 1): -1}))
    return f.normalize()


def sorted_terms_by_fields(p):
    """SparsePoly.sorted_terms with each term's key built from its
    (name, exponent) fields."""
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
    Monomial.exponent."""
    names = f.numerator.variables().union(
        f.prefactor.variables(), *(a.shape.variables() for a in f.denominator))
    variables = sorted(names, key=var_key)
    return {
        "variables": variables,
        "prefactor": _exponents(f.prefactor, variables),
        "numerator": _terms_to_json_by_exponents(f.numerator, variables),
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
    Q0 = (A0 * pipeline._one_minus_z_pow(r)).normalize()
    sums = [Fraction(0)] * r
    for j, c in z_decompose(Q0).items():
        sums[j % r] += pipeline._as_rational(c)
    return tuple(sums)


def univariate_by_support(poly, w):
    """Whether poly involves no variable but w, read from its whole
    support: the test that the division filter's early-exit
    _univariate replaced."""
    return all(_NAMES[s] == w for s in _support(poly.terms))
