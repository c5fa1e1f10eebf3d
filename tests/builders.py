"""Value builders that only the tests use."""

from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import or_

from census.errors import HigherOrderPole
from census.partitions import chain_blocks
from census.ring import (
    ONE_MONOMIAL,
    Atom,
    FactoredRat,
    Monomial,
    SparsePoly,
    _at_point,
    _clean,
    _mul_binomial_mod,
    _read,
    _slot,
    _sorted_atoms,
    _specialize,
    atom_inverse,
)
from census.series import BiSeries, z_truncate_frac
from census.zeta import alpha_name, alpha_names, pair_reduce


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

    def seed(p, w):
        out = {}
        for f, c in zip(live, counts):
            img = f._images.get((p, w))
            if img is None:
                return None
            r, e = _at_point(f.prefactor, p, w)
            img = {d + e: v * r for d, v in img.items()}
            for a, k in lcm.items():
                for _ in range(k - c.get(a, 0)):
                    cc = _specialize(a, p, w)
                    if cc is None:
                        return None
                    img = _mul_binomial_mod(img, cc, a.shape.exponent(w), p)
            for d, v in img.items():
                out[d] = out.get(d, 0) + v
        return {d: v % p for d, v in out.items() if v % p}

    return FactoredRat(ONE_MONOMIAL, num,
                       _sorted_atoms(lcm.elements())).normalize(seed)
