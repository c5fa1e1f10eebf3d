"""The one-variable weights H_λ(z): iterated chain residues of the S_n
kernel Σ_σ K_σ, taken one summand at a time (a residue is linear), then
specialized, multiplied out and added once.  build_L, the kernel over one
common denominator, is only a reference for the tests.

Dividing the σ-permuted ζ̃-product by the unpermuted one leaves one ratio
ρ(z_a/z_b) = ζ̃(z_a/z_b)/ζ̃(z_b/z_a) per inversion of σ, and ρ collapses to
−(w−q)∏_i(1−α_i w) / ((1−qw)∏_i(w−α_i)), independent of the genus.  Every
factor of K_σ is then a binomial (1 − c·m)^{±1}, so K_σ is kept as a
factor list (scalar, monomial, {Atom: signed multiplicity}), and
Atom._moved maps each factor under a residue or specialization to an
atom, a scalar or 0.  Residues are taken in the kernel variables: inside a
block (partitions.chain_blocks), z_k = q^{-1}z_{k-1} is a simple pole in
z_k once the variables below it are held fixed; the measure is dz_k/z_k.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from .errors import HigherOrderPole, SubstitutionToZeroPole
from .partitions import chain_blocks
from .ring import (Atom, FactoredRat, Monomial, ONE_MONOMIAL, SparsePoly,
                   _move, _moves, add_many)
from .zeta import alpha_names

SymmetrizedKernel = namedtuple("SymmetrizedKernel", "n fraction")


def _z(i):
    return "z%d" % i


def _factor_list(factors, mono=ONE_MONOMIAL):
    """mono times ∏ (1 − m)^k over the (k, {variable: exponent of m})
    pairs, as a factor list."""
    scalar, atoms = Fraction(1), Counter()
    for k, shape in factors:
        u, um, atom = Atom.make(1, Monomial(shape))
        scalar *= Fraction(u) ** k
        mono = mono * um ** k
        atoms[atom] += k
    return scalar, mono, atoms


@lru_cache(maxsize=None)
def _rho(g, hi, lo):
    """ρ(z_hi/z_lo) in the odd roots (α_{2i} = q/α_{2i−1}), as a factor list
    shared by every σ: with w = z_hi/z_lo, ρ = q^{1−g}(1−w/q)
    ∏_i(1−α_i w)(1−qw/α_i) / ((1−qw)∏_i(1−w/α_i)(1−α_i w/q))."""
    w = {_z(hi): 1, _z(lo): -1}
    factors = [(1, dict(w, q=-1)), (-1, dict(w, q=1))]
    for a in alpha_names(g)[::2]:
        factors += [(1, dict(w, **{a: 1})), (1, dict(w, q=1, **{a: -1})),
                    (-1, dict(w, **{a: -1})), (-1, dict(w, q=-1, **{a: 1}))]
    scalar, mono, atoms = _factor_list(factors, Monomial.of(q=1 - g))
    return scalar, mono, tuple(atoms.items())


def _summand(g, sigma):
    """K_σ: the chain atoms 1/(1-z_σ1) ∏ 1/(1-q z_σ(i+1)/z_σi) times one ρ
    per inversion."""
    chain = [(-1, {_z(sigma[0]): 1})] + [
        (-1, {"q": 1, _z(b): 1, _z(a): -1}) for a, b in zip(sigma, sigma[1:])]
    scalar, mono, atoms = _factor_list(chain)
    for a, b in combinations(sigma, 2):
        if a > b:
            s, m, rho = _rho(g, a, b)
            scalar, mono = scalar * s, mono * m
            for atom, k in rho:
                atoms[atom] += k
    return scalar, mono, {a: k for a, k in atoms.items() if k}


def _subs(term, var, image):
    """term under var -> image: the factor list of the atoms that stay
    atoms, and {atom: multiplicity} of those that vanish."""
    scalar, mono, atoms = term
    moves = _moves([(var, 1, image)])
    sc, code = _move(mono.code, moves)
    scalar, mono = scalar * sc, Monomial._raw(code)
    out, zero = Counter(), {}
    for atom, k in atoms.items():
        kind, payload = atom._moved(moves)
        if kind == "zero":
            zero[atom] = k
        elif kind == "scalar":
            scalar *= payload ** k
        else:
            u, um, at = payload
            scalar *= Fraction(u) ** k
            mono = mono * um ** k
            out[at] += k
    return (scalar, mono, {a: k for a, k in out.items() if k}), zero


def _expand(term):
    """The factor list multiplied out and normalized."""
    scalar, mono, atoms = term
    num = SparsePoly({mono: scalar})
    for atom, k in atoms.items():
        for _ in range(k):
            num = num.mul_atom(atom)
    den = [atom for atom, k in atoms.items() for _ in range(-k)]
    return FactoredRat(num, den).normalize()


@lru_cache(maxsize=None)
def build_L(g, n):
    """The full S_n kernel Σ_σ K_σ over one common denominator.  The main
    route never builds it; tests compare against it."""
    if n < 1:
        raise ValueError("kernel needs at least one variable")
    return SymmetrizedKernel(n, add_many(
        [_expand(_summand(g, sigma)) for sigma in permutations(range(1, n + 1))]))


def h_tilde(term, lam, sigma=None):
    """Res_λ of the factor list term (summand σ) in z_1..z_n, n = ℓ(λ): a
    factor list in the first variable of each block, or None for 0.

    Each block's chain is resolved from the top, at z_k = q^{-1}z_{k-1}
    for k = last down to first+1.  The residue is 0 if no denominator atom
    vanishes, and −1/e times the rest if one simple atom with z_k-exponent
    e and no numerator atom does; else HigherOrderPole.  Integrating out
    the final variable of each constraint instead of the defining
    non-final one flips every step's sign, so a step scales by 1/e."""
    blocks = chain_blocks(lam)
    if not blocks:
        raise ValueError("partition must be nonempty")
    for _, first, last in blocks:
        for k in range(last, first, -1):
            var = _z(k)
            term, zero = _subs(term, var, Monomial.of(q=-1, **{_z(k - 1): 1}))
            poles = [atom for atom, m in zero.items() if m < 0]
            if not poles:
                return None
            if len(zero) > 1 or zero[poles[0]] != -1:
                raise HigherOrderPole(
                    "summand %s: pole of order >= 2 at %s = q^-1*%s: %s"
                    % (sigma, var, _z(k - 1), zero))
            scalar, mono, atoms = term
            term = scalar / poles[0].shape.exponent(var), mono, atoms
    return term


def _specialize(term, lam):
    """The first variable of block i (part i) specialized to z^i q^{-r_{<i}},
    where r_{<i}, the number of variables in the blocks below, is its index
    less one; None when a numerator atom vanishes."""
    for part, first, _ in chain_blocks(lam):
        var, image = _z(first), Monomial.of(z=part, q=1 - first)
        term, zero = _subs(term, var, image)
        if any(k < 0 for k in zero.values()):
            raise SubstitutionToZeroPole(
                "an atom of %s vanishes identically under %s -> %s"
                % (zero, var, image))
        if zero:
            return None
    return term


@lru_cache(maxsize=None)
def h_factor(g, lam):
    """H_λ(z) = Σ_σ of the specialized Res_λ K_σ, modulo the Weil
    relations."""
    n = lam.length()
    if not n:
        return FactoredRat.one()
    residues = (h_tilde(_summand(g, sigma), lam, sigma)
                for sigma in permutations(range(1, n + 1)))
    specialized = (_specialize(term, lam) for term in residues if term)
    return add_many([_expand(term) for term in specialized if term])
