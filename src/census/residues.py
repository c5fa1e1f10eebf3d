"""The one-variable weights H_λ(z): iterated chain residues of the S_n
kernel Σ_σ K_σ, taken one summand at a time (a residue is linear), then
specialized and added once.  build_L, the kernel over one common
denominator, is only the reference that the tests compare against.

Dividing the σ-permuted ζ̃-product by the unpermuted one leaves exactly
one ratio factor ρ(z_a/z_b) = ζ̃(z_a/z_b)/ζ̃(z_b/z_a) per inversion of σ,
and ρ collapses to −(w−q)∏_i(1−α_i w) / ((1−qw)∏_i(w−α_i)), independent
of the genus; it is kept modulo the Weil relations α_{2i−1}α_{2i} = q.

Residues are taken in the kernel variables themselves: inside a block,
the constraint z_k = q^{-1}z_{k-1} is a simple pole in z_k once the
variables below it are held fixed, and the measure is dz_k/z_k.  Blocks
come from partitions.chain_blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .errors import HigherOrderPole
from .partitions import chain_blocks
from .ring import (
    Atom,
    FactoredRat,
    Monomial,
    ONE_MONOMIAL,
    SparsePoly,
    add_many,
    atom_inverse,
)
from .zeta import alpha_names, pair_reduce


def _z(i):
    return "z%d" % i


@dataclass(frozen=True)
class SymmetrizedKernel:
    n: int
    fraction: FactoredRat


def _rho(g, hi, lo):
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


def _summand(g, sigma):
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
                pieces.append(_rho(g, sigma[i], sigma[j]))
    pref = ONE_MONOMIAL
    num = SparsePoly.one()
    dens = []
    for p in pieces:
        pref = pref * p.prefactor
        num = num * p.numerator
        dens.extend(p.denominator)
    return FactoredRat(pref, num, tuple(dens))


@lru_cache(maxsize=None)
def build_L(g, n):
    """The full S_n kernel Σ_σ K_σ over one common denominator.  The main
    route never builds it; tests compare h_factor against it."""
    if n < 1:
        raise ValueError("kernel needs at least one variable")
    return SymmetrizedKernel(n, add_many(
        [_summand(g, sigma) for sigma in permutations(range(1, n + 1))]))


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
    the first variable of each block.

    Each block's chain is resolved from the top: the residue in z_k at
    z_k = q^{-1}z_{k-1}, for k = last down to first+1.  The defining
    orientation integrates out the non-final variable of each chain
    constraint; integrating the final one instead picks up a factor -1
    per constraint, compensated at the end.  Every root-carrying atom of a
    pair-reduced f keeps exactly one odd root, so the pole bookkeeping
    needs no Weil relations."""
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


@lru_cache(maxsize=None)
def h_factor(g, lam):
    """H_λ(z) = Σ_σ of the specialized Res_λ K_σ, modulo the Weil
    relations."""
    n = lam.length()
    if not n:
        return FactoredRat.one()
    return add_many([specialize_leaders(h_tilde(_summand(g, sigma), lam), lam)
                     for sigma in permutations(range(1, n + 1))])
