"""Exact arithmetic: Laurent monomials, sparse polynomials over Q, and
rational functions kept in factored form.

A rational function is stored as

    prefactor * numerator / product(denominator atoms)

where the prefactor is a Laurent monomial, the numerator is a sparse
multivariate polynomial with exact rational coefficients, and every
denominator factor is a binomial atom (1 - c*m) for a nonzero rational c
and a nonconstant Laurent monomial m.  Denominators are never expanded.

Cancellation.  normalize divides the numerator by each denominator atom
as often as it divides, in Atom.key order, and moves the numerator's
content monomial into the prefactor.  Each atom cancels min(multiplicity,
valuation) times, and for a fixed multiset of atoms left that form is
unique.  An atom a is free when it shares no factor with any atom of the
denominator that sorts before it (_free_atoms).  Dividing the numerator
by a free atom k times ahead of normalize, and taking k copies of it from
the denominator, keeps the bytes: the counts of the atoms before a do not
change, a's own falls by exactly k, and every later step starts from the
same state.  A product first divides each operand's numerator by the
free atoms of the other's denominator, as often as they divide
(cross-cancellation; Henrici 1956, Knuth TAOCP 4.5.1).  add_many keeps
the multiset maximum of the atoms as the common denominator, but removes
a free atom a k times when k separate missing atoms of every term are
divisible by a (1 - y divides 1 - y^n): each such atom b is multiplied in
as the quotient 1 + y + ... + y^(n-1), or left out when b = a.

Variable names follow a fixed ambient scheme: "a1".."a2g" for the Weil
coordinates, "q", "z", "T", the kernel variables "z1".."zn", and the
specialization variables "t" and "s".  The canonical order is
a* < q < z < T < z* < t < s.

Packed monomials.  A monomial is one Python int, its code: every
variable owns a signed 24-bit field, and the code of the exponent vector
e is sum(e[v] << 24 * slot(v)) (Monagan and Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).
The monomial 1 is 0, a product is an integer sum, m**k and the Adams
operation multiply the code by k, and an exponent is read with one
shift and one mask.  SparsePoly.terms is keyed by codes, so monomials
are hashed and compared in C.  Monomial wraps one code for callers.

Slot order.  The slot of a variable is a pure function of its name: q,
z, T, t and s take slots 0..4, and the i-th variable of the a and z
families takes slot 5 + 2(i-1) and 6 + 2(i-1).  A code therefore means
the same monomial in every process, whatever order the names were first
met in, so pickles and cache files written by one process read back the
same in another.  Each family has 128 variables (so genus <= 64); any
other name is rejected as unknown.  Decoding lists the variables in
canonical order; a whole polynomial puts its support in that order once.

Overflow.  Exponents must satisfy |e| < 2**22.  Encoding rejects larger
ones.  Every code made by a product, power, substitution or Adams
operation is checked (_check, _check_codes, _scale): the top two bits of
every field must agree, which holds exactly when the field, after the
borrow from the fields below, lies in [-2**22, 2**22).  So an exponent
beyond 2**22 in absolute value raises ExponentOverflow (one of exactly
2**22 may raise as well); a field never wraps silently.

Division filter.  Before each exact division of a numerator by a
denominator atom, normalize runs a cheap necessary test (_DivisionFilter):
every variable but one, w, is set to its residue mod a large prime p at
one fixed point, drawn once from a seeded generator, and the image of the
numerator, a Laurent polynomial in w over Z/p kept as a dict degree ->
nonzero residue, is divided by that of the atom.  Specialization is a ring
homomorphism, so images compose through the operations that build a
numerator: the image of a product is the convolution of its factors'
images, and that of a sum over a common denominator is the sum of its
terms' images, each shifted and scaled by its prefactor and multiplied by
its missing atoms, or their quotients, at the point.  A FactoredRat keeps
the images of its numerator (_images, keyed (p, w)); __mul__ and add_many
hand normalize a seed that composes the image of the numerator they built
(add_many only from images its terms already hold), so eval_mod reduces
a numerator only where no image is known, or where it involves no
variable but w (its image is then the polynomial itself, cheaper to
reduce than to compose).
Where it must reduce while w sorts before z and the numerator involves
z, the atom is z-free and divides the numerator only if it divides every
z-slice (the terms of one z-degree), so the filter reduces the
fewest-term slice alone.  Its images follow divisions by z-free atoms,
are dropped by one in z, and are never kept on the FactoredRat.  Exact
division still decides every cancellation: the filter changes the speed
of normalize, never a normal form.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, repeat
from math import gcd
from operator import and_, index, itemgetter, lshift, or_, rshift, xor

from .errors import ExponentOverflow, PoleAtPoint, SubstitutionToZeroPole

_VAR_FIXED = {"q": (1, 0), "z": (2, 0), "T": (3, 0), "t": (6, 0), "s": (7, 0)}
_VAR_FAMILY = {"a": 0, "z": 4}


@lru_cache(maxsize=None)
def var_key(name):
    """Sort key realizing the canonical variable order."""
    key = _VAR_FIXED.get(name)
    if key is not None:
        return key
    head, tail = name[0], name[1:]
    if tail.isdigit() and head in _VAR_FAMILY:
        return (_VAR_FAMILY[head], int(tail))
    raise ValueError("unknown variable %r" % (name,))


def _clean(c):
    """Collapse integral Fractions to int; keeps coefficient arithmetic fast."""
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


_W = 24                      # bits per field
_MASK = (1 << _W) - 1
_HALF = 1 << (_W - 1)
_LIMIT = 1 << (_W - 2)       # every |exponent| < _LIMIT is representable
_WINDOW = 4                  # slots per read in SparsePoly.eval_mod
_WINDOW_MASK = (1 << _W * _WINDOW) - 1

_NAMES = ["q", "z", "T", "t", "s"]
for _i in range(1, 129):
    _NAMES += ["a%d" % _i, "z%d" % _i]
_SLOT = {name: slot for slot, name in enumerate(_NAMES)}
_KEY = [var_key(name) for name in _NAMES]
_SHIFT = [_W * slot for slot in range(len(_NAMES))]
# Adding _ROUND[s] cancels the borrow from the fields below slot s and
# biases field s by _HALF, so shifting and masking reads e + _HALF.
_ROUND = [(_HALF << sh) + (1 << sh >> 1) for sh in _SHIFT]
_GUARD = sum(1 << (sh + _W - 1) for sh in _SHIFT)
_BIAS = sum(_HALF << sh for sh in _SHIFT)


def _slot(name):
    slot = _SLOT.get(name)
    if slot is None:
        raise ValueError("unknown variable %r" % (name,))
    return slot


def _read(code, slot):
    """The exponent of one slot of a code."""
    return (((code + _ROUND[slot]) >> _SHIFT[slot]) & _MASK) - _HALF


def _overflow():
    raise ExponentOverflow("a monomial exponent left the range |e| < %d"
                           % _LIMIT)


def _check(code):
    if (code ^ (code << 1)) & _GUARD:
        _overflow()
    return code


def _check_codes(codes):
    """_check every code of a dict or list, in C."""
    if reduce(or_, map(xor, codes, map(lshift, codes, repeat(1))), 0) & _GUARD:
        _overflow()


def _scale(code, k):
    """code * k, checked.  If 2**j * code passes _check for the first j
    with 2**j >= |k|, so does k * code; otherwise every field is read."""
    x = code
    for _ in range((abs(k) - 1).bit_length()):
        x <<= 1
        if (x ^ (x << 1)) & _GUARD:
            fields = [_read(code, s) for s in _support([code])]
            if max(map(abs, fields)) * abs(k) >= _LIMIT:
                _overflow()
            break
    return code * k


def _support(codes):
    """The slots in which some code of a dict or list has a nonzero
    exponent, in canonical variable order."""
    if not codes:
        return []
    n = max(map(abs, codes)).bit_length() // _W + 1
    bias = _BIAS & ((1 << _W * n) - 1)
    seen = reduce(or_, map(bias.__xor__, map(bias.__add__, codes)), 0)
    return sorted((s for s in range(n) if (seen >> _W * s) & _MASK),
                  key=_KEY.__getitem__)


class Monomial:
    """Immutable Laurent monomial: finite map variable -> nonzero integer
    exponent, held as its packed code (see the module docstring).

    items, the (variable, exponent) pairs in canonical order, is decoded
    on first use and kept.
    """

    __slots__ = ("code", "_items")

    def __init__(self, exponents=()):
        pairs = exponents.items() if isinstance(exponents, dict) else exponents
        code = 0
        for v, e in pairs:
            e = index(e)
            if e:
                if not -_LIMIT < e < _LIMIT:
                    _overflow()
                code += e << _SHIFT[_slot(v)]
        self.code = _check(code)
        self._items = None

    @staticmethod
    def of(**exponents):
        return Monomial(exponents)

    @staticmethod
    def from_code(code):
        """The monomial of a packed code; ExponentOverflow if out of range."""
        return Monomial._raw(_check(code))

    @staticmethod
    def _raw(code, items=None):
        # caller guarantees code passed _check
        m = object.__new__(Monomial)
        m.code = code
        m._items = items
        return m

    @property
    def items(self):
        items = self._items
        if items is None:
            code = self.code
            items = self._items = tuple((_NAMES[s], _read(code, s))
                                        for s in _support([code]))
        return items

    def __mul__(self, other):
        if not other.code:
            return self
        if not self.code:
            return other
        return Monomial._raw(_check(self.code + other.code))

    def __pow__(self, k):
        if k == 0 or not self.code:
            return _ONE_M
        if k == 1:
            return self
        return Monomial._raw(_scale(self.code, k))

    def exponent(self, var):
        slot = _SLOT.get(var)
        return 0 if slot is None else _read(self.code, slot)

    def without(self, var):
        e = self.exponent(var)
        if not e:
            return self
        return Monomial._raw(self.code - (e << _SHIFT[_SLOT[var]]))

    def leading(self):
        """(variable, exponent) of the canonically last variable present."""
        return self.items[-1]

    def degree(self):
        return sum(e for _, e in self.items)

    def variables(self):
        return [v for v, _ in self.items]

    def is_one(self):
        return not self.code

    def subs(self, var, coeff, image):
        """Replace var by coeff*image; return (rational scalar, monomial)."""
        e = self.exponent(var)
        if not e:
            return 1, self
        code = self.code - (e << _SHIFT[_SLOT[var]]) + _scale(image.code, e)
        return _clean(Fraction(coeff) ** e), Monomial._raw(_check(code))

    def eval(self, assignment):
        out = complex(1)
        for v, e in self.items:
            base = assignment[v]
            if base == 0 and e < 0:
                raise PoleAtPoint("monomial %s has a pole at %s=0" % (self, v))
            out *= base ** e
        return out

    def sort_key(self):
        return (self.degree(), tuple((var_key(v), e) for v, e in self.items))

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.code == other.code

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        if not self.code:
            return "1"
        return "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in self.items)


_ONE_M = Monomial()
ONE_MONOMIAL = _ONE_M


class SparsePoly:
    """Sparse Laurent polynomial: finite map monomial code -> exact
    rational coefficient.

    terms is keyed by packed codes (see the module docstring); the
    constructor also takes Monomial keys.  Coefficients are Python ints
    when integral and Fractions otherwise; zero coefficients are never
    stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        d = {}
        if terms:
            pairs = terms.items() if isinstance(terms, dict) else terms
            for m, c in pairs:
                if c:
                    if isinstance(m, Monomial):
                        m = m.code
                    n = d.get(m, 0) + c
                    if n:
                        d[m] = _clean(n)
                    elif m in d:
                        del d[m]
        self.terms = d

    @classmethod
    def _raw(cls, d):
        p = object.__new__(cls)
        p.terms = d
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({0: 1})

    @classmethod
    def const(cls, c):
        c = _clean(c)
        return cls._raw({0: c} if c else {})

    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, SparsePoly) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            n = out.get(m)
            if n is None:
                out[m] = c
            else:
                n = n + c
                if n:
                    out[m] = _clean(n)
                else:
                    del out[m]
        return SparsePoly._raw(out)

    def __neg__(self):
        return SparsePoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if not a or not b:
            return SparsePoly._raw({})
        if len(a) < len(b):
            a, b = b, a
        out = {}
        get = out.get
        for mb, cb in b.items():
            for ma, ca in a.items():
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
        _check_codes(out)
        return SparsePoly._raw({m: _clean(c) for m, c in out.items() if c})

    def mul_scalar(self, c):
        if not c:
            return SparsePoly._raw({})
        if c == 1:
            return self
        return SparsePoly._raw({m: _clean(cf * c) for m, cf in self.terms.items()})

    def mul_monomial(self, mono, c=1):
        if not c:
            return SparsePoly._raw({})
        d = mono.code
        if not d:
            return self.mul_scalar(c)
        if c == 1:
            out = {m + d: cf for m, cf in self.terms.items()}
        else:
            out = {m + d: _clean(cf * c) for m, cf in self.terms.items()}
        _check_codes(out)
        return SparsePoly._raw(out)

    def mul_atom(self, atom):
        """Multiply by the binomial (1 - c*shape) without full convolution."""
        d, c = atom.shape.code, atom.constant_fast
        out = dict(self.terms)
        get = out.get
        for m, cf in self.terms.items():
            m += d
            if (m ^ (m << 1)) & _GUARD:
                _overflow()
            out[m] = get(m, 0) - c * cf
        return SparsePoly._raw({m: _clean(cf) for m, cf in out.items() if cf})

    def adams(self, k):
        """Raise every variable to its k-th power (monomial exponents scale by k)."""
        if k == 1:
            return self
        return SparsePoly._raw({_scale(m, k): c
                                for m, c in self.terms.items()})

    def substitute(self, var, coeff, image):
        slot = _slot(var)
        rnd, sh = _ROUND[slot], _SHIFT[slot]
        img = image.code
        by_exp = {}      # exponent of var -> (scalar, code shift)
        out = {}
        get = out.get
        for m, cf in self.terms.items():
            e = (((m + rnd) >> sh) & _MASK) - _HALF
            if e:
                sd = by_exp.get(e)
                if sd is None:
                    sd = by_exp[e] = (_clean(Fraction(coeff) ** e),
                                      _scale(img, e) - (e << sh))
                m += sd[1]
                if (m ^ (m << 1)) & _GUARD:
                    _overflow()
                cf = cf * sd[0]
            out[m] = get(m, 0) + cf
        return SparsePoly._raw({m: _clean(c) for m, c in out.items() if c})

    def eval_numeric(self, assignment):
        return sum((c * Monomial._raw(m).eval(assignment)
                    for m, c in self.terms.items()), complex(0))

    def eval_mod(self, p, assignment, main_var, support=None):
        """Reduce to a univariate polynomial in main_var over Z/p.

        Returns a dict degree -> nonzero residue.  Raises ValueError when p
        divides a coefficient denominator (caller should retry with
        another prime).  support, when the caller knows it, lists slots
        that hold every variable of the terms, and saves a pass over them.
        """
        terms = self.terms
        main = _slot(main_var)
        mrnd, msh = _ROUND[main], _SHIFT[main]
        # The other variables are read in windows of up to _WINDOW slots,
        # one shift and mask each; a window's product of powers is cached
        # under its biased value.
        windows = []
        if support is None:
            support = _support(terms)
        slots = sorted(s for s in support if s != main)
        while slots:
            lo = slots[0]
            inside = [s for s in slots if s < lo + _WINDOW]
            del slots[:len(inside)]
            sh = _SHIFT[lo]
            rnd = (1 << sh >> 1) + sum(_HALF << (sh + _W * i)
                                       for i in range(_WINDOW))
            fields = [(_SHIFT[s] - sh, assignment[_NAMES[s]]) for s in inside]
            windows.append((rnd, sh, fields, {}))
        out = {}
        for m, c in terms.items():
            if c.__class__ is Fraction:
                den = c.denominator % p
                if den == 0:
                    raise ValueError("bad prime")
                cc = c.numerator * pow(den, -1, p) % p
            else:
                cc = c % p
            d = (((m + mrnd) >> msh) & _MASK) - _HALF
            m -= d << msh
            for rnd, sh, fields, cache in windows:
                key = ((m + rnd) >> sh) & _WINDOW_MASK
                pw = cache.get(key)
                if pw is None:
                    pw = 1
                    for off, base in fields:
                        e = ((key >> off) & _MASK) - _HALF
                        pw = pw * pow(base, e, p) % p
                    cache[key] = pw
                cc = cc * pw % p
            out[d] = (out.get(d, 0) + cc) % p
        if 0 in out.values():
            out = {d: r for d, r in out.items() if r}
        return out

    def content_monomial(self):
        """Largest monomial (Laurent) dividing every term."""
        terms = self.terms
        code = 0
        for s in _support(terms):
            rnd, sh = _ROUND[s], _SHIFT[s]
            low = min(map(and_, map(rshift, map(rnd.__add__, terms),
                                    repeat(sh)), repeat(_MASK)))
            code += (low - _HALF) << sh
        return Monomial._raw(code)

    def divide_atom(self, atom):
        """Exact quotient self / (1 - c*shape), or None when not divisible.

        Bottom-up synthetic division in the leading variable of the shape;
        exactness follows because the divisor has unit constant term.
        """
        if not self.terms:
            return self
        v, d = atom.shape.leading()
        sh = _SHIFT[_SLOT[v]]
        shape_rest = atom.shape.code - (d << sh)
        c = atom.constant_fast
        buckets = self.split(v)
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
            cget = carry.get
            for m0, cf in blk.items():
                m1 = m0 + shape_rest
                if (m1 ^ (m1 << 1)) & _GUARD:
                    _overflow()
                carry[m1] = cget(m1, 0) + c * cf
        return SparsePoly._raw(quotient)

    def split(self, var):
        """{exponent of var: {code without var: coefficient}}."""
        slot = _slot(var)
        rnd, sh = _ROUND[slot], _SHIFT[slot]
        buckets = {}
        for m, c in self.terms.items():
            e = (((m + rnd) >> sh) & _MASK) - _HALF
            blk = buckets.get(e)
            if blk is None:
                blk = buckets[e] = {}
            blk[m - (e << sh)] = c
        return buckets

    def sorted_terms(self):
        """(Monomial, coefficient) pairs in descending canonical order
        (deterministic).  The support is put in canonical order once, so
        each term is read field by field and never re-sorted."""
        reads = [(_ROUND[s], _SHIFT[s], _NAMES[s], _KEY[s])
                 for s in _support(self.terms)]
        rows = []
        for m, c in self.terms.items():
            fields = [(name, vk, (((m + rnd) >> sh) & _MASK) - _HALF)
                      for rnd, sh, name, vk in reads]
            items = tuple((name, e) for name, _, e in fields if e)
            key = (sum(e for _, e in items),
                   tuple((vk, e) for _, vk, e in fields if e))
            rows.append((key, Monomial._raw(m, items), c))
        rows.sort(key=itemgetter(0), reverse=True)
        return [row[1:] for row in rows]

    def variables(self):
        return {_NAMES[s] for s in _support(self.terms)}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            cs = str(c)
            bits.append(cs if m.is_one() else ("%s*%s" % (cs, m)))
        return " + ".join(bits)


_Z_SLOT = _SLOT["z"]
_Z_KEY = _KEY[_Z_SLOT]
_FILTER_PRIMES = (2305843009213693951, 4611686018427387847, 2305843009213693967)
_FILTER_RNG = random.Random(0x1D872A5)
# The fixed evaluation point: one residue per variable for each prime.
_POINTS = {p: {name: _FILTER_RNG.randrange(2, p - 2) for name in _NAMES}
           for p in _FILTER_PRIMES}


def _reduce(poly, p, w, support=None):
    """The image of poly at the point for p (see the module docstring), or
    None when p divides a coefficient denominator."""
    try:
        return poly.eval_mod(p, _POINTS[p], w, support)
    except ValueError:
        return None


def _residue(c, p):
    """The rational c mod p, or None when p divides its denominator."""
    if c.__class__ is int:
        return c % p
    den = c.denominator % p
    return c.numerator * pow(den, -1, p) % p if den else None


def _at_point(mono, p, w):
    """(the monomial with w set aside, at the point for p; the exponent of
    w)."""
    point = _POINTS[p]
    r = 1
    for x, e in mono.items:
        if x != w:
            r = r * pow(point[x], e, p) % p
    return r, mono.exponent(w)


def _specialize(atom, p, w):
    """c * (shape without w) at the point for p, or None when p divides
    the denominator of c; the atom's image is 1 - that * w^e."""
    cc = _residue(atom.constant_fast, p)
    if cc is None:
        return None
    return cc * _at_point(atom.shape, p, w)[0] % p


class _DivisionFilter:
    """Cheap necessary tests for atom | poly by specialization mod p.

    Specializes every variable except the atom's leading one, w, to its
    residue at the fixed point (see the module docstring) and runs
    synthetic division over Z/p.  A nonzero remainder proves
    non-divisibility; a zero remainder is only evidence.  One image per
    (prime, w) is shared by every candidate atom against the same
    polynomial, so the per-atom cost is a single pass over the image.

    A missing image comes from the seed when one is given, which composes
    it from the images of the operands poly was built from, and from
    eval_mod when the seed returns None or poly involves no variable but
    w; eval_mod then reduces one z-slice where one decides (see the module
    docstring), and that image is kept in slices, apart from reductions.

    After an exact division poly -> poly / atom, divided() updates each
    image instead of reducing the quotient afresh, and a seeded image
    made later follows every division made so far: the image is divided
    by the atom specialized at the same point.  Specialization is a ring
    homomorphism into the domain Z/p[w, 1/w], so that division is exact
    and gives the image of the quotient.  The atom's image is 1 - c*w^e:
    for e != 0 the update is a synthetic division, for e = 0 a
    multiplication by the inverse of the scalar 1 - c.  An image whose
    specialized atom is undefined or zero mod p, or whose division leaves
    a remainder, is dropped and made again when next needed.  Slice
    images follow a z-free atom, which divides each slice, and are all
    dropped by an atom in z, which mixes the slices.
    """

    __slots__ = ("poly", "seed", "divisors", "reductions", "slices",
                 "zslice", "_slots")

    def __init__(self, poly, seed=None):
        self.poly = poly
        self.seed = seed
        self.divisors = []
        self.reductions = {}
        self.slices = {}
        self.zslice = None       # (z-degree, slice) of the slice images
        self._slots = None

    def _support(self):
        """The slots of poly, read once: a quotient's lie in its
        dividend's."""
        if self._slots is None:
            self._slots = _support(self.poly.terms)
        return self._slots

    def _univariate(self, w):
        """Whether poly involves no variable but w."""
        return all(_NAMES[s] == w for s in self._support())

    def _seeded(self, p, w):
        """The seed's image of poly after the divisions so far, or None."""
        if self.seed is None or self._univariate(w):
            return None
        coeffs = self.seed(p, w)
        for atom in self.divisors:
            if coeffs is None:
                break
            coeffs = _quotient_image(coeffs, atom, p, w)
        return coeffs

    def _image(self, p, w):
        """The image of poly at (p, w), or None."""
        key = (p, w)
        coeffs = self.reductions.get(key, False)
        if coeffs is False:
            coeffs = self._seeded(p, w)
            if coeffs is None:
                coeffs = _reduce(self.poly, p, w, self._support())
            self.reductions[key] = coeffs
        return coeffs

    def _test_image(self, p, w):
        """The image may_divide tests: one z-slice's where no image of poly
        is known or seeded and a slice decides, else poly's."""
        key = (p, w)
        coeffs = self.slices.get(key, False)
        if coeffs is not False:
            return coeffs
        if (key not in self.reductions and _KEY[_SLOT[w]] < _Z_KEY
                and _Z_SLOT in self._support()):
            coeffs = self._seeded(p, w)
            if coeffs is None:
                if self.zslice is None:
                    self.zslice = _thinnest_z_slice(self.poly.terms)
                coeffs = _reduce(self.zslice[1], p, w, self._support())
                self.slices[key] = coeffs
                return coeffs
            self.reductions[key] = coeffs
        return self._image(p, w)

    def may_divide(self, atom):
        if not self.poly.terms:
            return True
        v, d = atom.shape.leading()
        for p in _FILTER_PRIMES:
            cc = _specialize(atom, p, v)
            if cc is None:
                continue
            coeffs = self._test_image(p, v)
            if coeffs is None:
                continue
            return _divide_mod(coeffs, cc, d, p) is not None
        return True

    def cancel(self, atom, k):
        """Divide poly by atom while it divides, at most k times; the
        number of divisions made."""
        n = 0
        while n < k and self.may_divide(atom):
            q = self.poly.divide_atom(atom)
            if q is None:
                break
            self.divided(atom, q)
            n += 1
        return n

    def divided(self, atom, quotient):
        """Follow the exact division of the polynomial by atom."""
        self.poly = quotient
        self.divisors.append(atom)
        if atom.shape.exponent("z"):
            self.slices.clear()
            self.zslice = None
        elif self.zslice is not None:
            d, part = self.zslice
            self.zslice = d, part.divide_atom(atom)
        for images in (self.reductions, self.slices):
            for key, coeffs in list(images.items()):
                new = None if coeffs is None else _quotient_image(
                    coeffs, atom, *key)
                if new is None:
                    del images[key]
                else:
                    images[key] = new

    def images(self):
        """The images of poly made so far, keyed (p, w), except those of
        a poly univariate in w, which are cheaper to make again than to
        carry."""
        return {key: c for key, c in self.reductions.items()
                if c is not None and not self._univariate(key[1])}


def _thinnest_z_slice(terms):
    """(d, slice): the z-degree d with the fewest terms, and those terms
    without z; the degrees are read and the slice found in C."""
    rnd, sh = _ROUND[_Z_SLOT], _SHIFT[_Z_SLOT]
    degrees = list(map(and_, map(rshift, map(rnd.__add__, terms),
                                 repeat(sh)), repeat(_MASK)))
    counts = Counter(degrees)
    d = min(counts, key=counts.__getitem__)
    strip = (d - _HALF) << sh
    return d - _HALF, SparsePoly._raw(
        {m - strip: terms[m] for m in compress(terms, map(d.__eq__, degrees))})


def _quotient_image(coeffs, atom, p, w):
    """The image of poly / atom from the image of poly, or None."""
    cc = _specialize(atom, p, w)
    if cc is None:
        return None
    return _divide_binomial_mod(coeffs, cc, atom.shape.exponent(w), p)


def _divide_mod(coeffs, cc, d, p):
    """Quotient of a Laurent polynomial over Z/p (dict degree -> residue)
    by 1 - cc*w^d, d > 0, by bottom-up synthetic division; None when the
    remainder is nonzero.  Zero residues are not stored."""
    if not coeffs:
        return {}
    hi = max(coeffs)
    qmax = hi - d
    buckets = dict(coeffs)
    quotient = {}
    for k in range(min(coeffs), hi + 1):
        cf = buckets.pop(k, 0) % p
        if not cf:
            continue
        if k > qmax:
            return None
        quotient[k] = cf
        buckets[k + d] = (buckets.get(k + d, 0) + cc * cf) % p
    return quotient


def _divide_binomial_mod(coeffs, cc, e, p):
    """Quotient of coeffs by 1 - cc*w^e over Z/p for any integer e, or None
    when it is not exact or the divisor vanishes."""
    if e > 0:
        return _divide_mod(coeffs, cc, e, p)
    if e < 0 and cc:
        # 1 - cc*w^e = -cc*w^e * (1 - w^-e/cc)
        inv = pow(cc, -1, p)
        quot = _divide_mod(coeffs, inv, -e, p)
        if quot is None:
            return None
        scale = -inv % p
        return {k - e: cf * scale % p for k, cf in quot.items()}
    s = (1 - cc) % p
    if not s:
        return None
    inv = pow(s, -1, p)
    return {k: cf * inv % p for k, cf in coeffs.items() if cf}


class Atom:
    """Denominator factor (1 - constant*shape); shape a nonconstant monomial.

    Canonical form: the leading variable of the shape carries a positive
    exponent.  Atom.make performs the canonicalizing flip
    (1 - c*m) = -c*m * (1 - (1/c)*m^-1) and reports the factored-out unit.
    """

    __slots__ = ("constant", "constant_fast", "shape", "_hash")

    def __init__(self, constant, shape):
        self.constant = Fraction(constant)
        self.constant_fast = _clean(self.constant)
        self.shape = shape
        self._hash = hash((self.constant, shape))

    @staticmethod
    def make(constant, shape):
        """Canonicalize; returns (unit_coeff, unit_monomial, atom) with
        (1 - constant*shape) == unit_coeff * unit_monomial * (1 - c'*m')."""
        c = Fraction(constant)
        if not c:
            raise ValueError("atom constant must be nonzero")
        if shape.is_one():
            raise ValueError("atom shape must be nonconstant")
        if shape.leading()[1] < 0:
            return _clean(-c), shape, Atom(1 / c, shape ** -1)
        return 1, _ONE_M, Atom(c, shape)

    def as_poly(self):
        return SparsePoly._raw({0: 1, self.shape.code: _clean(-self.constant)})

    def eval(self, assignment):
        return 1 - self.constant_fast * self.shape.eval(assignment)

    def adams(self, k):
        return Atom(self.constant, self.shape ** k)

    def subs(self, var, coeff, image):
        """Substitute var -> coeff*image.

        Returns ('atom', (unit_coeff, unit_mono, Atom)), ('scalar', value)
        when the shape collapses to a constant, or ('zero', None) when the
        whole atom vanishes identically.
        """
        if not self.shape.exponent(var):
            return "atom", (1, _ONE_M, self)
        sc, m2 = self.shape.subs(var, coeff, image)
        c2 = self.constant * sc
        if m2.is_one():
            val = 1 - c2
            if not val:
                return "zero", None
            return "scalar", val
        return "atom", Atom.make(c2, m2)

    def key(self):
        return (self.shape.sort_key(), self.constant)

    def __eq__(self, other):
        return self.constant == other.constant and self.shape == other.shape

    def __hash__(self):
        return self._hash

    def __repr__(self):
        c = self.constant
        if c == 1:
            return "(1-%s)" % (self.shape,)
        if c == -1:
            return "(1+%s)" % (self.shape,)
        return "(1-%s*%s)" % (c, self.shape)


def _sorted_atoms(atoms):
    return tuple(sorted(atoms, key=Atom.key))


def _divides(atom, other):
    """Whether atom divides other: other's c*m is a power of atom's."""
    v, e = atom.shape.leading()
    j, r = divmod(other.shape.exponent(v), e)
    return (not r and other.shape.code == atom.shape.code * j
            and other.constant == atom.constant ** j)


def _free_atoms(atoms):
    """{atom: the atoms it divides, itself first} for each free atom of
    atoms (see the module docstring).  Atoms whose shapes have different
    primitive directions (code over the gcd of the exponents) are coprime;
    in one direction a primitive atom (gcd 1, so irreducible) is free
    unless it divides an atom before it, and any other only when first."""
    lines = {}
    for x in atoms:
        g = gcd(*map(itemgetter(1), x.shape.items))
        lines.setdefault(x.shape.code // g, []).append((x, g))
    free = {}
    for line in lines.values():
        if len(line) > 1:
            line.sort(key=lambda xg: xg[0].key())
        for i, (x, g) in enumerate(line):
            if not i or g == 1 and not any(_divides(x, r)
                                           for r, _ in line[:i]):
                free[x] = [x] + [r for r, _ in line[i + 1:] if _divides(x, r)]
    return free


def _cross_atoms(a, b):
    """The atoms a * b cancels before it multiplies the numerators (see
    the module docstring): those of b's denominator to try on a's
    numerator and those of a's on b's, each {atom: multiplicity}, or ().
    An atom of both denominators divides neither numerator.  Nothing is
    tried unless both operands are normalized, a numerator has two terms
    or more (no atom divides a monomial), and the numerators together
    involve two variables or more: on a univariate numerator the filter's
    image is the polynomial itself, so testing the operands first only
    adds work."""
    na, nb = a.numerator.terms, b.numerator.terms
    if (not (a._normalized and b._normalized) or len(na) + len(nb) < 3
            or len(_support([*na, *nb])) < 2):
        return ()
    da, db = Counter(a.denominator), Counter(b.denominator)
    free = _free_atoms(da | db)
    mine = {x: k for x, k in da.items() if x not in db and x in free}
    theirs = {x: k for x, k in db.items() if x not in da and x in free}
    return theirs, mine


def _cancel(num, image, atoms, den):
    """Divide num by each atom of {atom: multiplicity} as often as it
    divides, removing the atoms cancelled from the list den; the quotient
    and the function that gives its images (image gives num's)."""
    if not atoms:
        return num, image
    filt = _DivisionFilter(num, image)
    for atom, k in atoms.items():
        for _ in range(filt.cancel(atom, k)):
            den.remove(atom)
    return filt.poly, filt._image


class FactoredRat:
    """Rational function prefactor * numerator / prod(denominator atoms).

    _images holds images of the numerator at the fixed point, keyed
    (p, w) (see the module docstring); it is filled by normalize and on
    first use.
    """

    __slots__ = ("prefactor", "numerator", "denominator", "_normalized",
                 "_images")

    def __init__(self, prefactor=_ONE_M, numerator=None, denominator=(),
                 normalized=False, images=None):
        self.prefactor = prefactor
        self.numerator = numerator if numerator is not None else SparsePoly.one()
        self.denominator = tuple(denominator)
        self._normalized = normalized
        self._images = {} if images is None else images

    @classmethod
    def zero(cls):
        return cls(_ONE_M, SparsePoly.zero(), (), normalized=True)

    @classmethod
    def one(cls):
        return cls(_ONE_M, SparsePoly.one(), (), normalized=True)

    @classmethod
    def from_poly(cls, p):
        return cls(_ONE_M, p, ())

    @classmethod
    def from_monomial(cls, m, c=1):
        return cls(m, SparsePoly.const(c), (), normalized=True)

    def is_zero(self):
        return self.numerator.is_zero()

    def _image(self, p, w):
        """The image of the numerator at (p, w), or None when p divides a
        coefficient denominator."""
        key = (p, w)
        img = self._images.get(key)
        if img is None:
            img = _reduce(self.numerator, p, w)
            if img is not None:
                self._images[key] = img
        return img

    def _scaled_images(self, c):
        """The images of the numerator times the rational c."""
        out = {}
        for key, img in self._images.items():
            r = _residue(c, key[0])
            if r is not None:
                out[key] = {d: v * r % key[0] for d, v in img.items()}
        return out

    def normalize(self, seed=None):
        """Cancel denominator atoms dividing the numerator and pull the
        monomial content of the numerator into the prefactor.

        seed(p, w), when given, composes the image of the numerator at
        (p, w) from the operands it was built from, or returns None."""
        if self._normalized:
            return self
        num = self.numerator
        if num.is_zero():
            return FactoredRat.zero()
        pre = self.prefactor
        out_den = []
        grouped = {}
        for a in self.denominator:
            grouped[a] = grouped.get(a, 0) + 1
        images = {}
        if grouped:
            filt = _DivisionFilter(num, seed)
            for atom in sorted(grouped, key=Atom.key):
                k = grouped[atom]
                out_den.extend([atom] * (k - filt.cancel(atom, k)))
            num, images = filt.poly, filt.images()
        mc = num.content_monomial()
        if not mc.is_one():
            pre = pre * mc
            num = num.mul_monomial(mc ** -1)
            for (p, w), img in images.items():
                r, e = _at_point(mc, p, w)
                inv = pow(r, -1, p)
                images[p, w] = {d - e: v * inv % p for d, v in img.items()}
        return FactoredRat(pre, num, _sorted_atoms(out_den), normalized=True,
                           images=images)

    def __add__(self, other):
        return add_many((self, other))

    def __neg__(self):
        return FactoredRat(self.prefactor, -self.numerator, self.denominator,
                           normalized=self._normalized,
                           images=self._scaled_images(-1))

    def __sub__(self, other):
        return add_many((self, -other))

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FactoredRat.zero()
        num_a, image_a = self.numerator, self._image
        num_b, image_b = other.numerator, other._image
        den = self.denominator + other.denominator
        across = _cross_atoms(self, other)
        if across:
            den = list(den)
            num_a, image_a = _cancel(num_a, image_a, across[0], den)
            num_b, image_b = _cancel(num_b, image_b, across[1], den)

        def seed(p, w):
            a = image_a(p, w)
            b = image_b(p, w) if a is not None else None
            return None if b is None else _convolve_mod(a, b, p)

        return FactoredRat(self.prefactor * other.prefactor, num_a * num_b,
                           den).normalize(seed)

    def __truediv__(self, other):
        return self * other.inverse()

    def mul_scalar(self, c):
        if not c:
            return FactoredRat.zero()
        return FactoredRat(self.prefactor, self.numerator.mul_scalar(c),
                           self.denominator, normalized=self._normalized,
                           images=self._scaled_images(c))

    def adams(self, k):
        if k == 1:
            return self
        return FactoredRat(self.prefactor ** k, self.numerator.adams(k),
                           _sorted_atoms(a.adams(k) for a in self.denominator),
                           normalized=self._normalized and not self.denominator)

    def substitute(self, var, coeff, image):
        """Exact substitution var -> coeff*image followed by normalize."""
        if image.exponent(var):
            raise ValueError("substitution image mentions %r itself" % (var,))
        sc, pre = self.prefactor.subs(var, coeff, image)
        num = self.numerator.substitute(var, coeff, image)
        den = []
        scale = Fraction(sc)
        for a in self.denominator:
            kind, payload = a.subs(var, coeff, image)
            if kind == "zero":
                raise SubstitutionToZeroPole(
                    "atom %s vanishes identically under %s -> %s*%s"
                    % (a, var, coeff, image))
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

    def eval_numeric(self, assignment, tol=1e-12):
        den = complex(1)
        for a in self.denominator:
            v = a.eval(assignment)
            if abs(v) <= tol:
                raise PoleAtPoint("denominator atom %s vanishes at the given point" % (a,))
            den *= v
        val = self.numerator.eval_numeric(assignment)
        return self.prefactor.eval(assignment) * val / den

    def inverse(self):
        """Exact reciprocal; the numerator must have at most two terms."""
        f = self if self._normalized else self.normalize()
        terms = f.numerator.sorted_terms()
        if not terms:
            raise ZeroDivisionError("inverse of zero")
        num = SparsePoly.one()
        for a in f.denominator:
            num = num.mul_atom(a)
        if len(terms) == 1:
            (m1, c1), = terms
            den = ()
        elif len(terms) == 2:
            (m1, c1), (m2, c2) = terms
            u, um, at = Atom.make(Fraction(-c2) / Fraction(c1), m2 * m1 ** -1)
            den = (at,)
            m1 = m1 * um
            c1 = c1 * u
        else:
            raise ValueError("inverse requires a monomial or binomial numerator")
        pre = f.prefactor ** -1 * m1 ** -1
        num = num.mul_scalar(Fraction(1) / Fraction(c1))
        return FactoredRat(pre, num, den).normalize()

    def __eq__(self, other):
        if not isinstance(other, FactoredRat):
            return NotImplemented
        if (self.prefactor == other.prefactor and self.denominator == other.denominator
                and self.numerator == other.numerator):
            return True
        return self._cross_equal(other)

    __hash__ = None

    def _cross_equal(self, other):
        mine, theirs = Counter(self.denominator), Counter(other.denominator)
        left = self.numerator.mul_monomial(self.prefactor)
        right = other.numerator.mul_monomial(other.prefactor)
        for a in (theirs - mine).elements():
            left = left.mul_atom(a)
        for a in (mine - theirs).elements():
            right = right.mul_atom(a)
        return left == right

    def variables(self):
        out = self.numerator.variables()
        out.update(self.prefactor.variables())
        for a in self.denominator:
            out.update(a.shape.variables())
        return out

    def to_json(self):
        """JSON object in the codec below; bit-exact round trip."""
        variables = sorted(self.variables(), key=var_key)
        return {
            "variables": variables,
            "prefactor": _exponents(self.prefactor, variables),
            "numerator": _terms_to_json(self.numerator, variables),
            "denominator": [[rational_to_json(a.constant),
                             _exponents(a.shape, variables)]
                            for a in _sorted_atoms(self.denominator)],
        }

    @staticmethod
    def from_json(obj):
        """Inverse of to_json."""
        code = _code_reader(obj["variables"])
        den = tuple(Atom(rational_from_json(c), Monomial._raw(code(vec)))
                    for c, vec in obj["denominator"])
        return FactoredRat(Monomial._raw(code(obj["prefactor"])),
                           _terms_from_json(obj["numerator"], code), den)

    def __repr__(self):
        bits = []
        if not self.prefactor.is_one():
            bits.append(str(self.prefactor))
        bits.append("(%s)" % (self.numerator,))
        s = "*".join(bits)
        if self.denominator:
            s += " / [%s]" % "".join(str(a) for a in self.denominator)
        return s


# ---------------------------------------------------------------------------
# JSON: a rational is the string "n/d", a monomial its exponent vector over
# the variable names listed beside it.

def rational_to_json(c):
    """The rational c as "n/d" in lowest terms, d > 0."""
    c = Fraction(c)
    return "%d/%d" % (c.numerator, c.denominator)


def rational_from_json(s):
    """The rational of an "n/d" or "n" string, as an int when integral."""
    n, _, d = s.partition("/")
    if d in ("", "1"):
        return int(n)  # most coefficients: skip the Fraction's gcd
    return _clean(Fraction(int(n), int(d)))


def _exponents(m, variables):
    return [m.exponent(v) for v in variables]


def _code_reader(variables):
    """The function from an exponent vector over variables to its code,
    with the checks of Monomial(...); a repeated name, or a vector whose
    length is not that of variables, is a ValueError."""
    shifts = [_SHIFT[_slot(v)] for v in variables]
    if len(set(shifts)) != len(shifts):
        raise ValueError("repeated variable in %r" % (variables,))

    def code(vec):
        if len(vec) != len(shifts):
            raise ValueError("exponent vector %r for %r" % (vec, variables))
        c = 0
        for sh, e in zip(shifts, vec):
            e = index(e)
            if e:
                if not -_LIMIT < e < _LIMIT:
                    _overflow()
                c += e << sh
        return c

    return code


def _terms_to_json(p, variables):
    return [[_exponents(m, variables), rational_to_json(c)]
            for m, c in p.sorted_terms()]


def _terms_from_json(terms, code):
    d = {code(vec): rational_from_json(c) for vec, c in terms}
    if len(d) != len(terms):
        raise ValueError("repeated exponent vector")
    return SparsePoly(d)


def poly_to_json(p):
    """{"variables": names in canonical order, "terms": [[exponent vector,
    "n/d"], ...] in descending canonical order}; bit-exact round trip."""
    variables = sorted(p.variables(), key=var_key)
    return {"variables": variables, "terms": _terms_to_json(p, variables)}


def poly_from_json(obj):
    """Inverse of poly_to_json; a repeated variable or exponent vector, or
    a vector of the wrong length, is a ValueError."""
    return _terms_from_json(obj["terms"], _code_reader(obj["variables"]))


def _plan(lcm, counts):
    """The Counter of atoms add_many takes from lcm, and per term (own
    denominator counts[i]) its multipliers: (b, None) for a missing atom
    b, (b, a) for b's quotient by a removed atom a.  A free atom a goes k
    times when every term has k missing atoms divisible by a, each used
    once (see the module docstring)."""
    missing = [lcm - c for c in counts]
    removed = Counter()
    quotients = [[] for _ in counts]
    if all(missing):
        for a, targets in _free_atoms(lcm).items():
            k = min(lcm[a], *(sum(map(m.__getitem__, targets))
                              for m in missing))
            if not k:
                continue
            removed[a] = k
            for m, out in zip(missing, quotients):
                left = k
                for b in targets:
                    take = min(left, m[b])
                    m[b] -= take
                    left -= take
                    if b != a:
                        out.extend([(b, a)] * take)
    return removed, [[(b, None) for b in m.elements()] + out
                     for m, out in zip(missing, quotients)]


def _quotient(b, a):
    """b / a = 1 + y + ... + y^(n-1) for a = 1 - y and b = 1 - y^n."""
    v, e = a.shape.leading()
    c, m = a.constant, a.shape.code
    return SparsePoly._raw({m * i: _clean(c ** i)
                            for i in range(b.shape.exponent(v) // e)})


def add_many(fracs):
    """Sum over the least common denominator (atom multiset max),
    normalized; the atoms sure to cancel are removed first (_plan)."""
    live = [f for f in fracs if not f.numerator.is_zero()]
    if not live:
        return FactoredRat.zero()
    counts = [Counter(f.denominator) for f in live]
    lcm = reduce(or_, counts)
    removed, factors = _plan(lcm, counts)
    total = {}
    tget = total.get
    for f, mults in zip(live, factors):
        num = f.numerator.mul_monomial(f.prefactor)
        for b, a in mults:
            num = num.mul_atom(b) if a is None else num * _quotient(b, a)
        for m, cf in num.terms.items():
            total[m] = tget(m, 0) + cf
    num = SparsePoly._raw({m: _clean(c) for m, c in total.items() if c})

    def seed(p, w):
        out = {}
        for f, mults in zip(live, factors):
            img = f._images.get((p, w))
            if img is None:
                return None
            r, e = _at_point(f.prefactor, p, w)
            img = {d + e: v * r for d, v in img.items()}
            for b, a in mults:
                cc = _specialize(b, p, w)
                if cc is None:
                    return None
                img = _mul_binomial_mod(img, cc, b.shape.exponent(w), p)
                if a is not None:
                    img = _quotient_image(img, a, p, w)
                    if img is None:
                        return None
            for d, v in img.items():
                out[d] = out.get(d, 0) + v
        return {d: v % p for d, v in out.items() if v % p}

    den = _sorted_atoms((lcm - removed).elements())
    return FactoredRat(_ONE_M, num, den).normalize(seed)


def _convolve_mod(a, b, p):
    """The product of two images."""
    out = {}
    get = out.get
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = get(i + j, 0) + x * y
    return {d: v % p for d, v in out.items() if v % p}


def _mul_binomial_mod(coeffs, cc, e, p):
    """An image times 1 - cc*w^e."""
    if not e:
        s = (1 - cc) % p
        return {d: v * s % p for d, v in coeffs.items()}
    out = {d: v % p for d, v in coeffs.items()}
    for d, v in coeffs.items():
        out[d + e] = (out.get(d + e, 0) - cc * v) % p
    return out


def atom_inverse(constant, shape):
    """The FactoredRat 1/(1 - constant*shape)."""
    u, um, at = Atom.make(constant, shape)
    return FactoredRat(um ** -1, SparsePoly.const(Fraction(1) / Fraction(u)), (at,),
                       normalized=True)
