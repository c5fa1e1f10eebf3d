"""Exact arithmetic: Laurent monomials, sparse polynomials over Q, and
rational functions kept in factored form.

A rational function is stored as

    numerator / product(denominator atoms)

where the numerator is a sparse multivariate Laurent polynomial with
exact rational coefficients, and every denominator factor is a binomial
atom (1 - c*m) for a nonzero rational c and a nonconstant Laurent
monomial m.  Denominators are never expanded, and a monomial factor has
one home, the numerator.

Cancellation.  normalize divides the numerator by each denominator atom
as often as it divides, in Atom.key order, and leaves the numerator as
the divisions left it.  Exact division by 1 - c*m walks lattice lines:
on the terms x + k*m of one line, q_k = n_k + c*q_(k-1) runs from the
lowest k and must vanish at the highest, so a line of one term never
divides.  Each atom cancels min(multiplicity, valuation) times, and for
a fixed multiset of atoms left the written form is unique: where a
fraction is written (to_json, repr), and only there, the numerator's
content monomial is split off as the prefactor (_written), so products
and sums never shift it out and back.
An atom a is free when it shares no factor with any atom of the
denominator that sorts before it (_free_atoms).  Dividing the numerator
by a free atom k times ahead of normalize, and taking k copies of it
from the denominator, keeps the bytes: the counts of the atoms before a
do not change, a's own falls by exactly k, and every later step starts
from the same state.  A product first divides each operand's numerator
by the free atoms of the other's denominator, as often as they divide
(cross-cancellation; Henrici 1956, Knuth TAOCP 4.5.1).  add_many keeps
the multiset maximum of the atoms as the common denominator, but removes
a free atom a k times when k separate missing atoms of every term are
divisible by a (1 - y divides 1 - y^n): each such atom b is multiplied
in as the quotient 1 + y + ... + y^(n-1), or left out when b = a.

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

Canonical order.  Terms are written in descending Monomial.sort_key
order: total degree, then the (variable, exponent) pairs of the nonzero
exponents in canonical variable order, compared as tuples.  _rows sorts
by a flat key over the support's slots: the total degree, then each
slot's exponent, a zero read as _LATER (above every exponent) where a
later slot's exponent is nonzero and as _END (below every one) where
none is.  repr, the JSON writers and pipeline.latex_poly write its rows.

Overflow.  Exponents must satisfy |e| < 2**22.  Encoding rejects larger
ones.  Every code made by a product, power, substitution or Adams
operation is checked (_check, _check_codes, _scale): the top two bits of
every field must agree, which holds exactly when the field, after the
borrow from the fields below, lies in [-2**22, 2**22).  So an exponent
beyond 2**22 in absolute value raises ExponentOverflow (one of exactly
2**22 may raise as well); a field never wraps silently.

Division filter.  Before each exact division of a numerator by a
denominator atom, normalize runs a cheap necessary test
(_DivisionFilter): every variable but one, w, is set to its residue mod
the prime _P = 2**61 - 1 at one fixed point _POINT, drawn once from a
seeded generator, which maps the numerator to a Laurent polynomial in w
over Z/_P, kept as a dict degree -> nonzero residue, and the atom to
1 - cc*w^d.  That divides the image exactly when, reading w^d as 1/cc,
every class of degrees mod d sums to 0 (_vanishes_mod, one pass over the
image).  Where the point decides nothing, exact division decides: where
cc is undefined or 0 mod _P (the atom's image is then a unit), or where
_P divides a coefficient denominator of the numerator (it has no image).
A numerator of one term skips the filter: no atom divides a Laurent
monomial.  Specialization is a ring homomorphism, so images compose
through the operations that build a numerator: the image of a product is
the convolution of its factors' images, and that of a sum over a common
denominator is the sum of its terms' images, each multiplied by its
missing atoms, or their quotients, at the point.  A FactoredRat keeps
the images of its numerator (_images, keyed by w); __mul__ and add_many
hand normalize a seed that composes the image of the numerator they
built (add_many only from images its terms already hold), so _reduce
reads a numerator only where no image is known, or where it involves no
variable but w (its image is then the polynomial itself, cheaper to read
than to compose).  Exact division still decides every cancellation: the
filter changes the speed of normalize, never a normal form.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import compress, repeat, starmap
from math import gcd
from operator import add, index, itemgetter, lshift, or_, xor

from .errors import ExponentOverflow, SubstitutionToZeroPole

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

FAMILY_SIZE = 128            # variables in each of the a and z families
_NAMES = ["q", "z", "T", "t", "s"]
for _i in range(1, FAMILY_SIZE + 1):
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


class _Memo(dict):
    """key -> fn(key), each made on first use."""

    __slots__ = ("fn",)

    def __init__(self, fn, items=()):
        super().__init__(items)
        self.fn = fn

    def __missing__(self, key):
        out = self[key] = self.fn(key)
        return out


def _power_move(coeff, image, shift, e):
    """(coeff**e, the code shift that turns var^e, var at shift, into
    image^e)."""
    return (_clean(Fraction(coeff) ** e), _scale(image, e) - (e << shift))


def _moves(subs):
    """The substitutions var -> coeff*image of subs as (round, shift,
    e -> _power_move) reads.  Each move changes a field by less than
    2**22, so a code is checked after each move: one check after several
    could miss a field that wrapped."""
    return [(_ROUND[s], _SHIFT[s],
             _Memo(partial(_power_move, coeff, image.code, _SHIFT[s])))
            for var, coeff, image in subs for s in [_slot(var)]]


def _move(code, moves):
    """(scalar, code) of one monomial under moves."""
    scalar = 1
    for rnd, sh, powers in moves:
        e = (((code + rnd) >> sh) & _MASK) - _HALF
        if e:
            sc, d = powers[e]
            code = _check(code + d)
            scalar *= sc
    return scalar, code


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
        return "".join(starmap(_factor, self.items))[1:]


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

    def mul_monomial(self, mono):
        d = mono.code
        if not d:
            return self
        out = {m + d: cf for m, cf in self.terms.items()}
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

    def _moved(self, moves):
        """The substitutions of _moves(subs), made at once in one pass."""
        out = {}
        get = out.get
        for m, cf in self.terms.items():
            for rnd, sh, powers in moves:
                e = (((m + rnd) >> sh) & _MASK) - _HALF
                if e:
                    sc, d = powers[e]
                    m += d
                    if (m ^ (m << 1)) & _GUARD:
                        _overflow()
                    cf = cf * sc
            out[m] = get(m, 0) + cf
        return SparsePoly._raw({m: _clean(c) for m, c in out.items() if c})

    def content_monomial(self):
        """Largest monomial (Laurent) dividing every term: the least
        exponent of each variable."""
        terms = self.terms
        code = 0
        for s in _support(terms):
            rnd, sh = _ROUND[s], _SHIFT[s]
            code += min((((m + rnd) >> sh) & _MASK) - _HALF
                        for m in terms) << sh
        return Monomial._raw(code)

    def divide_atom(self, atom):
        """Exact quotient self / (1 - c*m), or None when not divisible.

        Walks lattice lines (see the module docstring): a term x lies on
        the line of base x - k*m, k = floor(deg_v(x)/d) for the leading
        variable v of m and its exponent d.  A quotient code lies between
        two codes of the numerator on its own line, so none can overflow.
        """
        if not self.terms:
            return self
        items = atom.shape.items
        v, d = items[-1]
        rnd, sh = _ROUND[_SLOT[v]], _SHIFT[_SLOT[v]]
        m, c = atom.shape.code, atom.constant_fast
        lines = {}
        for x, cf in self.terms.items():
            k = ((((x + rnd) >> sh) & _MASK) - _HALF) // d
            lines.setdefault(x - k * m, {})[k] = cf
        if 1 in map(len, lines.values()):
            return None
        quotient = {}
        for base, line in lines.items():
            lo, hi = min(line), max(line)
            x, q = base + lo * m, 0
            for k in range(lo, hi):
                q = line.get(k, 0) + c * q
                if q:
                    quotient[x] = _clean(q)
                x += m
            if line[hi] + c * q:
                return None
        # Two bases alias only where some |k*m_f| passes 2**22; the walk
        # then divided sums of lines, and a code out of range shows that
        # some line did not divide.
        if (max([abs(e) for _, e in items[:-1]], default=0)
                * -(-_LIMIT // d) > _LIMIT):
            try:
                _check_codes(quotient)
            except ExponentOverflow:
                return None
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

    def sorted_items(self):
        """(Monomial.items, coefficient) pairs in descending canonical
        order (deterministic): no Monomial is made."""
        slots = _support(self.terms)
        names = [_NAMES[s] for s in slots]
        return [(tuple(compress(zip(names, vec), vec)), c)
                for _, vec, c in _rows(self.terms, slots)]

    def variables(self):
        return {_NAMES[s] for s in _support(self.terms)}

    def __repr__(self):
        slots = _support(self.terms)
        rows = _rows(self.terms, slots)
        if not rows:
            return "0"
        return " + ".join([str(c) + mono for (_, _, c), mono
                           in zip(rows, _monomials(rows, slots, _factor))])


_LATER, _END = _LIMIT, -_LIMIT - 1   # beyond every field, -2**22 included


def _rows(terms, slots):
    """(key, exponent vector over slots, coefficient) for each term of a
    dict, in descending canonical order (see above); slots, in canonical
    order, hold every variable of the terms.  Each slot's fields are read
    at once, from the codes biased as in _support; keys are distinct, so
    the sort never compares further."""
    bias = _BIAS & ((1 << _W * (max(slots, default=0) + 1)) - 1)
    codes = list(map(bias.__add__, terms))
    cols = [[((b >> sh) & _MASK) - _HALF for b in codes]
            for sh in map(_SHIFT.__getitem__, slots)]
    keys, key = [], [_END] * len(codes)
    for col in reversed(cols):
        key = [e or (_END if k == _END else _LATER) for e, k in zip(col, key)]
        keys.append(key)
    vecs = list(map(list, zip(*cols))) or [[] for _ in codes]
    return sorted(zip(zip(map(sum, vecs), *reversed(keys)), vecs,
                      terms.values()), reverse=True)


def _monomials(rows, slots, text):
    """The monomial of each of _rows(..., slots), written as the texts
    text(name, e) of its nonzero exponents, joined."""
    cols = zip(*[vec for _, vec, _ in rows])
    parts = [map(_Memo(partial(text, _NAMES[s]), {0: ""}).__getitem__, col)
             for s, col in zip(slots, cols)]
    return list(map("".join, zip(*parts))) or [""] * len(rows)


def _factor(name, e):
    """name^e as repr writes it after a coefficient or another factor."""
    return "*" + name if e == 1 else "*%s^%d" % (name, e)


_P = (1 << 61) - 1
_FILTER_RNG = random.Random(0x1D872A5)
# The fixed evaluation point: one residue mod _P per variable.
_POINT = {name: _FILTER_RNG.randrange(2, _P - 2) for name in _NAMES}
# Its inverses: pow with a negative exponent would invert on every call.
_POINT_INV = {name: pow(r, -1, _P) for name, r in _POINT.items()}


def _reduce(poly, w):
    """The image of poly at the point (see the module docstring), a dict
    degree of w -> nonzero residue, or None when _P divides a coefficient
    denominator.  The residue of each distinct monomial without w is made
    once."""
    main = _slot(w)
    rnd, sh = _ROUND[main], _SHIFT[main]
    others = [(_ROUND[s], _SHIFT[s], _POINT[x], _POINT_INV[x])
              for s in _support(poly.terms) if s != main
              for x in [_NAMES[s]]]
    rests = {}
    out = {}
    for m, c in poly.terms.items():
        d = (((m + rnd) >> sh) & _MASK) - _HALF
        m -= d << sh
        r = rests.get(m)
        if r is None:
            r = 1
            for rnd_s, sh_s, base, inv in others:
                e = (((m + rnd_s) >> sh_s) & _MASK) - _HALF
                if e > 0:
                    r = r * pow(base, e, _P) % _P
                elif e:
                    r = r * pow(inv, -e, _P) % _P
            rests[m] = r
        if c.__class__ is not int:
            c = _residue(c)
            if c is None:
                return None
        out[d] = (out.get(d, 0) + c * r) % _P
    if 0 in out.values():
        out = {d: r for d, r in out.items() if r}
    return out


def _residue(c):
    """The rational c mod _P, or None when _P divides its denominator."""
    if c.__class__ is int:
        return c % _P
    den = c.denominator % _P
    return c.numerator * pow(den, -1, _P) % _P if den else None


def _specialize(atom, w):
    """c * (shape without w) at the point, or None when _P divides the
    denominator of c; the atom's image is 1 - that * w^e."""
    cc = _residue(atom.constant_fast)
    if cc is None:
        return None
    for x, e in atom.shape.items:
        if x != w:
            cc = cc * pow(_POINT[x], e, _P) % _P
    return cc


class _DivisionFilter:
    """Cheap necessary tests for atom | poly by specialization mod _P.

    Specializes every variable except the atom's leading one, w, to its
    residue at the fixed point (see the module docstring) and folds the
    image by the atom's (_vanishes_mod).  A residue class with a nonzero sum
    proves non-divisibility; all sums zero is only evidence.  Where the
    point decides nothing (the atom's image is undefined or a unit, or
    poly has no image), may_divide answers that the atom may divide, and
    exact division decides.  One image per w is shared by every candidate
    atom against the same polynomial, so the per-atom cost is a single
    pass over the image.

    A missing image comes from the seed when one is given, which composes
    it from the images of the operands poly was built from, and from
    _reduce when the seed returns None or poly involves no variable but w.

    After an exact division poly -> poly / atom, divided() updates each
    image instead of reducing the quotient afresh, and a seeded image
    made later follows every division made so far: the image is divided
    by the atom specialized at the same point.  Specialization is a ring
    homomorphism into the domain Z/_P[w, 1/w], so that division is exact
    and gives the image of the quotient.  The atom's image is 1 - c*w^e:
    for e != 0 the update is a synthetic division, for e = 0 a
    multiplication by the inverse of the scalar 1 - c.  An image whose
    specialized atom is undefined or zero mod _P, or whose division leaves
    a remainder, is dropped and made again when next needed.
    """

    __slots__ = ("poly", "seed", "divisors", "reductions")

    def __init__(self, poly, seed=None):
        self.poly = poly
        self.seed = seed
        self.divisors = []
        self.reductions = {}

    def _univariate(self, w):
        """Whether poly involves no variable but w: every code is its own
        field of w, read until a term says otherwise."""
        slot = _SLOT[w]
        return all(m == _read(m, slot) << _SHIFT[slot]
                   for m in self.poly.terms)

    def _image(self, w):
        """The image of poly in w, or None: the seed's after the divisions
        so far where it gives one, else _reduce's."""
        coeffs = self.reductions.get(w, False)
        if coeffs is False:
            coeffs = None
            if self.seed is not None and not self._univariate(w):
                coeffs = self.seed(w)
                for atom in self.divisors:
                    if coeffs is None:
                        break
                    coeffs = _quotient_image(coeffs, atom, w)
            if coeffs is None:
                coeffs = _reduce(self.poly, w)
            self.reductions[w] = coeffs
        return coeffs

    def may_divide(self, atom):
        if not self.poly.terms:
            return True
        v, d = atom.shape.leading()
        cc = _specialize(atom, v)
        if not cc:
            return True
        coeffs = self._image(v)
        return coeffs is None or _vanishes_mod(coeffs, cc, d)

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
        for w, coeffs in list(self.reductions.items()):
            new = None if coeffs is None else _quotient_image(coeffs, atom, w)
            if new is None:
                del self.reductions[w]
            else:
                self.reductions[w] = new

    def images(self):
        """The images of poly made so far, keyed by w, except those of a
        poly univariate in w, which are cheaper to make again than to
        carry."""
        return {w: c for w, c in self.reductions.items()
                if c is not None and not self._univariate(w)}


def _quotient_image(coeffs, atom, w):
    """The image of poly / atom from the image of poly, or None when the
    atom has no image, its image vanishes, or the division is not exact."""
    cc = _specialize(atom, w)
    if cc is None:
        return None
    e = atom.shape.exponent(w)
    if e > 0:
        return _divide_mod(coeffs, cc, e)
    if e < 0 and cc:
        # 1 - cc*w^e = -cc*w^e * (1 - w^-e/cc)
        inv = pow(cc, -1, _P)
        quot = _divide_mod(coeffs, inv, -e)
        if quot is None:
            return None
        scale = -inv % _P
        return {k - e: cf * scale % _P for k, cf in quot.items()}
    s = (1 - cc) % _P
    if not s:
        return None
    inv = pow(s, -1, _P)
    return {k: cf * inv % _P for k, cf in coeffs.items() if cf}


def _divide_mod(coeffs, cc, d):
    """Quotient of a Laurent polynomial over Z/_P (dict degree -> residue)
    by 1 - cc*w^d, d > 0, by bottom-up synthetic division; None when the
    remainder is nonzero.  Zero residues are not stored."""
    if not coeffs:
        return {}
    hi = max(coeffs)
    qmax = hi - d
    buckets = dict(coeffs)
    quotient = {}
    for k in range(min(coeffs), hi + 1):
        cf = buckets.pop(k, 0) % _P
        if not cf:
            continue
        if k > qmax:
            return None
        quotient[k] = cf
        buckets[k + d] = (buckets.get(k + d, 0) + cc * cf) % _P
    return quotient


def _vanishes_mod(coeffs, cc, d):
    """Whether 1 - cc*w^d, d > 0 and cc != 0, divides a Laurent polynomial
    over Z/_P: reading w^d as 1/cc, every class of degrees mod d sums to 0."""
    sums = [0] * d
    if cc == 1:
        for k, cf in coeffs.items():
            sums[k % d] += cf
    else:
        inv = pow(cc, -1, _P)
        powers = {}
        for k, cf in coeffs.items():
            j, r = divmod(k, d)
            x = powers.get(j)
            if x is None:
                x = powers[j] = pow(inv, j, _P)
            sums[r] += cf * x
    return not any(t % _P for t in sums)


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

    def adams(self, k):
        return Atom(self.constant, self.shape ** k)

    def _moved(self, moves):
        """The atom under the substitutions of _moves(subs), made at once:
        ('atom', (unit_coeff, unit_mono, Atom)), ('scalar', value) when
        the shape collapses to a constant, or ('zero', None) when the whole
        atom vanishes identically."""
        sc, code = _move(self.shape.code, moves)
        if code == self.shape.code:
            return "atom", (1, _ONE_M, self)
        c2 = self.constant * sc
        if not code:
            val = 1 - c2
            if not val:
                return "zero", None
            return "scalar", val
        return "atom", Atom.make(c2, Monomial._raw(code))

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
    """Rational function numerator / prod(denominator atoms), the
    numerator a Laurent polynomial.

    It is written (to_json, repr) with the content monomial of its
    numerator split off as the prefactor (_written).

    _images holds images of the numerator at the fixed point, keyed by
    w (see the module docstring); it is filled by normalize and on first
    use.
    """

    __slots__ = ("numerator", "denominator", "_normalized", "_images")

    def __init__(self, numerator, denominator=(), normalized=False,
                 images=None):
        self.numerator = numerator
        self.denominator = tuple(denominator)
        self._normalized = normalized
        self._images = {} if images is None else images

    @classmethod
    def zero(cls):
        return cls(SparsePoly.zero(), normalized=True)

    @classmethod
    def one(cls):
        return cls(SparsePoly.one(), normalized=True)

    @classmethod
    def from_monomial(cls, m, c=1):
        return cls(SparsePoly.const(c).mul_monomial(m), normalized=True)

    def is_zero(self):
        return self.numerator.is_zero()

    def _image(self, w):
        """The image of the numerator in w, or None when _P divides a
        coefficient denominator."""
        img = self._images.get(w)
        if img is None:
            img = _reduce(self.numerator, w)
            if img is not None:
                self._images[w] = img
        return img

    def _scaled_images(self, c):
        """The images of the numerator times the rational c."""
        r = _residue(c)
        if r is None:
            return {}
        return {w: {d: v * r % _P for d, v in img.items()}
                for w, img in self._images.items()}

    def normalize(self, seed=None):
        """Cancel denominator atoms dividing the numerator; the
        numerator's monomial content stays where it is (the canonical
        split is made where the result is written, _written).

        seed(w), when given, composes the image of the numerator in w
        from the operands it was built from, or returns None."""
        if self._normalized:
            return self
        num = self.numerator
        if num.is_zero():
            return FactoredRat.zero()
        out_den = self.denominator
        images = {}
        if out_den and len(num.terms) > 1:  # no atom divides a monomial
            grouped = Counter(out_den)
            filt = _DivisionFilter(num, seed)
            out_den = []
            for atom in sorted(grouped, key=Atom.key):
                k = grouped[atom]
                out_den.extend([atom] * (k - filt.cancel(atom, k)))
            num, images = filt.poly, filt.images()
        return FactoredRat(num, _sorted_atoms(out_den), normalized=True,
                           images=images)

    def __add__(self, other):
        return add_many((self, other))

    def __neg__(self):
        return FactoredRat(-self.numerator, self.denominator,
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

        def seed(w):
            a = image_a(w)
            b = image_b(w) if a is not None else None
            return None if b is None else _convolve_mod(a, b)

        return FactoredRat(num_a * num_b, den).normalize(seed)

    def mul_scalar(self, c):
        if not c:
            return FactoredRat.zero()
        return FactoredRat(self.numerator.mul_scalar(c), self.denominator,
                           normalized=self._normalized,
                           images=self._scaled_images(c))

    def adams(self, k):
        if k == 1:
            return self
        return FactoredRat(self.numerator.adams(k),
                           _sorted_atoms(a.adams(k) for a in self.denominator),
                           normalized=self._normalized and not self.denominator)

    def substitute_all(self, subs):
        """The substitutions var -> coeff*image of the list subs, made at
        once (one pass over the numerator) and followed by one normalize;
        normalize alone when no var of subs occurs.  No image may mention
        a var of subs.  The unit monomials of the flipped atoms shift the
        moved numerator once."""
        if any(image.exponent(v) for v, _, _ in subs for _, _, image in subs):
            raise ValueError("substitution image mentions a variable of %r"
                             % (subs,))
        present = _support([*self.numerator.terms,
                            *(a.shape.code for a in self.denominator)])
        subs = [x for x in subs if _slot(x[0]) in present]
        if not subs:
            return self.normalize()
        moves = _moves(subs)
        scale, shift = Fraction(1), 0
        den = []
        for a in self.denominator:
            kind, payload = a._moved(moves)
            if kind == "zero":
                raise SubstitutionToZeroPole(
                    "atom %s vanishes identically under %r" % (a, subs))
            if kind == "scalar":
                scale /= payload
                continue
            u, um, at = payload
            if u != 1:
                scale /= u
            shift = _check(shift - um.code)
            den.append(at)
        num = self.numerator._moved(moves).mul_monomial(Monomial._raw(shift))
        if scale != 1:
            num = num.mul_scalar(scale)
        return FactoredRat(num, den).normalize()

    def __eq__(self, other):
        if not isinstance(other, FactoredRat):
            return NotImplemented
        if (self.denominator == other.denominator
                and self.numerator == other.numerator):
            return True
        return self._cross_equal(other)

    __hash__ = None

    def _cross_equal(self, other):
        mine, theirs = Counter(self.denominator), Counter(other.denominator)
        left, right = self.numerator, other.numerator
        for a in (theirs - mine).elements():
            left = left.mul_atom(a)
        for a in (mine - theirs).elements():
            right = right.mul_atom(a)
        return left == right

    def _written(self):
        """(prefactor, numerator) as written: the numerator's content
        monomial split off as the prefactor, which is 1 for 0."""
        num = self.numerator
        mc = num.content_monomial()
        return mc, num.mul_monomial(mc ** -1)

    def to_json(self):
        """JSON object in the codec below; bit-exact round trip."""
        pre, num = self._written()
        slots = _support([*num.terms, pre.code,
                          *(a.shape.code for a in self.denominator)])
        return {
            "variables": [_NAMES[s] for s in slots],
            "prefactor": _vector(pre.code, slots),
            "numerator": _terms_to_json(num, slots),
            "denominator": [[rational_to_json(a.constant),
                             _vector(a.shape.code, slots)]
                            for a in _sorted_atoms(self.denominator)],
        }

    @staticmethod
    def from_json(obj):
        """Inverse of to_json: the prefactor is folded into the
        numerator."""
        shifts = _shifts(obj["variables"])
        den = [(rational_from_json(c), vec) for c, vec in obj["denominator"]]
        pre, *shapes = _codes([obj["prefactor"], *(vec for _, vec in den)],
                              shifts)
        num = _terms_from_json(obj["numerator"], shifts)
        return FactoredRat(num.mul_monomial(Monomial._raw(pre)),
                           [Atom(c, Monomial._raw(m))
                            for (c, _), m in zip(den, shapes)])

    def __repr__(self):
        pre, num = self._written()
        s = "(%s)" % (num,) if pre.is_one() else "%s*(%s)" % (pre, num)
        if self.denominator:
            s += " / [%s]" % "".join(map(str, self.denominator))
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


def _vector(code, slots):
    """The exponent vector of a code over slots."""
    return [_read(code, s) for s in slots]


def _shifts(variables):
    """The code shift of each of variables; a repeated name is a
    ValueError."""
    shifts = [_SHIFT[_slot(v)] for v in variables]
    if len(set(shifts)) != len(shifts):
        raise ValueError("repeated variable in %r" % (variables,))
    return shifts


def _codes(vecs, shifts):
    """The codes of exponent vectors over the variables at shifts, with
    the checks of Monomial(...) made one column at a time, every type
    before any range: a vector whose length is not that of shifts is a
    ValueError."""
    if not set(map(len, vecs)) <= {len(shifts)}:
        raise ValueError("exponent vector not of length %d" % len(shifts))
    cols = [list(map(index, col)) for col in zip(*vecs)]
    if any(max(col) >= _LIMIT or min(col) <= -_LIMIT for col in cols):
        _overflow()
    codes = [0] * len(vecs)
    for col, sh in zip(cols, shifts):
        codes = list(map(add, codes, map(lshift, col, repeat(sh))))
    return codes


def _terms_to_json(p, slots):
    """The terms of p as [exponent vector over slots, "n/d"] rows, in
    descending canonical order."""
    return [[vec, "%d/1" % c if c.__class__ is int else rational_to_json(c)]
            for _, vec, c in _rows(p.terms, slots)]


def _terms_from_json(terms, shifts):
    """The SparsePoly of [exponent vector, "n/d"] rows; a repeated vector
    is a ValueError, a zero coefficient is dropped."""
    vecs = [vec for vec, _ in terms]
    coeffs = map(_Memo(rational_from_json).__getitem__, [c for _, c in terms])
    d = dict(zip(_codes(vecs, shifts), coeffs))
    if len(d) != len(terms):
        raise ValueError("repeated exponent vector")
    if 0 in d.values():
        d = {m: c for m, c in d.items() if c}
    return SparsePoly._raw(d)


def poly_to_json(p):
    """{"variables": names in canonical order, "terms": [[exponent vector,
    "n/d"], ...] in descending canonical order}; bit-exact round trip."""
    slots = _support(p.terms)
    return {"variables": [_NAMES[s] for s in slots],
            "terms": _terms_to_json(p, slots)}


def poly_from_json(obj):
    """Inverse of poly_to_json; a repeated variable or exponent vector, or
    a vector of the wrong length, is a ValueError."""
    return _terms_from_json(obj["terms"], _shifts(obj["variables"]))


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
        num = f.numerator
        for b, a in mults:
            num = num.mul_atom(b) if a is None else num * _quotient(b, a)
        for m, cf in num.terms.items():
            total[m] = tget(m, 0) + cf
    num = SparsePoly._raw({m: _clean(c) for m, c in total.items() if c})

    def seed(w):
        out = {}
        for f, mults in zip(live, factors):
            img = f._images.get(w)
            if img is None:
                return None
            for b, a in mults:
                cc = _specialize(b, w)
                if cc is None:
                    return None
                img = _mul_binomial_mod(img, cc, b.shape.exponent(w))
                if a is not None:
                    img = _quotient_image(img, a, w)
                    if img is None:
                        return None
            for d, v in img.items():
                out[d] = out.get(d, 0) + v
        return {d: v % _P for d, v in out.items() if v % _P}

    den = _sorted_atoms((lcm - removed).elements())
    return FactoredRat(num, den).normalize(seed)


def _convolve_mod(a, b):
    """The product of two images."""
    out = {}
    get = out.get
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = get(i + j, 0) + x * y
    return {d: v % _P for d, v in out.items() if v % _P}


def _mul_binomial_mod(coeffs, cc, e):
    """An image times 1 - cc*w^e."""
    if not e:
        s = (1 - cc) % _P
        return {d: v * s % _P for d, v in coeffs.items()}
    out = {d: v % _P for d, v in coeffs.items()}
    for d, v in coeffs.items():
        out[d + e] = (out.get(d + e, 0) - cc * v) % _P
    return out


def atom_inverse(constant, shape):
    """The FactoredRat 1/(1 - constant*shape)."""
    u, um, at = Atom.make(constant, shape)
    num = SparsePoly.const(Fraction(1) / Fraction(u)).mul_monomial(um ** -1)
    return FactoredRat(num, (at,), normalized=True)
