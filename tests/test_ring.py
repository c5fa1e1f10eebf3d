import json
import os
import pickle
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from census import pipeline, ring
from census.errors import ExponentOverflow, PoleAtPoint, SubstitutionToZeroPole
from census.ring import (
    Atom,
    FactoredRat,
    Monomial,
    SparsePoly,
    add_many,
    atom_inverse,
    var_key,
)
from census.residues import h_factor

from builders import (
    add_many_by_lcm,
    content_monomial_by_slots,
    divide_atom_by_buckets,
    frac_to_json_by_exponents,
    geometric,
    normalize_by_division,
    normalize_by_filter,
    poly_to_json_by_exponents,
    sorted_terms_by_fields,
    univariate_by_support,
)


def fr_poly(*terms):
    """FactoredRat from (coeff, {var: exp}) pairs."""
    return FactoredRat.from_poly(
        SparsePoly([(Monomial(e), c) for c, e in terms]))


ONE = FactoredRat.one()
Z = Monomial({"z": 1})


def test_add_additive_inverse():
    a = geometric(1, z=1)
    b = a.mul_scalar(-1)
    assert (a + b).is_zero()


def test_add_common_denominator():
    got = geometric(1, z=1) + ONE
    want = fr_poly((2, {}), (-1, {"z": 1})) * geometric(1, z=1)
    assert got == want


def test_add_direct_sum():
    g = geometric(1, z=1)
    got = FactoredRat.from_monomial(Z) * g + g
    want = fr_poly((1, {"z": 1}), (1, {})) * g
    assert got == want


def test_mul_inverse_pair():
    got = geometric(1, z=1) * fr_poly((1, {}), (-1, {"z": 1}))
    assert got == ONE
    assert not got.denominator


def test_mul_atom_cancellation():
    got = fr_poly((1, {}), (-1, {"z": 2})) * geometric(1, z=1)
    assert got == fr_poly((1, {}), (1, {"z": 1}))


def test_mul_prefactor_arithmetic():
    qinv = FactoredRat.from_monomial(Monomial({"q": -1}))
    q = FactoredRat.from_monomial(Monomial({"q": 1}))
    got = qinv * geometric(1, q=1, z=1) * q
    assert got == geometric(1, q=1, z=1)


def test_normalize_cancels_matching_atom():
    _, _, at = Atom.make(1, Monomial({"q": 1, "z": 1}))
    num = at.as_poly() * SparsePoly([(Monomial({"q": 2}), 3), (Monomial(), 1)])
    f = FactoredRat(Monomial(), num, (at,))
    g = f.normalize()
    assert not g.denominator
    assert g == FactoredRat.from_poly(SparsePoly([(Monomial({"q": 2}), 3), (Monomial(), 1)]))


def test_normalize_cyclotomic_quotient():
    _, _, at = Atom.make(1, Z)
    f = FactoredRat(Monomial(), SparsePoly([(Monomial(), 1), (Monomial({"z": 3}), -1)]), (at,))
    assert f.normalize() == fr_poly((1, {}), (1, {"z": 1}), (1, {"z": 2}))


def test_normalize_zero_form():
    _, _, a1 = Atom.make(1, Z)
    _, _, a2 = Atom.make(1, Monomial({"q": 1, "z": 1}))
    f = FactoredRat(Monomial(), SparsePoly.zero(), (a1, a2))
    g = f.normalize()
    assert g.is_zero() and not g.denominator and g.prefactor.is_one()


def test_adams_examples():
    assert geometric(1, q=1, z=1).adams(2) == geometric(1, q=2, z=2)
    f = fr_poly((1, {"a1": 1}), (1, {"q": 1})) * geometric(1, z=1)
    assert f.adams(1) == f
    assert fr_poly((1, {"a1": 1}), (1, {"q": 1})).adams(3) == \
        fr_poly((1, {"a1": 3}), (1, {"q": 3}))


def test_substitute_examples():
    f = geometric(1, z1=1)
    assert f.substitute("z1", 1, Monomial({"z": 2})) == geometric(1, z=2)
    g = fr_poly((1, {}), (-1, {"z": 1}))
    assert g.substitute("z", 1, Monomial({"t": 1})) == fr_poly((1, {}), (-1, {"t": 1}))
    h = geometric(1, q=1)
    assert h.substitute("q", 1, Monomial({"t": 2})) == geometric(1, t=2)


def test_substitute_to_zero_pole():
    f = geometric(1, z=1)
    with pytest.raises(SubstitutionToZeroPole):
        f.substitute("z", 1, Monomial())


def test_eval_examples():
    f = geometric(1, q=1, z=1)
    assert abs(f.eval_numeric({"q": 2, "z": 0.25}) - 2.0) < 1e-12
    sigma = complex(0, 2 ** 0.5)
    g = fr_poly((1, {}), (-1, {"a1": 1})) * fr_poly((1, {}), (-1, {"a2": 1}))
    assert abs(g.eval_numeric({"a1": sigma, "a2": -sigma}) - 3.0) < 1e-9
    with pytest.raises(PoleAtPoint):
        geometric(1, z=1).eval_numeric({"z": 1})


def test_atom_canonical_flip():
    u, um, at = Atom.make(1, Monomial({"q": 1, "z2": -1}))
    assert u == -1 and um == Monomial({"q": 1, "z2": -1})
    assert at.constant == 1 and at.shape == Monomial({"q": -1, "z2": 1})
    u, um, at = Atom.make(1, Monomial({"q": -1}))
    assert at.shape == Monomial({"q": 1})


def test_json_round_trip_bit_exact():
    f = (geometric(1, q=1, z=1) * fr_poly((Fraction(3, 2), {"a1": 2, "q": -1}), (5, {}))
         * atom_inverse(Fraction(-1, 3), Monomial({"a2": -1, "z": 2})))
    blob = json.dumps(f.to_json(), sort_keys=True)
    g = FactoredRat.from_json(json.loads(blob))
    assert json.dumps(g.to_json(), sort_keys=True) == blob
    assert g == f


def test_json_decode_drops_zero_coefficients():
    terms = [[[0, 1], "0/1"], [[1, 0], "2/3"], [[0, 0], "0/5"]]
    want = SparsePoly([(Monomial({"a1": 1}), Fraction(2, 3))])
    assert ring.poly_from_json({"variables": ["a1", "q"],
                                "terms": terms}) == want
    f = FactoredRat.from_json({"variables": ["a1", "q"], "prefactor": [0, 1],
                               "numerator": terms, "denominator": []})
    assert (f.prefactor, f.numerator) == (Monomial({"q": 1}), want)


@pytest.mark.parametrize("variables,vec,error", [
    (["q", "q"], [0, 1], ValueError),
    (["a1", "q"], [1], ValueError),
    (["a1", "q"], [1, 0, 0], ValueError),
    (["a1", "q"], [1, 1.0], TypeError),
    (["a1", "q"], [2 ** 22, 0], ExponentOverflow),
    (["a1", "q"], [0, -2 ** 22], ExponentOverflow),
    (["a1", "q"], [0, 0], ValueError),     # repeats the constant term
])
def test_json_decode_rejects(variables, vec, error):
    terms = [[[0, 0], "1/1"], [vec, "1/1"]]
    with pytest.raises(error):
        ring.poly_from_json({"variables": variables, "terms": terms})
    with pytest.raises(error):
        FactoredRat.from_json({"variables": variables, "prefactor": [0, 0],
                               "numerator": terms, "denominator": []})
    with pytest.raises(error):
        FactoredRat.from_json({"variables": variables, "prefactor": vec,
                               "numerator": terms,
                               "denominator": [["1/1", vec]]})


names = st.sampled_from(["a1", "a2", "q", "z"])


@st.composite
def monomials(draw, min_vars=0):
    n = draw(st.integers(min_value=min_vars, max_value=2))
    vs = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    exps = [draw(st.integers(min_value=-2, max_value=2).filter(bool)) for _ in vs]
    return Monomial(dict(zip(vs, exps)))


@st.composite
def polys(draw):
    k = draw(st.integers(min_value=0, max_value=3))
    terms = [(draw(monomials()), draw(st.integers(min_value=-4, max_value=4)))
             for _ in range(k)]
    return SparsePoly(terms)


@st.composite
def fracs(draw):
    num = draw(polys())
    natoms = draw(st.integers(min_value=0, max_value=2))
    den = []
    unit = 1
    pre = Monomial()
    for _ in range(natoms):
        c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        u, um, at = Atom.make(c, draw(monomials(min_vars=1)))
        unit *= u
        pre = pre * um
        den.append(at)
    f = FactoredRat(draw(monomials()) * pre ** -1, num.mul_scalar(Fraction(1, unit) if unit != 1 else 1), den)
    return f.normalize()


@settings(max_examples=60, deadline=None)
@given(fracs(), fracs(), fracs())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(fracs())
def test_normalize_idempotent(a):
    n1 = a.normalize()
    n2 = n1.normalize()
    assert n1.prefactor == n2.prefactor
    assert n1.numerator == n2.numerator
    assert n1.denominator == n2.denominator


@settings(max_examples=40, deadline=None)
@given(fracs(), fracs(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_adams_homomorphism(a, b, k, m):
    assert (a * b).adams(k) == a.adams(k) * b.adams(k)
    assert (a + b).adams(k) == a.adams(k) + b.adams(k)
    assert a.adams(m).adams(k) == a.adams(k * m)


@settings(max_examples=40, deadline=None)
@given(fracs(), st.randoms(use_true_random=False))
def test_eval_commutes_with_normalize(a, rng):
    point = {v: complex(rng.uniform(0.3, 1.7), rng.uniform(0.1, 1.3))
             for v in ("a1", "a2", "q", "z")}
    raw = FactoredRat(a.prefactor, a.numerator, a.denominator)
    try:
        lhs = raw.eval_numeric(point)
        rhs = a.normalize().eval_numeric(point)
    except PoleAtPoint:
        return
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) / scale < 1e-9


# ---------------------------------------------------------------------------
# Differential tests against sympy: every ring operation on small random
# FactoredRats must agree with sympy's rational-function arithmetic after
# sympy.cancel.  Values are read through to_json, so these tests do not
# depend on how monomials are stored.

DIFF_NAMES = ("a1", "a2", "q", "z", "z1", "z2")
DIFF_CONSTANTS = (1, -1, 2, Fraction(1, 2))
SYMBOLS = {name: sympy.Symbol(name) for name in DIFF_NAMES}


def _sym_rational(text):
    n, _, d = text.partition("/")
    return sympy.Rational(int(n), int(d or 1))


def _sym_monomial(variables, vec):
    out = sympy.Integer(1)
    for v, e in zip(variables, vec):
        out *= SYMBOLS[v] ** e
    return out


def to_sympy(f):
    """A FactoredRat (or SparsePoly) as a sympy expression."""
    if isinstance(f, SparsePoly):
        f = FactoredRat.from_poly(f)
    blob = f.to_json()
    vs = blob["variables"]
    num = sum((_sym_rational(c) * _sym_monomial(vs, vec)
               for vec, c in blob["numerator"]), sympy.Integer(0))
    den = sympy.Integer(1)
    for c, vec in blob["denominator"]:
        den *= 1 - _sym_rational(c) * _sym_monomial(vs, vec)
    return _sym_monomial(vs, blob["prefactor"]) * num / den


def sym_equal(a, b):
    # a - b is num/den, zero exactly when num expands to 0; sympy.cancel
    # can leave an unevaluated sum such as -1/4 + 1/4 instead of 0
    num, _ = sympy.fraction(sympy.together(a - b))
    return sympy.expand(num) == 0


def sym_atom(atom):
    return to_sympy(FactoredRat.from_poly(atom.as_poly()))


@st.composite
def diff_monomials(draw, min_vars=0, max_vars=2):
    n = draw(st.integers(min_value=min_vars, max_value=max_vars))
    vs = draw(st.lists(st.sampled_from(DIFF_NAMES), min_size=n, max_size=n,
                       unique=True))
    exponents = st.integers(min_value=-2, max_value=2).filter(bool)
    return Monomial({v: draw(exponents) for v in vs})


@st.composite
def diff_polys(draw, min_terms=0, max_terms=3):
    k = draw(st.integers(min_value=min_terms, max_value=max_terms))
    return SparsePoly([(draw(diff_monomials()),
                        draw(st.sampled_from(DIFF_CONSTANTS)))
                       for _ in range(k)])


@st.composite
def diff_atoms(draw):
    _, _, atom = Atom.make(draw(st.sampled_from(DIFF_CONSTANTS)),
                           draw(diff_monomials(min_vars=1)))
    return atom


@st.composite
def raw_fracs(draw, min_terms=0, max_terms=3):
    """Unnormalized: some denominator atoms are planted in the numerator,
    and atoms may repeat."""
    num = draw(diff_polys(min_terms, max_terms))
    den = draw(st.lists(diff_atoms(), max_size=3))
    for atom in den:
        if draw(st.booleans()):
            num = num * atom.as_poly()
    if den and draw(st.booleans()):
        den.append(den[0])
    return FactoredRat(draw(diff_monomials()), num, den)


DIFF = settings(max_examples=40, deadline=None)


@DIFF
@given(raw_fracs())
def test_diff_normalize(f):
    n = f.normalize()
    assert sym_equal(to_sympy(n), to_sympy(f))
    for atom in set(n.denominator):
        assert n.numerator.divide_atom(atom) is None


@DIFF
@given(st.lists(raw_fracs(max_terms=2), min_size=1, max_size=3))
def test_diff_add_many(fs):
    want = sum((to_sympy(f) for f in fs), sympy.Integer(0))
    assert sym_equal(to_sympy(add_many(fs)), want)


Q_PLUS_HALF = FactoredRat.from_poly(SparsePoly([(Monomial.of(q=1), 1),
                                              (Monomial(), Fraction(1, 2))]))


@DIFF
@given(raw_fracs(max_terms=2), raw_fracs(max_terms=2))
@example(Q_PLUS_HALF, Q_PLUS_HALF)
def test_diff_mul(a, b):
    assert sym_equal(to_sympy(a * b), to_sympy(a) * to_sympy(b))


@DIFF
@given(diff_polys(), diff_atoms(), st.booleans())
def test_diff_divide_atom(p, atom, plant):
    if plant:
        p = p * atom.as_poly()
    quotient = p.divide_atom(atom)
    if quotient is None:
        assert not plant
        _, den = sympy.fraction(sympy.cancel(to_sympy(p) / sym_atom(atom)))
        assert not sympy.Poly(den, *SYMBOLS.values()).is_monomial
    else:
        assert sym_equal(to_sympy(quotient) * sym_atom(atom), to_sympy(p))


# divide_atom walks lattice lines; the bucket division it replaced is the
# reference, byte for byte.  The numerators are multivariate Laurent
# polynomials, planted multiples of the atom and near misses of them, and
# some are shifted so that their exponents reach ±(2**22 - 1) in every
# variable the bucket division's carries leave alone: the leading one of
# the atom, and those it lacks.

EDGE = 2 ** 22 - 1
LINE_NAMES = ("a1", "q", "z", "T", "z1")
LINE_CONSTANTS = (1, -1, 2, Fraction(1, 2), Fraction(-3, 4))
LINE_TERMS = st.tuples(st.dictionaries(st.sampled_from(LINE_NAMES),
                                       st.integers(-4, 4), max_size=3),
                       st.sampled_from(LINE_CONSTANTS))


@st.composite
def line_atoms(draw):
    names = draw(st.lists(st.sampled_from(LINE_NAMES), min_size=1,
                          max_size=3, unique=True))
    shape = Monomial({v: draw(st.integers(-3, 3).filter(bool))
                      for v in names})
    return Atom.make(draw(st.sampled_from(LINE_CONSTANTS)), shape)[2]


@st.composite
def line_numerators(draw, atom):
    poly = SparsePoly([(Monomial(e), c)
                       for e, c in draw(st.lists(LINE_TERMS, max_size=6))])
    if draw(st.booleans()):
        poly = poly * atom.as_poly()
        if draw(st.booleans()):
            e, c = draw(LINE_TERMS)
            poly = poly + SparsePoly([(Monomial(e), c)])
    carried = set(atom.shape.variables()) - {atom.shape.leading()[0]}
    for v in LINE_NAMES:
        side = draw(st.sampled_from([0, 1, -1]))
        if v in carried or not side or not poly.terms:
            continue
        exps = [Monomial.from_code(m).exponent(v) for m in poly.terms]
        shift = EDGE - max(exps) if side > 0 else -EDGE - min(exps)
        # in two steps: a shift may itself pass the range of one exponent
        for e in (shift // 2, shift - shift // 2):
            poly = poly.mul_monomial(Monomial.of(**{v: e}))
    return poly


def assert_same_division(poly, atom):
    got = poly.divide_atom(atom)
    want = divide_atom_by_buckets(poly, atom)
    assert (got is None) == (want is None)
    if got is not None:
        assert json.dumps(ring.poly_to_json(got)) == \
            json.dumps(ring.poly_to_json(want))
        assert {m: type(c) for m, c in got.terms.items()} == \
            {m: type(c) for m, c in want.terms.items()}
    return got


@settings(max_examples=400, deadline=None)
@given(line_atoms(), st.data())
def test_line_walk_agrees_with_bucket_division(atom, data):
    assert_same_division(data.draw(line_numerators(atom)), atom)


@pytest.mark.parametrize("c,shape,quotient", [
    # a planted multiple whose terms reach z^EDGE, a near miss of it, and
    # lines of one term
    (1, {"q": -1, "z": 1}, [(1, {"z": EDGE - 1}), (2, {"z": EDGE - 3})]),
    (Fraction(1, 2), {"z": 3}, [(1, {"z": -EDGE}),
                                (-1, {"a1": EDGE, "z": 2 - EDGE})]),
    # m_q * k passes 2**22 on lines near z^-EDGE: the quotient is checked
    (-1, {"q": 3, "z": 1}, [(1, {"z": -EDGE, "q": 1}), (3, {"z": 5 - EDGE})]),
    (2, {"T": 1, "q": 2}, [(1, {"T": EDGE - 2, "z1": -EDGE})]),
])
def test_line_walk_at_the_edge_of_the_exponent_range(c, shape, quotient):
    atom = Atom.make(c, Monomial(shape))[2]
    q = SparsePoly([(Monomial(e), cf) for cf, e in quotient])
    poly = q * atom.as_poly()
    assert assert_same_division(poly, atom) == q
    near = poly + SparsePoly([(Monomial(quotient[0][1]), 1)])
    assert assert_same_division(near, atom) is None
    for code, cf in poly.terms.items():
        assert SparsePoly._raw({code: cf}).divide_atom(atom) is None


def test_line_walk_keeps_apart_lines_whose_bases_alias():
    # m = T q^(2^21): the base of T^8 z is z q^(-2^24), whose code is that
    # of 1, the base of the term 1.  The two lines, of one term each, do
    # not divide; their sum 1 - X^8 in X = T q^(2^21) would, through codes
    # with q^(2^22), which is past the range.  The bucket division carries
    # into q^(2^22) and raises.
    atom = Atom(1, Monomial.of(T=1, q=2 ** 21))
    poly = SparsePoly([(Monomial(), 1), (Monomial.of(T=8, z=1), -1)])
    assert poly.divide_atom(atom) is None
    with pytest.raises(ExponentOverflow):
        divide_atom_by_buckets(poly, atom)


@DIFF
@given(raw_fracs(), st.sampled_from(DIFF_NAMES),
       st.sampled_from(DIFF_CONSTANTS), diff_monomials())
def test_diff_substitute(f, var, coeff, image):
    image = image.without(var)
    point = {SYMBOLS[var]: coeff * to_sympy(FactoredRat.from_monomial(image))}
    try:
        got = f.substitute(var, coeff, image)
    except SubstitutionToZeroPole:
        assert any(sym_equal(sym_atom(a).subs(point), sympy.Integer(0))
                   for a in f.denominator)
        return
    assert sym_equal(to_sympy(got), to_sympy(f).subs(point))


@DIFF
@given(raw_fracs(), st.integers(min_value=1, max_value=3))
def test_diff_adams(f, k):
    powers = {s: s ** k for s in SYMBOLS.values()}
    assert sym_equal(to_sympy(f.adams(k)),
                     to_sympy(f).subs(powers, simultaneous=True))


# ---------------------------------------------------------------------------
# The division filter of normalize follows each exact division by updating
# its cached mod-p reductions; the updated reductions must equal fresh ones
# of the quotient at the fixed point.


@contextmanager
def checked_filter_updates():
    """Within the block, every filter update inside normalize is compared
    with a fresh _reduce of the quotient; yields the set of update kinds
    met: leading (the atom's leading variable), binomial (another variable
    of the atom), scalar (a variable the atom lacks) and dropped."""
    seen = set()
    divided = ring._DivisionFilter.divided

    def checked(filt, atom, quotient):
        lead = atom.shape.leading()[0]
        kinds = {w: "leading" if w == lead else
                 "binomial" if atom.shape.exponent(w) else "scalar"
                 for w in filt.reductions}
        divided(filt, atom, quotient)
        assert filt.poly is quotient
        for w, kind in kinds.items():
            if w not in filt.reductions:
                seen.add("dropped")
                continue
            seen.add(kind)
            assert filt.reductions[w] == ring._reduce(quotient, w)

    ring._DivisionFilter.divided = checked
    try:
        yield seen
    finally:
        ring._DivisionFilter.divided = divided


def _planted(poly, atoms):
    num = poly
    for atom in atoms:
        num = num.mul_atom(atom)
    return FactoredRat(Monomial(), num, atoms)


def _atom(c, **exps):
    return Atom.make(c, Monomial(exps))[2]


def test_filter_update_every_kind():
    # sorted by Atom.key: a2, q, T (degree 1), then q^3/a2 and q*T, which
    # meet reductions in a2, q and T
    atoms = [_atom(1, a2=1), _atom(2, q=1), _atom(-1, T=1),
             _atom(Fraction(1, 2), q=3, a2=-1), _atom(1, q=1, T=1)] * 2
    poly = SparsePoly([(Monomial.of(q=1, a1=1), 3), (Monomial.of(T=2), -1),
                       (Monomial(), 5)])
    with checked_filter_updates() as seen:
        n = _planted(poly, atoms).normalize()
    assert seen == {"leading", "binomial", "scalar"}
    assert not n.denominator
    assert n.numerator.mul_monomial(n.prefactor) == poly


def test_filter_update_drops_an_entry_it_cannot_specialize():
    # 1 - T/p has no image mod the filter's prime p: the reduction in q
    # is dropped, and the atom after it recomputes one lazily
    p = ring._P
    atoms = [_atom(1, q=1), _atom(Fraction(1, p), T=1), _atom(3, q=1, T=1)]
    poly = SparsePoly([(Monomial.of(q=2), 1), (Monomial.of(T=1), 7)])
    with checked_filter_updates() as seen:
        n = _planted(poly, atoms).normalize()
    assert "dropped" in seen
    assert not n.denominator
    assert n.numerator.mul_monomial(n.prefactor) == poly


def test_filter_update_on_a_numerator_in_z():
    # sorted by Atom.key: a2, q, a1*q/p, q^3/a2, q*z, z^3.  On a numerator
    # in z every atom, z-free or not, is tested on the image of the whole
    # numerator; the images in a2, q and z meet the leading, binomial and
    # scalar updates, and a1*q/p, which has no image mod the filter's
    # prime p, drops those made before it
    atoms = [_atom(1, a2=1), _atom(2, q=1), _atom(Fraction(1, 2), q=3, a2=-1),
             _atom(1, q=1, z=1), _atom(-1, z=3),
             _atom(Fraction(1, ring._P), a1=1, q=1)] * 2
    poly = SparsePoly([(Monomial.of(q=1, a1=1), 3), (Monomial.of(z=2), -1),
                       (Monomial.of(z=1, a2=1), 2), (Monomial(), 5)])
    with checked_filter_updates() as seen:
        n = _planted(poly, atoms).normalize()
    assert seen == {"leading", "binomial", "scalar", "dropped"}
    assert not n.denominator
    assert n.numerator.mul_monomial(n.prefactor) == poly


@DIFF
@given(diff_polys(min_terms=1), st.lists(diff_atoms(), min_size=1,
                                         max_size=4), st.data())
def test_filter_update_random(poly, atoms, data):
    extra = data.draw(st.lists(diff_atoms(), max_size=2))
    f = _planted(poly, atoms)
    f = FactoredRat(f.prefactor, f.numerator, f.denominator + tuple(extra))
    with checked_filter_updates():
        n = f.normalize()
    assert sym_equal(to_sympy(n), to_sympy(f))
    for atom in set(n.denominator):
        assert n.numerator.divide_atom(atom) is None


UNIVARIATE_CASES = [
    (SparsePoly.zero(), "q", True),
    # pure w, negative exponents, down to the edge of the field
    (SparsePoly([(Monomial.of(q=-3), 2), (Monomial(), 1),
                 (Monomial.of(q=4), -1)]), "q", True),
    (SparsePoly([(Monomial.of(z2=-(2 ** 22 - 1)), 1),
                 (Monomial.of(z2=-1), 5)]), "z2", True),
    (SparsePoly([(Monomial.of(a3=-2), 1), (Monomial.of(a3=7), 1)]), "a3",
     True),
    # w in a family slot, beside a neighbouring slot of the other family
    (SparsePoly([(Monomial.of(a1=1), 1), (Monomial.of(z1=1), 1)]), "a1",
     False),
    (SparsePoly([(Monomial.of(z1=-1), 1), (Monomial.of(a2=-1), 1)]), "z1",
     False),
    # the first term pure w, a later one not
    (SparsePoly([(Monomial.of(z=-1), 1), (Monomial(), 3),
                 (Monomial.of(z=2, q=-1), 1)]), "z", False),
    (SparsePoly([(Monomial.of(a128=5), 1), (Monomial.of(a128=-5, T=1), 1)]),
     "a128", False),
    (SparsePoly([(Monomial.of(q=1), 1)]), "z", False),
]


@pytest.mark.parametrize("poly, w, want", UNIVARIATE_CASES)
def test_univariate_examples(poly, w, want):
    assert univariate_by_support(poly, w) is want
    assert ring._DivisionFilter(poly)._univariate(w) is want


UNIVARIATE_NAMES = ("q", "z", "T", "a1", "a2", "a128", "z1", "z2", "z128")
UNIVARIATE_EXPONENTS = (st.integers(min_value=-3, max_value=3)
                        | st.integers(min_value=-2 ** 22 + 1,
                                      max_value=2 ** 22 - 1))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(UNIVARIATE_NAMES), st.data())
def test_univariate_matches_the_support(w, data):
    # terms pure in w first, then terms in any variables, so that the
    # early exit meets a term outside w at every position
    pure = data.draw(st.lists(UNIVARIATE_EXPONENTS.map(
        lambda e: Monomial({w: e})), max_size=4))
    mixed = data.draw(st.lists(st.dictionaries(
        st.sampled_from(UNIVARIATE_NAMES), UNIVARIATE_EXPONENTS,
        max_size=3).map(Monomial), max_size=3))
    poly = SparsePoly([(m, 1) for m in pure + mixed])
    assert (ring._DivisionFilter(poly)._univariate(w)
            is univariate_by_support(poly, w))


def test_filter_leaves_an_atom_that_vanishes_to_exact_division():
    # 1 - p*z specializes to the unit 1 mod the filter's prime p, which
    # decides nothing: the filter lets it through even where it does not
    # divide, and exact division lets the atom cancel where it does
    atom = _atom(ring._P, z=1)
    poly = SparsePoly([(Monomial(), 2), (Monomial.of(z=2), 3)])
    assert ring._DivisionFilter(poly).may_divide(atom)
    assert poly.divide_atom(atom) is None
    n = _planted(poly, [atom]).normalize()
    assert not n.denominator
    assert n.numerator.mul_monomial(n.prefactor) == poly


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fold_agrees_with_synthetic_division(data):
    p = ring._P
    coeffs = data.draw(st.dictionaries(st.integers(-12, 12),
                                       st.integers(1, p - 1), max_size=8))
    d = data.draw(st.integers(1, 6))
    cc = data.draw(st.sampled_from([1, p - 1]) | st.integers(2, p - 2))
    # 1 - cc^k w^(kd) is a multiple of 1 - cc w^d, and 1 - cc^k w^(ke) for
    # another e shares roots with it, but only some
    exps = st.sampled_from([d]) | st.integers(1, 6)
    for k, e in data.draw(st.lists(st.tuples(st.integers(1, 3), exps),
                                   max_size=2)):
        coeffs = ring._mul_binomial_mod(coeffs, pow(cc, k, p), k * e)
    if d > 1 and data.draw(st.booleans()):
        # c*(w^a - w^b): two classes off by c, in total 0
        a, b = data.draw(st.lists(st.integers(0, d - 1), min_size=2,
                                  max_size=2, unique=True))
        c = data.draw(st.integers(1, p - 1))
        coeffs = dict(coeffs)
        coeffs[a] = (coeffs.get(a, 0) + c) % p
        coeffs[b] = (coeffs.get(b, 0) - c) % p
    assert ring._vanishes_mod(coeffs, cc, d) == \
        (ring._divide_mod(coeffs, cc, d) is not None)


# _reduce makes the residue of each distinct monomial without w once; its
# image must equal the point evaluated term by term.

REDUCE_NAMES = ("a1", "a2", "q", "z", "T", "z1")


def direct_image(poly, w):
    """Σ c·∏ point[v]^e mod p over the terms, grouped by the degree of w,
    or None when p divides a coefficient's denominator."""
    p = ring._P
    out = {}
    for m, c in poly.sorted_terms():
        c = Fraction(c)
        if not c.denominator % p:
            return None
        r = c.numerator * pow(c.denominator, -1, p)
        for v, e in m.items:
            if v != w:
                r = r * pow(ring._POINT[v], e, p) % p
        out[m.exponent(w)] = (out.get(m.exponent(w), 0) + r) % p
    return {d: r for d, r in out.items() if r}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
           st.dictionaries(st.sampled_from(REDUCE_NAMES), st.integers(-3, 3),
                           max_size=3),
           st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=7)),
           max_size=8),
       # t never occurs in the terms
       st.sampled_from(REDUCE_NAMES + ("t",)),
       st.sampled_from([None, "exact", "every"]), st.booleans())
@example([({"q": 1, "z": -2}, Fraction(2, 3)), ({"q": 1, "z": 1}, -1),
          ({"q": 1}, 1)], "z", None, False)
@example([({"a1": -1}, Fraction(5, 7)), ({"T": 2}, 3)], "t", "every", False)
@example([({"q": 2}, 1), ({}, 4)], "q", "exact", True)
def test_reduce_agrees_with_a_term_by_term_evaluation(terms, w, support,
                                                      undefined):
    poly = SparsePoly([(Monomial(e), c) for e, c in terms])
    if undefined:
        # no other coefficient's denominator can cancel the prime
        poly = poly + SparsePoly([(Monomial.of(q=1), Fraction(1, ring._P))])
    if support == "exact":
        support = ring._support(poly.terms)
    elif support == "every":
        support = [ring._SLOT[v] for v in REDUCE_NAMES + ("t",)]
    want = direct_image(poly, w)
    assert (want is None) == undefined
    assert ring._reduce(poly, w, support) == want


@DIFF
@given(diff_monomials(), st.sampled_from(DIFF_CONSTANTS), diff_monomials(),
       st.lists(diff_atoms(), max_size=4), st.data())
def test_normalize_of_a_monomial_matches_the_filtered_path(m, c, pre, atoms,
                                                           data):
    if not m.is_one() and data.draw(st.booleans()):
        atoms.append(Atom.make(c, m)[2])
    f = FactoredRat(pre, SparsePoly([(m, c)]), atoms)
    assert json.dumps(f.normalize().to_json()) == \
        json.dumps(normalize_by_filter(f).to_json())


# z-free atoms and atoms in z, which interleave in Atom.key order
SLICE_ATOMS = [Atom.make(c, Monomial(e))[2] for c, e in [
    (1, {"z": 1, "a1": -1}), (1, {"a2": 1}), (2, {"q": 1}), (-1, {"z": 1}),
    (Fraction(1, 2), {"q": 3, "a2": -1}), (1, {"q": 1, "z": 1}),
    (-1, {"q": 2}), (2, {"a1": 1, "q": 1}), (-1, {"z": 2}),
    (1, {"q": 1, "z": 2, "a2": 1})]]


@settings(max_examples=200, deadline=None)
@given(diff_polys(min_terms=1, max_terms=5),
       st.lists(st.sampled_from(SLICE_ATOMS), min_size=1, max_size=6),
       st.lists(st.sampled_from(SLICE_ATOMS), max_size=4))
def test_normalize_bytes_match_exact_division_alone(poly, planted, extra):
    f = _planted(poly, planted)
    f = FactoredRat(f.prefactor, f.numerator, f.denominator + tuple(extra))
    filtered = f.normalize()
    exact = normalize_by_division(f)
    assert json.dumps(filtered.to_json()) == json.dumps(exact.to_json())
    assert (filtered.numerator.mul_monomial(filtered.prefactor)
            == exact.numerator.mul_monomial(exact.prefactor))
    assert filtered.denominator == exact.denominator


@settings(max_examples=100, deadline=None)
@given(raw_fracs(), diff_monomials(max_vars=3))
def test_written_form_ignores_the_held_split(f, m):
    # normalize leaves a monomial where it finds it, in the prefactor or in
    # the numerator; a normalized fraction compares and is written the same
    # wherever it is held
    f = f.normalize()
    g = FactoredRat(f.prefactor * m, f.numerator.mul_monomial(m ** -1),
                    f.denominator, normalized=True)
    assert g == f and f == g
    assert json.dumps(g.to_json()) == json.dumps(f.to_json())
    assert repr(g) == repr(f)


# ---------------------------------------------------------------------------
# × and + hand normalize a seed that composes the image of the numerator
# they built from the images of their operands; every composed image, and
# every image a fraction carries, must equal a fresh _reduce at the fixed
# point.


def assert_images(f):
    for w, img in f._images.items():
        assert img == ring._reduce(f.numerator, w)


@contextmanager
def checked_images():
    """Within the block, every image a seed composes is compared with
    _reduce of the numerator it was built for, and every normalized
    result's images with _reduce of its numerator; yields the list of
    variables w composed."""
    composed = []
    init = ring._DivisionFilter.__init__
    normalize = FactoredRat.normalize

    def checked_init(filt, poly, seed=None):
        def checked(w):
            img = seed(w)
            if img is not None:
                assert img == ring._reduce(poly, w)
                composed.append(w)
            return img

        init(filt, poly, None if seed is None else checked)

    def checked_normalize(f, seed=None):
        out = normalize(f, seed)
        assert_images(out)
        return out

    ring._DivisionFilter.__init__ = checked_init
    FactoredRat.normalize = checked_normalize
    try:
        yield composed
    finally:
        ring._DivisionFilter.__init__ = init
        FactoredRat.normalize = normalize


@DIFF
@given(raw_fracs(max_terms=2), raw_fracs(max_terms=2),
       st.lists(raw_fracs(max_terms=2), min_size=1, max_size=3),
       st.sampled_from(DIFF_CONSTANTS + (Fraction(-3, 7),)))
def test_images_compose(a, b, fs, c):
    with checked_images():
        product = a * b
        for f in (product, -product, product.mul_scalar(c), add_many(fs),
                  add_many([-product, b.mul_scalar(c)] + fs)):
            assert_images(f)


def test_images_follow_the_content_monomial():
    # the numerator q*z^2*(1 + a1*q) keeps its content q*z^2, and the
    # split that to_json writes carries it in the prefactor
    atoms = [_atom(1, q=1, z=1), _atom(2, a1=1, z=1)]
    num = SparsePoly([(Monomial.of(q=1, z=2), 1), (Monomial.of(a1=1, q=2, z=2),
                                                   1)])
    f = _planted(num, atoms[:1])
    f = FactoredRat(f.prefactor, f.numerator, f.denominator + (atoms[1],))
    with checked_images() as composed:
        n = f * FactoredRat.from_poly(SparsePoly([(Monomial.of(a2=1), 3),
                                                  (Monomial(), 1)]))
    assert (FactoredRat.from_json(n.to_json()).prefactor
            == Monomial.of(q=1, z=2))
    assert n.denominator == (atoms[1],)
    assert composed and n._images


def test_images_on_the_main_route():
    for cached in (pipeline.kac_rational, pipeline.degree_class_sums,
                   pipeline._constant_class_sums, pipeline._partition_log,
                   pipeline._constant_log, h_factor):
        cached.cache_clear()
    with checked_images() as composed:
        for d in range(2):
            pipeline.kac_polynomial(2, 2, d)
        pipeline.kac_series_oracle(1, 2)
    assert composed
    # the constant-term route is univariate in z, so every seed is declined
    with checked_images() as composed:
        for r in range(1, 5):
            for d in range(r):
                pipeline.constant_term(2, r, d)
    assert not composed


# ---------------------------------------------------------------------------
# × cancels the free atoms of one operand's denominator against the
# other's numerator before multiplying; the product must keep the bytes of
# normalizing the full product, in which the atoms are tried in Atom.key
# order.  Non-primitive atoms sit beside their factors: (1 - q^-2 z^2)
# sorts before its factor (1 - q^-1 z), (1 - z) before (1 - z^2).

CROSS_ATOMS = (_atom(1, z=1), _atom(-1, z=1), _atom(1, z=2), _atom(1, z=3),
               _atom(1, q=-1, z=1), _atom(-1, q=-1, z=1), _atom(1, q=-2, z=2),
               _atom(2, a1=1, q=1))
CROSS_FACTORS = tuple(a.as_poly() for a in CROSS_ATOMS) + (
    SparsePoly([(Monomial(), 1), (Monomial.of(z=1), 1),
                (Monomial.of(z=2), 1)]),)
X = SparsePoly([(Monomial(), 1), (Monomial.of(a1=1, q=1), 1)])
Y = SparsePoly([(Monomial(), 1), (Monomial.of(q=1), 3)])


def normal_frac(num, *den):
    return FactoredRat(Monomial(), num, den).normalize()


@st.composite
def cross_pairs(draw):
    """Normalized pairs whose numerators carry factors of the atoms in the
    other operand's denominator."""
    dens = [draw(st.lists(st.sampled_from(CROSS_ATOMS), max_size=3))
            + draw(st.lists(diff_atoms(), max_size=1)) for _ in range(2)]
    pair = []
    for mine, theirs in (dens, dens[::-1]):
        num = draw(st.one_of(st.sampled_from((X, Y)),
                             diff_polys(min_terms=1)))
        factors = [atom.as_poly() for atom in theirs] + list(CROSS_FACTORS)
        for factor in draw(st.lists(st.sampled_from(factors), max_size=3)):
            num = num * factor
        pair.append(FactoredRat(draw(diff_monomials()), num, mine).normalize())
    return pair


def reference_product(a, b):
    return FactoredRat(a.prefactor * b.prefactor, a.numerator * b.numerator,
                       a.denominator + b.denominator).normalize()


@settings(max_examples=150, deadline=None)
@given(cross_pairs())
# (1 - z^2) sorts before (1 - z^3) and takes the product's one factor
# 1 - z, so (1 - z^3), which shares it, must not leave a's numerator first
@example([normal_frac(CROSS_FACTORS[3] * X, CROSS_ATOMS[2]),
          normal_frac(CROSS_FACTORS[1] * Y, CROSS_ATOMS[3])])
# (1 - q^-1 z) divides (1 - q^-2 z^2), which sorts before it: held back
@example([normal_frac(X, CROSS_ATOMS[6], CROSS_ATOMS[4]),
          normal_frac(CROSS_FACTORS[6] * Y)])
# (1 - z^2) sorts first in its direction, so it leaves a's numerator first
@example([normal_frac(CROSS_FACTORS[2] * X), normal_frac(Y, CROSS_ATOMS[2])])
def test_cross_cancellation_keeps_the_bytes(pair):
    a, b = pair
    got, want = a * b, reference_product(a, b)
    assert got.to_json() == want.to_json()
    assert got.denominator == want.denominator
    for w, img in got._images.items():
        assert img == want._image(w)
        assert img == ring._reduce(got.numerator, w)


# ---------------------------------------------------------------------------
# add_many removes the free atoms that divide k separate missing atoms of
# every term (1 - y divides 1 - y^n) before it multiplies the numerators
# out; the sum must keep the bytes of multiplying every missing atom in
# (builders.add_many_by_lcm).  The pool holds atoms of four directions, z,
# q, q^-1 z and q^-2 z, and the numerators may carry the cofactor 1 + y
# of an atom 1 - y^2 of the pool, or 1 + z + z^2 of 1 - z^3.

SUM_ATOMS = (_atom(1, z=1), _atom(1, z=2), _atom(-1, z=1), _atom(1, z=3),
             _atom(2, z=1), _atom(4, z=2), _atom(1, q=1), _atom(1, q=2),
             _atom(1, q=-1, z=1), _atom(1, q=-2, z=2), _atom(1, q=-2, z=1))
SUM_COFACTORS = (_atom(-1, z=1).as_poly(), _atom(-2, z=1).as_poly(),
                 _atom(-1, q=1).as_poly(), _atom(-1, q=-1, z=1).as_poly(),
                 CROSS_FACTORS[-1])


@st.composite
def sums(draw):
    """Terms over the pool, raw or normalized; half the numerators are
    a monomial (times cofactors), which random sums need to reach an atom
    held back by one before it."""
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        num = draw(st.one_of(diff_polys(min_terms=1, max_terms=1),
                             diff_polys(min_terms=2, max_terms=2)))
        for factor in draw(st.lists(st.sampled_from(SUM_COFACTORS),
                                    max_size=2)):
            num = num * factor
        den = draw(st.lists(st.sampled_from(SUM_ATOMS), max_size=4))
        f = FactoredRat(draw(diff_monomials()), num, den)
        terms.append(f.normalize() if draw(st.booleans()) else f)
    return terms


def worked_sum():
    """(1 + y)/(1 - y^2) + 1/(1 - y) for y = q^-1 z, which is 2/(1 - y):
    normalize cancels (1 - y^2), which sorts first, from the numerator
    2(1 - y^2).  Removing 1 - y, a factor of 1 - y^2, ahead of normalize
    would leave 2(1 + y)/(1 - y^2)."""
    return [FactoredRat(Monomial(), SUM_COFACTORS[3], (SUM_ATOMS[9],)),
            FactoredRat(Monomial(), SparsePoly.one(), (SUM_ATOMS[8],))]


@settings(max_examples=200, deadline=None)
@given(sums())
@example(worked_sum())
def test_add_many_keeps_the_bytes(terms):
    with checked_images():
        got = add_many(terms)
    want = add_many_by_lcm(terms)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert got.denominator == want.denominator


def test_add_many_keeps_an_atom_dividing_one_before_it():
    got = add_many(worked_sum())
    assert got.numerator == SparsePoly.const(2)
    assert got.denominator == (SUM_ATOMS[8],)
    assert got.to_json() == add_many_by_lcm(worked_sum()).to_json()


# ---------------------------------------------------------------------------
# Packed monomial codes: a monomial is one int with a signed 24-bit field
# per variable; every exponent with |e| < 2**22 is exact, and anything
# beyond 2**22 raises ExponentOverflow.

LIMIT = 2 ** 22
CODE_NAMES = ("a1", "a4", "a128", "q", "z", "T", "t", "s", "z1", "z3",
              "z2", "z128")
EXPONENTS = st.dictionaries(st.sampled_from(CODE_NAMES),
                            st.integers(min_value=-LIMIT + 1,
                                        max_value=LIMIT - 1), max_size=6)


def _exps(m):
    return dict(m.items)


def _nonzero(exps):
    return {v: e for v, e in exps.items() if e}


@settings(max_examples=200, deadline=None)
@given(EXPONENTS)
def test_code_round_trip(exps):
    m = Monomial(exps)
    want = _nonzero(exps)
    assert _exps(m) == want
    assert [v for v, _ in m.items] == sorted(want, key=var_key)
    assert all(m.exponent(v) == want.get(v, 0) for v in CODE_NAMES)
    back = Monomial.from_code(m.code)
    assert back == m and back.items == m.items and hash(back) == hash(m)
    assert SparsePoly([(m, 3)]).sorted_terms() == [(m, 3)]


@settings(max_examples=200, deadline=None)
@given(EXPONENTS, EXPONENTS)
def test_code_product_is_exponentwise_sum(a, b):
    want = dict(a)
    for v, e in b.items():
        want[v] = want.get(v, 0) + e
    if any(abs(e) > LIMIT for e in want.values()):
        with pytest.raises(ExponentOverflow):
            Monomial(a) * Monomial(b)
        with pytest.raises(ExponentOverflow):
            SparsePoly([(Monomial(a), 1)]) * SparsePoly([(Monomial(b), 1)])
    elif all(abs(e) < LIMIT for e in want.values()):
        got = Monomial(a) * Monomial(b)
        assert _exps(got) == _nonzero(want)
        assert got.code == Monomial(a).code + Monomial(b).code
        poly = SparsePoly([(Monomial(a), 1)]).mul_monomial(Monomial(b))
        assert poly == SparsePoly([(got, 1)])


@settings(max_examples=200, deadline=None)
@given(EXPONENTS, st.integers(min_value=-40, max_value=40))
def test_code_power_scales_exponents(exps, k):
    want = {v: k * e for v, e in exps.items()}
    if any(abs(e) > LIMIT for e in want.values()):
        with pytest.raises(ExponentOverflow):
            Monomial(exps) ** k
    elif all(abs(e) < LIMIT for e in want.values()):
        assert _exps(Monomial(exps) ** k) == _nonzero(want)
        if k > 0:
            adams = SparsePoly([(Monomial(exps), 1)]).adams(k)
            assert adams == SparsePoly([(Monomial(want), 1)])


@DIFF
@given(diff_polys(min_terms=1))
def test_content_monomial_is_exponentwise_min(p):
    terms = [dict(m.items) for m, _ in p.sorted_terms()]
    names = set().union(*terms)
    want = Monomial({v: min(t.get(v, 0) for t in terms) for v in names})
    assert p.content_monomial() == want


WIDE_EXPONENTS = st.dictionaries(
    st.sampled_from(CODE_NAMES),
    st.one_of(st.integers(min_value=-2, max_value=3),
              st.integers(min_value=-LIMIT + 1, max_value=LIMIT - 1)),
    max_size=6)
WIDE_COEFFS = st.one_of(st.integers(min_value=-9, max_value=9).filter(bool),
                        st.fractions(max_denominator=12).filter(bool))


@st.composite
def wide_polys(draw):
    """Polynomials with exponents up to 2**22 - 1 in absolute value, zeros,
    negative high fields, slots up to a128 and z128, Fraction coefficients;
    one term about as often as several."""
    n = draw(st.one_of(st.just(1), st.integers(min_value=0, max_value=7)))
    return SparsePoly([(Monomial(draw(WIDE_EXPONENTS)), draw(WIDE_COEFFS))
                       for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(wide_polys())
def test_content_and_json_match_the_references(p):
    assert p.content_monomial().code == content_monomial_by_slots(p).code
    assert (json.dumps(ring.poly_to_json(p))
            == json.dumps(poly_to_json_by_exponents(p)))
    got = [(m.code, m.items, c) for m, c in p.sorted_terms()]
    assert got == [(m.code, m.items, c) for m, c in sorted_terms_by_fields(p)]


@settings(max_examples=150, deadline=None)
@given(wide_polys(), WIDE_EXPONENTS,
       st.lists(st.tuples(WIDE_COEFFS, WIDE_EXPONENTS.filter(
           lambda e: any(e.values()))), max_size=3))
def test_fraction_json_matches_the_reference(num, pre, atoms):
    den = tuple(Atom.make(c, Monomial(e))[2] for c, e in atoms)
    f = FactoredRat(Monomial(pre), num, den)
    assert json.dumps(f.to_json()) == json.dumps(frac_to_json_by_exponents(f))


def test_code_out_of_range_raises():
    with pytest.raises(ExponentOverflow):
        Monomial({"q": LIMIT})
    with pytest.raises(ExponentOverflow):
        Monomial.of(z2=-LIMIT)
    with pytest.raises(ExponentOverflow):
        Monomial.from_code(1 << 23)
    top = Monomial.of(a1=LIMIT - 1, q=-(LIMIT - 1))
    with pytest.raises(ExponentOverflow):
        top * Monomial.of(a1=2)
    with pytest.raises(ExponentOverflow):
        top * Monomial.of(q=-2)
    poly = SparsePoly([(top, 1), (Monomial(), 1)])
    _, _, atom = Atom.make(1, Monomial.of(a1=2, z=1))
    with pytest.raises(ExponentOverflow):
        poly.mul_atom(atom)
    with pytest.raises(ExponentOverflow):
        poly.adams(3)
    with pytest.raises(ExponentOverflow):
        poly.substitute("q", 1, Monomial.of(a1=-1))
    with pytest.raises(ExponentOverflow):
        FactoredRat.from_monomial(top) * FactoredRat.from_monomial(
            Monomial.of(a1=2))
    with pytest.raises(ValueError):
        Monomial.of(a129=1)


def test_slot_layout_independent_of_first_use():
    """A FactoredRat pickled by a process that met the variables in
    another order is the same value in this one."""
    build = ("atom_inverse(2, Monomial.of(a4=1, z2=-1)) * FactoredRat.from_poly("
             "SparsePoly([(Monomial.of(z5=2, q=-1), 3), "
             "(Monomial.of(z2=1, a1=1), -1)]))")
    child = ("import pickle, sys\n"
             "from census.ring import FactoredRat, Monomial, SparsePoly, "
             "atom_inverse\n"
             "for name in ('z5', 'a4', 'z2'):\n"
             "    Monomial({name: 1})\n"
             "sys.stdout.buffer.write(pickle.dumps(%s))\n" % build)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, check=True, timeout=120)
    got = pickle.loads(out.stdout)
    want = eval(build)
    assert got == want
    assert got.to_json() == want.to_json()
