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

from builders import add_many_by_lcm, geometric


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


def test_inverse_binomial():
    qm1 = fr_poly((1, {"q": 1}), (-1, {}))
    inv = qm1.inverse()
    assert inv * qm1 == ONE
    assert geometric(1, z=1).inverse() == fr_poly((1, {}), (-1, {"z": 1}))


def test_json_round_trip_bit_exact():
    f = (geometric(1, q=1, z=1) * fr_poly((Fraction(3, 2), {"a1": 2, "q": -1}), (5, {}))
         * atom_inverse(Fraction(-1, 3), Monomial({"a2": -1, "z": 2})))
    blob = json.dumps(f.to_json(), sort_keys=True)
    g = FactoredRat.from_json(json.loads(blob))
    assert json.dumps(g.to_json(), sort_keys=True) == blob
    assert g == f


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
@given(raw_fracs(min_terms=1, max_terms=2))
def test_diff_inverse(f):
    n = f.normalize()
    if n.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.inverse()
        return
    if len(n.numerator) > 2:
        with pytest.raises(ValueError):
            f.inverse()
        return
    assert sym_equal(to_sympy(f.inverse()) * to_sympy(f), sympy.Integer(1))


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
    with a fresh eval_mod of the quotient, or, for a slice image, of the
    same z-slice of the quotient; yields the set of update kinds met over
    both: leading (the atom's leading variable), binomial (another
    variable of the atom), scalar (a variable the atom lacks) and
    dropped, plus "slice" once a slice image is checked."""
    seen = set()
    divided = ring._DivisionFilter.divided

    def checked(filt, atom, quotient):
        lead = atom.shape.leading()[0]
        kinds = {(images, key): "leading" if key[1] == lead else
                 "binomial" if atom.shape.exponent(key[1]) else "scalar"
                 for images in ("reductions", "slices")
                 for key in getattr(filt, images)}
        divided(filt, atom, quotient)
        assert filt.poly is quotient
        if filt.slices:
            d, part = filt.zslice
            assert part == SparsePoly(quotient.split("z")[d])
        for (images, key), kind in kinds.items():
            images = getattr(filt, images)
            if key not in images:
                seen.add("dropped")
                continue
            seen.add(kind)
            p, w = key
            poly = quotient
            if images is filt.slices:
                seen.add("slice")
                poly = part
            assert images[key] == poly.eval_mod(p, ring._POINTS[p], w)

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
    # meet reductions in a2, q and T; T sorts after z, and no atom takes
    # the z-slice route
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
    # 1 - T/p has no image mod the first filter prime p: the reduction in
    # q is dropped, and the atom after it recomputes one lazily
    p = ring._FILTER_PRIMES[0]
    atoms = [_atom(1, q=1), _atom(Fraction(1, p), T=1), _atom(3, q=1, T=1)]
    poly = SparsePoly([(Monomial.of(q=2), 1), (Monomial.of(T=1), 7)])
    with checked_filter_updates() as seen:
        n = _planted(poly, atoms).normalize()
    assert "dropped" in seen
    assert not n.denominator
    assert n.numerator.mul_monomial(n.prefactor) == poly


def test_filter_update_every_slice_kind():
    # sorted by Atom.key: a2, q, q^3/a2, q*z, z^3.  On a numerator in z
    # the z-free atoms are tested on one z-slice, whose images in a2 and q
    # meet every kind of update; q*z mixes the slices and drops them, and
    # it and z^3 are tested on the whole numerator
    atoms = [_atom(1, a2=1), _atom(2, q=1), _atom(Fraction(1, 2), q=3, a2=-1),
             _atom(1, q=1, z=1), _atom(-1, z=3)] * 2
    poly = SparsePoly([(Monomial.of(q=1, a1=1), 3), (Monomial.of(z=2), -1),
                       (Monomial.of(z=1, a2=1), 2), (Monomial(), 5)])
    with checked_filter_updates() as seen:
        n = _planted(poly, atoms).normalize()
    assert seen == {"leading", "binomial", "scalar", "dropped", "slice"}
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


# z-free atoms and atoms in z, which interleave in Atom.key order
SLICE_ATOMS = [Atom.make(c, Monomial(e))[2] for c, e in [
    (1, {"z": 1, "a1": -1}), (1, {"a2": 1}), (2, {"q": 1}), (-1, {"z": 1}),
    (Fraction(1, 2), {"q": 3, "a2": -1}), (1, {"q": 1, "z": 1}),
    (-1, {"q": 2}), (2, {"a1": 1, "q": 1}), (-1, {"z": 2}),
    (1, {"q": 1, "z": 2, "a2": 1})]]


@DIFF
@given(diff_polys(min_terms=1, max_terms=5),
       st.lists(st.sampled_from(SLICE_ATOMS), min_size=1, max_size=6),
       st.lists(st.sampled_from(SLICE_ATOMS), max_size=4))
def test_normalize_bytes_do_not_depend_on_z_slices(poly, planted, extra):
    f = _planted(poly, planted)
    f = FactoredRat(f.prefactor, f.numerator, f.denominator + tuple(extra))
    sliced = f.normalize()
    with pytest.MonkeyPatch.context() as mp:
        # no variable sorts before this key: every test reduces the whole
        # numerator
        mp.setattr(ring, "_Z_KEY", (-1, 0))
        whole = f.normalize()
    assert json.dumps(sliced.to_json()) == json.dumps(whole.to_json())
    assert sliced.numerator == whole.numerator
    assert sliced.denominator == whole.denominator


# ---------------------------------------------------------------------------
# × and + hand normalize a seed that composes the image of the numerator
# they built from the images of their operands; every composed image, and
# every image a fraction carries, must equal a fresh eval_mod at the fixed
# point.


def assert_images(f):
    for (p, w), img in f._images.items():
        assert img == f.numerator.eval_mod(p, ring._POINTS[p], w)


@contextmanager
def checked_images():
    """Within the block, every image a seed composes is compared with
    eval_mod of the numerator it was built for, and every normalized
    result's images with eval_mod of its numerator; yields the list of
    (p, w) keys composed."""
    composed = []
    init = ring._DivisionFilter.__init__
    normalize = FactoredRat.normalize

    def checked_init(filt, poly, seed=None):
        def checked(p, w):
            img = seed(p, w)
            if img is not None:
                assert img == poly.eval_mod(p, ring._POINTS[p], w)
                composed.append((p, w))
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
    # the numerator q*z^2*(1 + a1*q) carries its content q*z^2 out
    atoms = [_atom(1, q=1, z=1), _atom(2, a1=1, z=1)]
    num = SparsePoly([(Monomial.of(q=1, z=2), 1), (Monomial.of(a1=1, q=2, z=2),
                                                   1)])
    f = _planted(num, atoms[:1])
    f = FactoredRat(f.prefactor, f.numerator, f.denominator + (atoms[1],))
    with checked_images() as composed:
        n = f * FactoredRat.from_poly(SparsePoly([(Monomial.of(a2=1), 3),
                                                  (Monomial(), 1)]))
    assert n.prefactor == Monomial.of(q=1, z=2)
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
    for (p, w), img in got._images.items():
        assert img == want._image(p, w)
        assert img == got.numerator.eval_mod(p, ring._POINTS[p], w)


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
