"""Assembly pipeline: counting polynomials, oracles, specializations."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import census
from census import pipeline
from census.errors import IdentityViolation, SubstitutionToZeroPole
from census.partitions import Partition, partitions_up_to
from census.pipeline import (
    KacResult,
    betti_polynomial,
    check_identities,
    constant_term,
    count_points,
    degree_class_sums,
    identity_report,
    kac_lift,
    kac_polynomial,
    kac_rational,
    kac_series_oracle,
    latex_value,
    lift_paired,
    regularity_report,
    rhs_series,
)
from census.ring import Atom, FactoredRat, Monomial, SparsePoly, atom_inverse
from census.series import BiSeries, mobius, z_truncate_frac
from census.zeta import (
    alpha_names,
    one_minus,
    pair_reduce,
    to_roots,
    weil_from_counts,
    zeta_star,
)

from builders import (betti_by_box_product, const,
                      constant_class_sums_by_decompose,
                      constant_lambda_term_by_chain, float_count,
                      kac_by_residues, lift_paired_by_terms, log_coefficient,
                      numeric_pole_orders, partition_sum_by_pairs,
                      quotient_ring_value, series_log)


def mono(**e):
    return Monomial.of(**e)


def poly(*terms):
    d = {}
    for c, e in terms:
        m = Monomial.of(**e)
        d[m] = d.get(m, 0) + c
    return SparsePoly(d)


def prod_roots(g, sign=1, qpow=0):
    """∏_{i=1}^{2g} (1 - sign*q^qpow*α_i) over the free root variables."""
    out = FactoredRat.one()
    for name in alpha_names(g):
        out = out * FactoredRat(
            poly((1, {}), (-sign, {"q": qpow, name: 1})))
    return out


def reduced(f, g):
    return pair_reduce(f, g)


def rank2_display(g):
    """The closed rank-2 answer:

    ∏(1-α)·( ∏(1-qα)/((q-1)(q²-1)) - ∏(1+α)/(4(1+q))
             + ∏(1-α)/(2(q-1))·[1/2 - 1/(q-1) - Σ 1/(1-α_i)] )
    """
    inv_qm1 = atom_inverse(1, mono(q=1)).mul_scalar(-1)
    inv_q2m1 = atom_inverse(1, mono(q=2)).mul_scalar(-1)
    inv_1pq = atom_inverse(-1, mono(q=1))
    t1 = prod_roots(g, 1, 1) * inv_qm1 * inv_q2m1
    t2 = prod_roots(g, -1, 0) * inv_1pq * const(Fraction(-1, 4))
    bracket = const(Fraction(1, 2)) - inv_qm1
    for name in alpha_names(g):
        bracket = bracket - atom_inverse(1, mono(**{name: 1}))
    t3 = (prod_roots(g) * inv_qm1 * bracket
          * const(Fraction(1, 2)))
    return prod_roots(g) * (t1 + t2 + t3)


ELLIPTIC = weil_from_counts(2, [3])


class TestRhsSeries:
    def test_constant_coefficient_is_one(self):
        assert rhs_series(1, 2).coefficient(0) == FactoredRat.one()

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_first_coefficient(self, g):
        """T^1 carries q^{g-1} ζ*(1,0) / (1-z), modulo the pair relations
        (the partition terms are built in reduced coordinates)."""
        want = (FactoredRat.from_monomial(mono(q=g - 1)) * zeta_star(g, 1, 0)
                * atom_inverse(1, mono(z=1)))
        assert rhs_series(g, 1).coefficient(1) == reduced(want, g)


class TestKacRational:
    def test_rank1_genus0(self):
        assert kac_rational(0, 1) == atom_inverse(1, mono(z=1))

    @pytest.mark.parametrize("g", [1, 2])
    def test_rank1(self, g):
        want = reduced(prod_roots(g) * atom_inverse(1, mono(z=1)), g)
        assert kac_rational(g, 1) == want

    def test_z_poles_are_cyclotomic(self):
        # after the pairing rewrite every z-denominator is 1 ± z^k
        for g, r in ((0, 2), (1, 2), (1, 3)):
            A = kac_rational(g, r)
            for atom in A.denominator:
                k = atom.shape.exponent("z")
                if k:
                    assert atom.shape.without("z").is_one(), (g, r, atom)
                    assert atom.constant in (1, -1), (g, r, atom)
                    assert 0 < k <= r


class TestKacPolynomial:
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    @pytest.mark.parametrize("d", [0, -1, 5])
    def test_rank1_closed_form(self, g, d):
        res = kac_polynomial(g, 1, d)
        assert res.value == reduced(prod_roots(g), g)
        assert res.is_polynomial
        assert res.is_d_independent
        assert res.degree_class == 0

    def test_rank1_lift(self):
        assert kac_polynomial(1, 1, 0).lifted == poly(
            (1, {}), (-1, {"a1": 1}), (-1, {"a2": 1}), (1, {"q": 1}))

    @pytest.mark.parametrize("r,d", [(4, 0), (4, 1), (4, 2), (4, 3),
                                     (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)],
                             ids=["0", "1", "2", "3", "r5-0", "r5-1", "r5-2",
                                  "r5-3", "r5-4"])
    def test_genus1_rank4_atiyah(self, r, d):
        # Atiyah (1957): on an elliptic curve A_{1,r,d} = q + 1 - α1 - α2
        # for every rank and degree
        assert kac_polynomial(1, r, d).lifted == poly(
            (1, {}), (-1, {"a1": 1}), (-1, {"a2": 1}), (1, {"q": 1}))

    def test_genus2_rank4_classes(self):
        # (1-z^4) clears the z-poles of A_{2,4}(z), and the four degree
        # classes are one polynomial
        Q = (kac_rational(2, 4) * one_minus(1, mono(z=4))).normalize()
        assert not pipeline._z_atoms(Q)
        results = [kac_polynomial(2, 4, d) for d in range(4)]
        for res in results:
            assert res.is_polynomial and res.is_d_independent
            assert res.value == results[0].value
            assert res.lifted == results[0].lifted

    def test_genus0_rank2_vanishes(self):
        for d in (0, 1):
            res = kac_polynomial(0, 2, d)
            assert res.value.is_zero()
            assert res.lifted == SparsePoly.zero()

    @pytest.mark.parametrize("g", [0, 1])
    def test_rank2_closed_form(self, g):
        want = reduced(rank2_display(g), g)
        for d in (0, 1):
            res = kac_polynomial(g, 2, d)
            assert res.value == want
            assert res.is_d_independent

    def test_degree_mod_rank(self):
        a = kac_polynomial(1, 2, 1)
        b = kac_polynomial(1, 2, -1)
        c = kac_polynomial(1, 2, 5)
        assert a.degree_class == b.degree_class == c.degree_class == 1
        assert a.value == b.value == c.value

    def test_pair_involution_symmetry(self):
        # α_1 -> q/α_1 exchanges the two roots of the first pair
        v = kac_polynomial(1, 2, 1).value
        swapped = (v.substitute_all([("a1", 1, mono(a99=1))])
                   .substitute_all([("a99", 1, mono(q=1, a1=-1))])).normalize()
        assert swapped == v

    def test_pair_swap_symmetry(self):
        # (α_1, α_2) <-> (α_3, α_4) on the genus-2 rank-1 value
        v = kac_polynomial(2, 1, 0).value
        s = (v.substitute_all([("a1", 1, mono(a99=1))])
             .substitute_all([("a3", 1, mono(a1=1))])
             .substitute_all([("a99", 1, mono(a3=1))])).normalize()
        assert s == v

    def test_json_round_trip(self):
        res = kac_polynomial(1, 2, 1)
        blob = json.loads(json.dumps(res.to_json()))
        back = KacResult.from_json(blob)
        assert back.to_json() == res.to_json()
        assert back.value == res.value
        assert back.lifted == res.lifted
        assert back.degree_class == 1

    def test_json_round_trip_fraction_kind(self):
        f = (prod_roots(1) * atom_inverse(1, mono(q=1))).normalize()
        res = KacResult(genus=1, rank=2, degree_class=0, value=f, lifted=None,
                        is_d_independent=False, route="log-extraction",
                        orders={"T": 2})
        blob = res.to_json()
        assert blob["polynomial"]["kind"] == "fraction"
        back = KacResult.from_json(json.loads(json.dumps(blob)))
        assert back.value == f and back.lifted is None
        assert back.to_json() == blob


class TestZetaNumeratorLift:
    """kac_polynomial reads kac_lift; the residue route is its check."""

    @pytest.mark.parametrize("g,r", [
        (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)])
    def test_bytes_equal_the_residue_route(self, g, r):
        value = to_roots(kac_lift(g, r), g)
        for d in range(r):
            want = kac_by_residues(g, r, d)
            assert want.is_d_independent and want.value == value
            assert json.dumps(kac_polynomial(g, r, d).to_json()) == \
                json.dumps(want.to_json())

    def test_plain_adams_fails_loudly(self):
        # ψ_2 must not send c_j to c_j²: with the ring's plain adams the
        # (1 - s^4) of ψ_2 keeps a pole at s = 1
        log = pipeline._partition_sum_log(partial(pipeline._box_term, 1))
        A = (log.pleth_coefficient(2) * -one_minus(1, mono(q=1))
             * one_minus(1, mono(s=2)))
        with pytest.raises(SubstitutionToZeroPole):
            A.substitute_all([("s", 1, Monomial())])

    def test_rank1_count_at_genus_9(self):
        # A_{g,1} = P(1) has 2g + 1 terms in the zeta-numerator coordinates
        curve = pipeline._sample_curve(9)
        assert count_points(curve, 1, 0)[0] == sum(curve.numerator)


class TestLift:
    def test_negative_odd_power_uses_partner(self):
        f = FactoredRat.from_monomial(mono(q=2, a1=-1))
        assert lift_paired(f, 1) == poly((1, {"q": 1, "a2": 1}))

    def test_unliftable_returns_none(self):
        assert lift_paired(FactoredRat.from_monomial(mono(q=-1)), 1) is None
        assert lift_paired(
            FactoredRat.from_monomial(mono(q=1, a1=-2)), 1) is None

    def test_round_trip_through_reduction(self):
        p = poly((3, {"a1": 2, "a2": 1}), (1, {"q": 2}), (-2, {"a2": 3}))
        f = reduced(FactoredRat(p), 1)
        lifted = lift_paired(f, 1)
        assert lifted is not None
        assert reduced(FactoredRat(lifted), 1) == f


@st.composite
def paired_values(draw):
    """(value, genus): Laurent polynomials in the odd roots and q at g <= 2,
    some with an even root, a denominator atom or a negative q power after
    the lift, which return None."""
    g = draw(st.integers(min_value=1, max_value=2))
    names = ["q"] + alpha_names(g)[::2]
    if draw(st.booleans()):
        names.append("a2")
    exps = st.integers(min_value=-3, max_value=3)
    terms = draw(st.lists(
        st.tuples(st.sampled_from([-2, -1, 1, 3, Fraction(1, 2)]),
                  st.lists(exps, min_size=len(names), max_size=len(names))),
        max_size=4))
    f = FactoredRat(SparsePoly(
        [(Monomial(dict(zip(names, e))), c) for c, e in terms]))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        f = f * atom_inverse(1, mono(q=1))
    return f, g


@given(paired_values())
@example((FactoredRat.from_monomial(mono(q=1, a1=-2)), 1))
@example((FactoredRat.from_monomial(mono(a2=1)), 1))
@example((atom_inverse(1, mono(q=1)), 1))
@settings(max_examples=150, deadline=None)
def test_lift_matches_term_route(value):
    f, g = value
    assert lift_paired(f, g) == lift_paired_by_terms(f, g)


class TestSeriesOracle:
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_rank1_every_degree(self, g):
        want = kac_polynomial(g, 1, 0).lifted
        assert all(c == want for c in kac_series_oracle(g, 1))

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            kac_series_oracle(1, 2, D=2)

    @pytest.mark.parametrize("g,r", [(0, 2), (1, 2), (0, 3), (3, 2), (1, 4)])
    def test_tail_matches_main_route(self, g, r):
        coeffs = kac_series_oracle(g, r)
        start = max(0, (g - 1) * r * (r - 1) + 1)
        for d in range(start, len(coeffs)):
            assert coeffs[d] == kac_polynomial(g, r, d).lifted, (g, r, d)

    def test_tail_periodicity(self):
        coeffs = kac_series_oracle(1, 2)   # stabilizes past degree 0
        for d in range(1, len(coeffs) - 2):
            assert coeffs[d] == coeffs[d + 2]

    # sha256 of the sorted JSON of [poly_to_json(c) for c in the oracle's
    # coefficients], recorded at commit 1d9ec36, whose truncated mode
    # formed every product whole and expanded each z-atom as a geometric
    # series before dropping the terms past the z-order
    ORACLE = {
        (2, 3):
            "b8aa07fde5e88345122970cf85c3d9e2b8880e2befcbc6875dc06f2af78bf0a5",
        (3, 2):
            "2c5dc2bc372b0051a9b95dbfa514174300e5d6ad761ae75177e26edadfb88ccf",
        (1, 4):
            "4719d08d828df7a4e54243cc3be792d7d80472945001f725aeeb72572b9ad839",
    }

    @pytest.mark.parametrize("g,r", sorted(ORACLE))
    def test_pinned(self, g, r):
        coeffs = kac_series_oracle(g, r)
        assert _sha256([pipeline.poly_to_json(c) for c in coeffs]) \
            == self.ORACLE[g, r]


def expected_vanishing_count(g, r):
    """Closed form of the small-rank table for A(0)."""
    c = math.comb
    return {1: 1, 2: c(g, 1), 3: 4 * c(g, 2) + c(g, 1),
            4: 32 * c(g, 3) + 20 * c(g, 2) + c(g, 1)}[r]


class TestConstantTerm:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    def test_table(self, g, r):
        want = expected_vanishing_count(g, r)
        for d in range(r):
            v = constant_term(g, r, d)
            assert v == want
            assert isinstance(v, Fraction) and v.denominator == 1

    def test_degree_reduction(self):
        assert constant_term(2, 3, 7) == constant_term(2, 3, 1)

    def test_genus_past_the_weil_variables(self):
        # the pure-z route uses no Weil number, so the ring's genus limit
        # does not bound it
        assert constant_term(65, 2, 1) == 65

    @pytest.mark.parametrize("g", [0, 1, 2, 5])
    def test_class_sums_match_the_z_decomposition(self, g):
        for r in range(1, 11):
            want = constant_class_sums_by_decompose(g, r)
            for d in range(r):
                v = constant_term(g, r, d)
                assert v == want[d]
                assert isinstance(v, Fraction)

    def test_class_sums_refuse_a_variable_other_than_z(self, monkeypatch):
        # a clearing factor times 1 + q leaves q in the numerator
        monkeypatch.setattr(pipeline, "one_minus", lambda c, m: (
            one_minus(c, m) * FactoredRat(SparsePoly(
                {Monomial(): 1, mono(q=1): 1}))))
        pipeline._constant_class_sums.cache_clear()
        try:
            with pytest.raises(ValueError, match="not a polynomial in z"):
                pipeline._constant_class_sums(1, 1)
        finally:
            pipeline._constant_class_sums.cache_clear()


class TestBetti:
    def test_genus1_rank1(self):
        assert betti_polynomial(1, 1, 0) == poly(
            (1, {"t": 2}), (2, {"t": 3}), (1, {"t": 4}))

    def test_genus0_rank1(self):
        assert betti_polynomial(0, 1, 0) == SparsePoly.one()

    def test_genus0_rank2_zero(self):
        assert betti_polynomial(0, 2, 1).is_zero()

    @pytest.mark.parametrize("r,d", [(2, 1), (3, 1), (3, 2)])
    def test_genus1_monic_and_constant_term(self, r, d):
        b = betti_polynomial(1, r, d)
        degs = sorted(dict(items).get("t", 0) for items, _ in b.sorted_items())
        assert degs[-1] == 4 and b.terms[mono(t=4).code] == 1
        assert degs[0] == 2
        assert b.terms[mono(t=2).code] == constant_term(1, r, d)

    def test_non_coprime_warns(self):
        with pytest.warns(RuntimeWarning):
            betti_polynomial(1, 2, 0)

    def test_genus2_rank2_hitchin(self):
        # Hitchin (1987), the fixed-determinant moduli of rank 2 and odd
        # degree on a genus-2 curve, without its Jac[2]-variant part:
        # betti(2,2,1) = t^20 P(1/t), P = (1+t)^4 (1+t^2+4t^3+2t^4+4t^5+2t^6)
        coeffs = [1]
        for factor in [[1, 1]] * 4 + [[1, 0, 1, 4, 2, 4, 2]]:
            out = [0] * (len(coeffs) + len(factor) - 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            coeffs = out
        want = SparsePoly({mono(t=20 - k): c for k, c in enumerate(coeffs)
                           if c})
        assert betti_polynomial(2, 2, 1) == want

    @pytest.mark.parametrize("g,r", [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4)])
    @pytest.mark.filterwarnings("ignore:betti_polynomial")
    def test_equals_the_box_product(self, g, r):
        want = betti_by_box_product(g, r)
        for d in range(r):
            assert betti_polynomial(g, r, d) == want


def _poly_in_t(p):
    """The coefficients of a polynomial in t, lowest degree first."""
    out = {}
    for items, c in p.sorted_items():
        assert set(dict(items)) <= {"t"}
        out[dict(items).get("t", 0)] = Fraction(c)
    return [out.get(k, 0) for k in range(max(out) + 1)]


class TestEulerAnchor:
    """Hausel and Rodriguez-Villegas (arXiv:math/0612668): the twisted
    PGL_r character variety of a genus-g curve has Euler characteristic
    μ(r)·r^{2g-3}.  For coprime (r, d) and g >= 2, betti(g, r, d) is that
    variety's Poincaré polynomial times the Jacobian factor (1+t)^{2g}.
    At g = 1 the formula is not integral, so that genus is left out."""

    @pytest.mark.parametrize("g,r,d,euler", [
        (2, 2, 1, -2), (3, 2, 1, -8), (4, 2, 1, -32), (2, 3, 1, -3),
        (2, 3, 2, -3), (3, 3, 1, -27), (2, 4, 1, 0), (2, 4, 3, 0),
        (2, 5, 1, -5), (3, 4, 1, 0), (4, 3, 1, -243), (5, 3, 1, -2187),
        (4, 4, 1, 0)])
    def test_euler_characteristic(self, g, r, d, euler):
        coeffs = _poly_in_t(betti_polynomial(g, r, d))
        for _ in range(2 * g):
            # divide by 1 + t from the low end; the remainder is left on top
            for k in range(len(coeffs) - 1):
                coeffs[k + 1] -= coeffs[k]
            assert coeffs.pop() == 0
        assert sum(c * (-1) ** k for k, c in enumerate(coeffs)) == euler
        assert euler == mobius(r) * r ** (2 * g - 3)


def _sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestEngineVersion:
    """Outputs pinned to ENGINE_VERSION: a change to any of these bytes
    must come with a version bump (and new digests here), since cached
    results are trusted by their version stamp alone."""

    KAC = {
        (1, 2, 0): "82e54accce560d5bbc6bb2ef326e9758651d82d969aa74f634f795dbce02b1a7",
        (1, 2, 1): "dad0b69fc11dcc5d1d79a4daa53e4c83e0e945910e48f6c4b99ea707a31e7154",
        (2, 2, 0): "ee055635e49a648c6fff11f7eeeb37793f40cb700cf8e69f97299d30b0e0f420",
        (2, 2, 1): "c43bdec91dd895b674a971222a0a39cade6dbba3136e8c605854d5e12e3dde92",
        (1, 3, 0): "e0e11b59e102bf509e0c219b9d5e3ec5abadb5642d9ce1cf4313866cc5bde7a0",
        (1, 3, 1): "a4cb2407d71ad13811f7ec734a1cd7c81a77b976f908e83d6d30b5d888620107",
        (1, 3, 2): "7bcb4616f09b2312693512bb43361c177a9f317271129cd5d41a488bf35be968",
    }
    # the "n/d" strings of constant_term(2, r, d) for r = 1..4, d = 0..r-1
    CONSTANT_TERMS = \
        "8e00fe2dd63b11e99c0e5be1f5353268f9b870f82b6e98ec84b12e61fee0c738"

    def test_version(self):
        assert pipeline.ENGINE_VERSION == "1.0"

    @pytest.mark.parametrize("grd", sorted(KAC))
    def test_kac_digest(self, grd):
        assert _sha256(kac_polynomial(*grd).to_json()) == self.KAC[grd]

    def test_constant_term_digest(self):
        values = ["%d/%d" % (v.numerator, v.denominator)
                  for v in (constant_term(2, r, d)
                            for r in range(1, 5) for d in range(r))]
        assert _sha256(values) == self.CONSTANT_TERMS


def _pinned_digests(descending=False):
    """sha256 of the "n/d" strings of constant_term(g, r, d) over every d,
    for g in {2, 5} and r <= 10, and of kac_rational(g, r).to_json() for
    g <= 2 and r <= 3, with the ranks of each genus requested in
    ascending or descending order."""
    out = {}
    for g in (2, 5):
        for r in sorted(range(1, 11), reverse=descending):
            out["constant_term(%d,%d)" % (g, r)] = _sha256(
                ["%d/%d" % (v.numerator, v.denominator)
                 for v in (constant_term(g, r, d) for d in range(r))])
    for g in range(3):
        for r in sorted(range(1, 4), reverse=descending):
            out["kac_rational(%d,%d)" % (g, r)] = _sha256(
                kac_rational(g, r).to_json())
    return out


class TestPinnedBytes:
    """Bytes of both routes that read the per-genus Log memo, pinned
    before the memo existed; the order in which ranks fill the memo must
    not show in them."""

    DIGESTS = {
        "constant_term(2,1)":
            "de0096061c0d648eac30cdeb53c0576e1c781c0406a09937a92966797dc3d5a4",
        "constant_term(2,2)":
            "ac60b1cb065b56255fd9b495078fb8a7bc0dc7e32c47fb97799ba1aacfae4a06",
        "constant_term(2,3)":
            "9866d93b7aa33feec6ac4a864b6dcb293ca69088067ce2eb1905f4d0fb429aa8",
        "constant_term(2,4)":
            "396389809b78aec4763cc6f7d4d74ee27c835aa34f3272cf46952a8a1f63151d",
        "constant_term(2,5)":
            "a8c017ed8fb6f29d9bb2a97b824699833492d5e110c4f4ca1c2f8e88f5b56023",
        "constant_term(2,6)":
            "2935937caddc6f42133619dfe80e50bcc678f3546fde50ba02ab7098b262941f",
        "constant_term(2,7)":
            "ddb1c798a5da30f71b899f7353767e2c33455cd1c9661cd6296116f3e1b973ee",
        "constant_term(2,8)":
            "a39a51308f259b38a34a124e5f931acddd09d6740e7b434304c4495b7fa6fe99",
        "constant_term(2,9)":
            "84f7021b9f65fb0f5c4bccf24290e39fbbe8667c14174eda2f47b6387bcb62e9",
        "constant_term(2,10)":
            "0f183066f78d63b6bc45e16b9f6ee4bfdadb9157fc7131f40b5e1fa47bdd7b5c",
        "constant_term(5,1)":
            "de0096061c0d648eac30cdeb53c0576e1c781c0406a09937a92966797dc3d5a4",
        "constant_term(5,2)":
            "dc9dc969d139ccb6326f10ccb3b78e0bf1899fea43bf6bb481c0695c4a671fbd",
        "constant_term(5,3)":
            "6e75e45ac6b1d13e2c82ffc9ec597face1e3fa985edccf525b4da9258ebf2703",
        "constant_term(5,4)":
            "ba29505ae30350894750def74db6fb5cce18936eb966e4618f58588dc0e9fc3e",
        "constant_term(5,5)":
            "6a640362db687bc04fd64972ae8ba07c4a02f3b871f3c64147f8a6ae6f42da3b",
        "constant_term(5,6)":
            "68b771bf287096706beef8bae8f4200ff9bd711999c8963ba02e08ef54fdbb5a",
        "constant_term(5,7)":
            "c414f30d891294046b60146b55cb9225c721d1c6c83e798b87b0fd143a43efe1",
        "constant_term(5,8)":
            "093caed59f3b9680894052999e4a79e558dbbd3982b9d900b75ac61175171cfa",
        "constant_term(5,9)":
            "c0b232292c6363840168875dc487105b06c6ad2fda7a402f599ed75686c1b61c",
        "constant_term(5,10)":
            "60ddfdf375f476753f27192079b18c12687557957c1fa61439a0a8fcb1d0ceae",
        "kac_rational(0,1)":
            "4a93c7dcdd40c99c1bfc5cf6f40c8ed6712da7c3eefdd2ec6afb57d7b4724a74",
        "kac_rational(0,2)":
            "f360365a7183081ab0b371aa508d7b239ba90cb866e0afd774cc1953304b9a15",
        "kac_rational(0,3)":
            "f360365a7183081ab0b371aa508d7b239ba90cb866e0afd774cc1953304b9a15",
        "kac_rational(1,1)":
            "28daf60eb776f9aa900aa2500f45cc24560d92b1a284e376f7425884de7dd9cd",
        "kac_rational(1,2)":
            "a5ea75bad6a6719b78146ab1b4cbaad1c8798c89dfd239f13e1803bede80ec48",
        "kac_rational(1,3)":
            "91e5a264fe1ff9151ba565607a6d3b6dba5b181e64a75bead7341058b93898d9",
        "kac_rational(2,1)":
            "701ac3ab750fc861d192a8e27ca6a2060b19656f3809a4410e44e9b9f1d2d961",
        "kac_rational(2,2)":
            "b368a34bfcb79afc228897d36eeb8388c6bee5e9f82ab0e66c2889e7c7fef97f",
        "kac_rational(2,3)":
            "4c5e8d652c42370337ab0fdab129b9b4abe863e5b04c45a956cc38ca99ec23d2",
    }

    def test_ascending(self):
        for cached in (kac_rational, degree_class_sums,
                       pipeline._constant_class_sums,
                       pipeline._partition_log, pipeline._constant_log):
            cached.cache_clear()
        assert _pinned_digests() == self.DIGESTS

    def test_descending_in_a_fresh_interpreter(self):
        tests = Path(__file__).resolve().parent
        child = ("import json, sys\n"
                 "sys.path.insert(0, %r)\n"
                 "from test_pipeline import _pinned_digests\n"
                 "print(json.dumps(_pinned_digests(descending=True)))\n"
                 % str(tests))
        env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
        run = subprocess.run([sys.executable, "-c", child], env=env,
                             check=True, timeout=300, capture_output=True,
                             text=True)
        assert json.loads(run.stdout) == self.DIGESTS


class TestPinnedLambdaTerms:
    """The bytes of each λ-term q^{(g-1)<λ,λ>} J_λ H_λ, pinned before ×
    cancelled atoms across its operands: sha256 of the sorted JSON, keyed
    "g parts", for every λ with |λ| <= 3 at g <= 3 and (1,1,1,1) at
    g <= 1."""

    DIGESTS = {
        "0 1":
            "57c75d13568ad0202945b1341328d61b2e6dd10a6ba2ac547667002a0f2d281a",
        "0 2":
            "87b8c41ad6665eebf3a5fcdbdf629fa8c6fa4d022088cfe5c880d4fef10d806c",
        "0 1,1":
            "ad2e18df57566cda87e92356ecd3e7e1d300ab5018ccbfb0db35cd3f16ddb26e",
        "0 3":
            "241436f3fdce2687250548d477a364d5f025b899b519a449347fc47c80d8631c",
        "0 2,1":
            "6d5848aa6823edde02706e1681047698190d7ef7587d17b9a6273d6f842fa5a7",
        "0 1,1,1":
            "fde181b4dbe0c8f2168e1cdd27fb60bbe7826502128879f9ac798e665528645b",
        "0 1,1,1,1":
            "85431e22fb5e292c68042accc778172cfc64b77fa0a43a143741e5c19a4b8f22",
        "1 1":
            "b83c5d0b46ec14e300077d547870e275227a20d3b1441e476a7d4d5b2bcb9129",
        "1 2":
            "1cca5da6e8570179fde41c40f2381c6bcc799d765f40986beb7a54dfbc4cf945",
        "1 1,1":
            "7ad780d9f8bf1419c2a6d69425ab10643f304acd9d8e237a48021c3d239a0434",
        "1 3":
            "d2830fb512aa27b294676d40579567a2a5bc902c26c1254176a3a3a5987e8e29",
        "1 2,1":
            "5d18c9910e9005f54ef56bdce70ebefb3e841649a893dbc7e92ab5c836740194",
        "1 1,1,1":
            "5c01aae9a364768390ebe03c393549e373721d3446b309c6be850db9533f974c",
        "1 1,1,1,1":
            "1e13f6be7ea7f81936196eff955c339ae64938e52a80b6b13b90d5439d7a2151",
        "2 1":
            "5b71a0b194aea94ce7cd7a0de692328b0791f1fed843f9bc3258a0a2f69d095c",
        "2 2":
            "3a0d2a545f39a09cee63e902868f6157415a9377e4ad593d249e9ea7e2637f65",
        "2 1,1":
            "6de6b1f5f1253fd26fc1db94098382ae219e653c3dceda4aba038a57325ba43c",
        "2 3":
            "8f0e57a291f0265317c086138f4de2854179d9ce04713d04d86a3997f8ab7317",
        "2 2,1":
            "8f74382c9384a14937cf6b85d3ca0463de5dd0b73cc3542cc052fde3aa1666e4",
        "2 1,1,1":
            "885238f4e22e24e565aba5b9f65ac3625a7c3437d68db5d1ece7b13b5c79f8c3",
        "3 1":
            "769f4832585fe7c45be04fda9562cb82e4646ebd35d8295fcd21b0fcdc1da645",
        "3 2":
            "407f68bb8bd180cce794514fb5812be8d2dd1fc501c0992b305c5165f54a5edf",
        "3 1,1":
            "436d3b0568d54ec25f8f80e49b215e01ec0338b2a5dd9c0284b847dde77a5e29",
        "3 3":
            "1c220621b72aee15123d2707b4484a62c61340d53073b2fc0a4f2a8e9e78682a",
        "3 2,1":
            "ccf4f03d535713d2b3b13a610631f6a30ad6798135dae34ae39ae3e10284ea9c",
        "3 1,1,1":
            "44789f241f56f65878ab94a3c157f085394b659cd881ab3b40a5970eba9edd61",
    }

    def test_digests(self):
        for key, digest in self.DIGESTS.items():
            g, parts = key.split()
            lam = Partition(tuple(int(p) for p in parts.split(",")))
            assert _sha256(pipeline._lambda_term(int(g), lam).to_json()) \
                == digest, key


class TestPinnedRanks4And5:
    """Bytes recorded by hand at commit bc9c21b, whose route multiplied
    every kernel summand out before its residues: the λ-terms of every
    λ ⊢ 5 at g = 1 and of (1,1,1,1) at g = 2, keyed "g parts", and
    kac_polynomial(g, r, d).to_json() at (1, 5) and (2, 4), keyed
    "g r d"."""

    LAMBDA_TERMS = {
        "1 5":
            "fac1b73268cc4da87cfb6bc3dc9ebd33cf58e9ba0d018fb05fa51c677c3d0326",
        "1 4,1":
            "50514b148d30de35a309669724736fbe96c5f225eae845101288b75bcec78fa1",
        "1 3,2":
            "e9fa2ad4b2023b96a5c2921ede26821a4dace4f91509b0c08387d09e6c4ca465",
        "1 3,1,1":
            "d33317d03ba727102f1f7e66a0e563921346d290752bb098953e3dd89ae28532",
        "1 2,2,1":
            "174eb5ef5aa8e50bd3bf2f81e97cb50969e62d280b553cecda9756ca2a1a0b5a",
        "1 2,1,1,1":
            "e87e0b5aea8cdf9781d89d260343f612dcf5da7f7e015050cb3ea10c4cfe3d7f",
        "1 1,1,1,1,1":
            "28ede16cbc9da3ec7b0013106997fd1109577c750bdd3df1be51835bd6d57c96",
        "2 1,1,1,1":
            "50777188385ce657a82729efe5c448bb7ced88bc01dd00d1e4495046d3ca15d4",
    }
    KAC = {
        "1 5 0":
            "f1f1b934d3f1c88c8e5a82650487cc45a0ea803375722e1b11d0cc7043385f3d",
        "1 5 1":
            "d639860cc399ee032fb7bfd59985a6e3af993dfea8d7ceb82c3a1341f1ef069c",
        "1 5 2":
            "8536dc52605c5181d9701bdc8038709cfff938f6027efc713d779e892657b442",
        "1 5 3":
            "cf9a26c33890e7c91643ec2a21d5caf1a0fa3f47ddaefb151a11f1b5b6e060ca",
        "1 5 4":
            "793123be304b5cd413cc19021fed6242f1c8dc73f2a136abfeda5be28c817c96",
        "2 4 0":
            "7c4c72faa5f4f914ab9ce468d48698cc108a00135d38532ea9acbd19eaf4e355",
        "2 4 1":
            "12c18d8bef46a3808e0d0238984c11a8d3aff4d2b416a527300a7a8971e15562",
        "2 4 2":
            "dae49e26bf05a37917b7c63cb49c0c1b5511e91626f3f5b17b3f6e7fe06b6d18",
        "2 4 3":
            "c95cd1a021820898dc96a305a8a715989dd4dd1895b3353b7f44d19f5c28c3e8",
    }

    def test_lambda_terms(self):
        for key, digest in self.LAMBDA_TERMS.items():
            g, parts = key.split()
            lam = Partition(tuple(int(p) for p in parts.split(",")))
            assert _sha256(pipeline._lambda_term(int(g), lam).to_json()) \
                == digest, key

    def test_kac(self):
        for key, digest in self.KAC.items():
            g, r, d = map(int, key.split())
            assert _sha256(kac_polynomial(g, r, d).to_json()) == digest, key


def _partition_sum_by_loop(term, R):
    """Reference: the partition sum built the way the memo replaced, one
    pairwise + per λ of partitions_up_to(R)."""
    coeffs = [FactoredRat.one()] + [FactoredRat.zero()] * R
    for lam in partitions_up_to(R):
        if lam.size():
            coeffs[lam.size()] = coeffs[lam.size()] + term(lam)
    return BiSeries("T", R, coeffs)


class TestPartitionLogMemo:
    """The per-genus memos, and the oracle's truncated log, hold the
    partition sum built the old way and the series_log of it, coefficient
    by coefficient."""

    @staticmethod
    def check(log, old):
        logs = series_log(old)
        for n in range(old.order + 1):
            assert log.coefficient(n) == old.coefficient(n)
            assert log_coefficient(log, n) == logs.coefficient(n)

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_main_route(self, g):
        old = _partition_sum_by_loop(
            lambda lam: pipeline._lambda_term(g, lam), 3)
        self.check(pipeline._partition_log(g), old)
        assert rhs_series(g, 3) == old

    @pytest.mark.parametrize("g", [0, 1])
    def test_truncated_route(self, g):
        D = 6
        old = _partition_sum_by_loop(
            lambda lam: pipeline._lambda_term(g, lam), 3)
        log = pipeline._truncated_log(g, D)
        logs = series_log(old)
        for n in range(old.order + 1):
            assert log.coefficient(n) == \
                z_truncate_frac(old.coefficient(n), D)
            assert log_coefficient(log, n) == \
                z_truncate_frac(logs.coefficient(n), D)

    @pytest.mark.parametrize("g", [2, 5])
    def test_constant_term_route(self, g):
        old = _partition_sum_by_loop(
            lambda lam: constant_lambda_term_by_chain(g, lam), 6)
        self.check(pipeline._constant_log(g), old)

    @pytest.mark.parametrize("g", [0, 1, 2, 5])
    def test_constant_term_route_sums_each_size_at_once(self, g):
        # one add_many per T^k keeps the bytes of the pairwise fold
        log = pipeline._constant_log(g)
        for k in range(11):
            want = partition_sum_by_pairs(
                lambda lam: pipeline._constant_lambda_term(g, lam), k)
            assert json.dumps(log.coefficient(k).to_json()) == \
                json.dumps(want.to_json())

    @pytest.mark.parametrize("g", [0, 1, 2, 5])
    def test_constant_lambda_term_in_one_step(self, g):
        for lam in partitions_up_to(10):
            got = pipeline._constant_lambda_term(g, lam)
            want = constant_lambda_term_by_chain(g, lam)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())


class TestCounts:
    @pytest.mark.parametrize("q,N", [(2, 3), (3, 4), (5, 8)])
    def test_elliptic_indecomposables(self, q, N):
        curve = weil_from_counts(q, [N])
        for r in (1, 2, 3):
            for d in range(r):
                if math.gcd(r, d) != 1:
                    continue
                n, higgs = count_points(curve, r, d)
                assert n == N
                assert higgs == q * N   # exponent 1 + (g-1)r² = 1 at g=1

    def test_a_count_off_the_integers_is_an_identity_violation(
            self, monkeypatch):
        monkeypatch.setattr(pipeline, "kac_lift",
                            lambda g, r: const(Fraction(1, 2)))
        with pytest.raises(IdentityViolation, match="not an integer"):
            count_points(ELLIPTIC, 1, 0)

    def test_non_coprime_no_higgs(self):
        n, higgs = count_points(ELLIPTIC, 2, 0)
        assert n == 3 and higgs is None

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.sampled_from([0, 1, 2, -1, -2, 3]),
                    min_size=1, max_size=3, unique=True))
    def test_rank1_counts_class_number(self, traces):
        # rank-1 indecomposables = line bundles of one degree = |Pic^0|
        from hypothesis import assume
        assume(sum(traces) <= 4)   # keeps every N_l nonnegative
        q = 4
        counts, prev, cur = [], [2] * len(traces), list(traces)
        for l in range(1, len(traces) + 1):
            if l > 1:
                prev, cur = cur, [t * c - q * p
                                  for t, c, p in zip(traces, cur, prev)]
            counts.append(q ** l + 1 - sum(cur))
        curve = weil_from_counts(q, counts)
        n, _ = count_points(curve, 1, 0)
        assert n == sum(curve.numerator)

    # a genus-2 curve over F_49 whose counts at r >= 3 lie past what
    # float evaluation can round: the value at r = 3 is ...975 exactly,
    # and the float sum reads ...968.  Its real Weil polynomial has the
    # roots t = 3 and t = -5.
    Q49 = (49, [52, 2564])
    EXACT49 = {3: 87846568892661975, 4: 59580107572543347309117515830}

    @pytest.mark.parametrize("curve,r,want", [
        (Q49, 2, (310846250, 87806371869466250)),
        # the benchmark's curve; the bound there is about 1e-7
        ((3, [3, 13]), 3, (90320, 5333305680)),
    ])
    def test_exact_where_the_bound_allows(self, curve, r, want):
        assert count_points(weil_from_counts(*curve), r, 1) == want

    @pytest.mark.parametrize("r", [3, 4])
    def test_rounding_bound_refuses(self, r):
        # where the float route's bound refuses, the count is exact
        curve = weil_from_counts(*self.Q49)
        assert float_count(curve, r, 1) is None
        n, higgs = count_points(curve, r, 1)
        assert n == self.EXACT49[r]
        assert higgs == 49 ** (1 + r * r) * n

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_the_quotient_ring(self, r):
        # the lifted polynomial in Q[a1,a3]/(a1² - 3a1 + 49, a3² + 5a3 + 49)
        want = quotient_ring_value(kac_polynomial(2, r, 1).lifted, 49, (3, -5))
        assert count_points(weil_from_counts(*self.Q49), r, 1)[0] == want


class TestSampleCurve:
    def test_every_supported_genus(self):
        for g in range(10):
            curve = pipeline._sample_curve(g)
            assert curve.genus == g
            assert min(curve.point_counts, default=0) >= 0

    def test_low_genera_unchanged(self):
        assert [(c.q, c.point_counts) for c in map(pipeline._sample_curve,
                                                   range(4))] \
            == [(2, ()), (2, (3,)), (3, (3, 13)), (4, (2, 36, 92))]

    def test_beyond_nine_rejected(self):
        with pytest.raises(ValueError):
            pipeline._sample_curve(10)


class TestRegularity:
    def test_rank1(self):
        rep = regularity_report(1, 1)
        assert rep.pole_orders == {1: 1}
        assert rep.all_simple and rep.clears_linear and rep.clears_power
        assert rep.is_d_independent is True

    @pytest.mark.parametrize("g", [0, 1])
    def test_rank2_regular_at_minus_one(self, g):
        rep = regularity_report(g, 2)
        assert rep.pole_orders.get(2, 0) == 0
        assert rep.all_simple
        assert rep.clears_linear and rep.clears_power
        assert rep.is_d_independent is True

    def test_report_lines_render(self):
        text = "\n".join(regularity_report(1, 2).lines())
        assert "pole order" in text and "degree classes coincide: True" in text

    @pytest.mark.parametrize("g,r", [(0, 1), (1, 2), (1, 3), (2, 2), (2, 3),
                                     (3, 2), (1, 4)])
    def test_exact_orders_match_the_float_estimate(self, g, r):
        want = numeric_pole_orders(kac_rational(g, r), g)
        assert regularity_report(g, r).pole_orders == want

    def test_removable_cyclotomic_factor(self):
        # (1 + z)/((1 - z^2)(1 - z^3)): 1 + z = Φ_2 cancels the order-2
        # root of 1 - z^2, leaving a double pole at 1 and simple ones at
        # the primitive cube roots
        f = FactoredRat(SparsePoly({Monomial(): 1, mono(z=1): 1}),
                        [Atom(1, mono(z=2)), Atom(1, mono(z=3))])
        assert pipeline._pole_orders(f) == {1: 2, 3: 1}
        assert numeric_pole_orders(f, 0) == {1: 2, 3: 1}


class TestIdentities:
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_all_pass(self, g):
        assert all(ok for _, ok in identity_report(g, 4))

    def test_genus4(self):
        # the curve identities are built in the zeta-numerator coordinates,
        # where g = 4 has a few dozen terms, not thousands in the roots
        assert all(ok for _, ok in identity_report(4, 2))

    def test_genus9(self):
        # the largest sample curve, in about 0.02 s
        assert all(ok for _, ok in identity_report(9, 1))

    def test_check_identities_quiet_on_success(self):
        report = check_identities(1, 3)
        assert [name for name, _ in report] == [
            "torsion-resummation", "exp-log-roundtrip",
            "zeta-product-convergence", "siegel-volume"]

    def test_fault_injection(self, monkeypatch):
        import census.zeta as zeta

        real = zeta.zeta_lift

        def corrupted(g, monomial):
            return real(g, monomial) * const(Fraction(101, 100))

        monkeypatch.setattr(zeta, "zeta_lift", corrupted)
        with pytest.raises(IdentityViolation):
            check_identities(1, 4)


class TestLatex:
    def test_rank1_factored(self):
        assert latex_value(kac_polynomial(1, 1, 0)) == \
            "(1-\\alpha_1)(1-\\alpha_2)"

    def test_genus0(self):
        assert latex_value(kac_polynomial(0, 1, 0)) == "1"

    def test_zero(self):
        assert latex_value(kac_polynomial(0, 2, 0)) == "0"

    def test_genus2_rank1(self):
        s = latex_value(kac_polynomial(2, 1, 0))
        assert s == ("(1-\\alpha_1)(1-\\alpha_2)"
                     "(1-\\alpha_3)(1-\\alpha_4)")


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        assert [n for n in census.__all__ if not hasattr(census, n)] == []

    def test_star_import(self):
        space = {}
        exec("from census import *", space)
        assert set(census.__all__) <= space.keys()
