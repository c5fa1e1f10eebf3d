"""The ten release gates, one test per criterion.

Each test runs its criterion at the stated tolerance and time budget and
registers one PASS/FAIL line; the lines are printed as a terminal section
at the end of the run (see conftest).  Budgets are wall-clock seconds on
the machine running the suite, measured with cold in-process caches: this
module clears the pipeline caches at import time and pytest imports it
before anything else has computed.
"""

import functools
import math
import time
from fractions import Fraction

from census import pipeline
from census.residues import h_factor
from census.ring import FactoredRat, Monomial, SparsePoly, atom_inverse
from census.zeta import alpha_names, pair_reduce, weil_from_counts
from census.pipeline import (
    betti_polynomial,
    constant_term,
    count_points,
    degree_class_sums,
    kac_polynomial,
    kac_series_oracle,
)

from builders import const

pipeline.kac_rational.cache_clear()
pipeline.degree_class_sums.cache_clear()
pipeline._constant_class_sums.cache_clear()
pipeline._partition_log.cache_clear()
pipeline._constant_log.cache_clear()
h_factor.cache_clear()

REPORT = []


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            t0 = time.perf_counter()
            try:
                fn(*a, **k)
            except BaseException:
                REPORT.append("FAIL  criterion %2d: %s" % (n, desc))
                raise
            REPORT.append("PASS  criterion %2d: %s  (%.2fs)"
                          % (n, desc, time.perf_counter() - t0))
        return wrapper
    return deco


def mono(**e):
    return Monomial.of(**e)


def prod_roots(g, sign=1, qpow=0):
    """∏_{i=1}^{2g} (1 - sign*q^qpow*α_i) over the free root variables."""
    out = FactoredRat.one()
    for name in alpha_names(g):
        out = out * FactoredRat(SparsePoly({
            mono(): 1, mono(q=qpow, **{name: 1}): -sign}))
    return out


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


def vanishing_table(g, r):
    c = math.comb
    return {1: 1, 2: c(g, 1), 3: 4 * c(g, 2) + c(g, 1),
            4: 32 * c(g, 3) + 20 * c(g, 2) + c(g, 1)}[r]


@criterion(1, "rank-1 counting polynomial is prod(1-alpha_i), g<=3, <1s")
def test_criterion_01_rank1_exact():
    t0 = time.perf_counter()
    for g in (0, 1, 2, 3):
        want = pair_reduce(prod_roots(g), g)
        for d in (0, -1, 5):
            res = kac_polynomial(g, 1, d)
            assert res.value == want, (g, d)
            assert res.is_polynomial
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "rank-2 equals the displayed closed form, g<=2, <60s at g=2")
def test_criterion_02_rank2_display():
    for g in (0, 1):
        want = pair_reduce(rank2_display(g), g)
        for d in (0, 1):
            assert kac_polynomial(g, 2, d).value == want, (g, d)
    t0 = time.perf_counter()
    want = pair_reduce(rank2_display(2), 2)
    for d in (0, 1):
        assert kac_polynomial(2, 2, d).value == want, d
    assert time.perf_counter() - t0 < 60.0


@criterion(3, "constant-term table r<=4, g<=5, d in {0,1}, exact, <30s")
def test_criterion_03_constant_term_table():
    t0 = time.perf_counter()
    for r in (1, 2, 3, 4):
        for g in range(6):
            for d in (0, 1):
                assert constant_term(g, r, d) == vanishing_table(g, r), \
                    (g, r, d)
    assert time.perf_counter() - t0 < 30.0


@criterion(4, "(1-z^r)A(z) polynomial with equal classes, r in {2,3}, "
              "g<=2, <5min at (2,3)")
def test_criterion_04_prime_rank_regularity():
    for r in (2, 3):
        for g in (0, 1):
            sums = degree_class_sums(g, r)
            assert all(s == sums[0] for s in sums[1:]), (g, r)
    sums = degree_class_sums(2, 2)
    assert all(s == sums[0] for s in sums[1:])
    t0 = time.perf_counter()
    sums = degree_class_sums(2, 3)
    elapsed = time.perf_counter() - t0
    assert all(s == sums[0] for s in sums[1:])
    assert elapsed < 300.0


@criterion(5, "truncated-series oracle tail matches every class, "
              "g<=2, r<=3, exact")
def test_criterion_05_two_route_oracle():
    for g in (0, 1, 2):
        for r in (1, 2, 3):
            coeffs = kac_series_oracle(g, r)
            bound = (g - 1) * r * (r - 1)
            start = max(0, bound + 1)
            assert len(coeffs) >= start + r    # one full extra period
            for d in range(start, len(coeffs)):
                assert coeffs[d] == kac_polynomial(g, r, d).lifted, (g, r, d)


@criterion(6, "Poincare polynomial monic of degree 4(1+(g-1)r^2), "
              "nonnegative integer coefficients")
def test_criterion_06_betti_degree_unitarity():
    for g in (1, 2):
        for r, d in ((2, 1), (3, 1), (3, 2)):
            p = betti_polynomial(g, r, d)
            degs = [dict(items).get("t", 0) for items, _ in p.sorted_items()]
            top = 4 * (1 + (g - 1) * r * r)
            assert max(degs) == top, (g, r, d)
            assert p.terms[mono(t=top).code] == 1
            for c in p.terms.values():
                assert isinstance(c, int) and c >= 0, (g, r, d, c)


@criterion(7, "elliptic point counts equal N_1 for coprime (r,d), r<=3, "
              "residual<1e-6")
def test_criterion_07_elliptic_counts():
    for q, n1 in ((2, 3), (3, 4), (5, 8)):
        curve = weil_from_counts(q, [n1])
        for r, d in ((1, 0), (2, 1), (3, 1), (3, 2)):
            count, _ = count_points(curve, r, d)
            assert count == n1, (q, n1, r, d, count)


@criterion(8, "higgs_points = q^(1+(g-1)r^2) * indecomposables; "
              "spot value 6 at (2,3,1,0)")
def test_criterion_08_higgs_relation():
    for q, n1 in ((2, 3), (3, 4), (5, 8)):
        curve = weil_from_counts(q, [n1])
        for r, d in ((1, 0), (2, 1), (3, 1), (3, 2)):
            count, higgs = count_points(curve, r, d)
            assert higgs == q ** (1 + (curve.genus - 1) * r * r) * count
    curve = weil_from_counts(2, [3])
    assert count_points(curve, 1, 0) == (3, 6)


@criterion(9, "torsion-volume identity to s^6 (g<=2) and Exp/Log "
              "round-trips at T-order 5, exact")
def test_criterion_09_identity_suite():
    for g in (0, 1, 2):
        assert pipeline._torsion_resummed(g, 6), g
        assert pipeline._exp_log_roundtrip(g, order=5), g


@criterion(10, "lowest Betti coefficient equals the constant term, "
               "coprime (r,d), r<=3, g<=2")
def test_criterion_10_lowest_betti_is_constant_term():
    for g in (0, 1, 2):
        for r, d in ((1, 0), (2, 1), (3, 1), (3, 2)):
            p = betti_polynomial(g, r, d)
            ct = constant_term(g, r, d)
            if p.is_zero():
                assert ct == 0, (g, r, d)
                continue
            low = min(dict(items).get("t", 0) for items, _ in p.sorted_items())
            assert p.terms[mono(t=low).code] == ct, (g, r, d)
