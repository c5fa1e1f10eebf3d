"""Zeta values, J-weights, Weil-number recovery, volume identities."""

import cmath
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from census.errors import (ExponentOverflow, NotWeil, PoleArgument,
                           SubstitutionToZeroPole)
from census.partitions import Partition, box_stats, partitions_of
from census.pipeline import _sample_curve, count_points, kac_polynomial
from census.ring import (
    FAMILY_SIZE,
    Atom,
    FactoredRat,
    Monomial,
    ONE_MONOMIAL,
    SparsePoly,
    atom_inverse,
)
from census.series import BiSeries, frac_to_series, series_exp
from census.zeta import (
    MAX_GENUS,
    CurveData,
    alpha_names,
    coeff_name,
    j_factor,
    one_minus,
    pair_reduce,
    siegel_lift_factors,
    siegel_volume,
    torsion_volume_series,
    weil_from_counts,
    zeta_at,
    zeta_star,
    zeta_value,
)

import census.zeta as zeta
import test_pipeline
from builders import (eval_numeric, evaluate, float_count, is_weil_by_roots,
                      pair_reduce_by_roots, power_sums, siegel_factors,
                      weil_numbers, weil_point, zeta_tilde)

LIMIT = 2 ** 22


def mono(**e):
    return Monomial.of(**e)


def prod(fracs):
    out = FactoredRat.one()
    for f in fracs:
        out = out * f
    return out


def test_alpha_names_stop_at_the_ring_limit():
    names = alpha_names(MAX_GENUS)
    assert len(names) == FAMILY_SIZE
    assert mono(**{names[-1]: 1}).variables() == [names[-1]]
    with pytest.raises(ValueError, match="genus %d is above the limit %d"
                       % (MAX_GENUS + 1, MAX_GENUS)):
        alpha_names(MAX_GENUS + 1)


def curve_point(g, q=4.0, seed=7):
    """Random numeric α assignment satisfying the pair relation."""
    rng = random.Random(seed)
    out = {"q": complex(q)}
    for i in range(1, g + 1):
        theta = rng.uniform(0.3, 2.8)
        s = cmath.rect(q ** 0.5, theta)
        out["a%d" % (2 * i - 1)] = s
        out["a%d" % (2 * i)] = q / s
    return out


class TestZetaValue:
    def test_genus0_at_q_minus2(self):
        want = atom_inverse(1, mono(q=-2)) * atom_inverse(1, mono(q=-1))
        assert zeta_value(0, 2, 0) == want

    def test_genus1_at_qinv_z(self):
        want = prod([
            one_minus(1, mono(a1=1, q=-1, z=1)),
            one_minus(1, mono(a2=1, q=-1, z=1)),
            atom_inverse(1, mono(q=-1, z=1)),
            atom_inverse(1, mono(z=1)),
        ])
        assert zeta_value(1, 1, 1) == want

    def test_pole_arguments(self):
        with pytest.raises(PoleArgument):
            zeta_value(0, 0, 0)
        with pytest.raises(PoleArgument):
            zeta_value(2, 1, 0)

    def test_zero_argument(self):
        assert zeta_at(1, 0, ONE_MONOMIAL) == FactoredRat.one()

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_exp_form(self, g):
        # ζ(s) = Exp((1 - Σα_i + q) s), compared exactly to s-order 6
        lhs = frac_to_series(zeta_at(g, 1, mono(s=1)), "s", 6)
        terms = {ONE_MONOMIAL: 1, mono(q=1): 1}
        for name in alpha_names(g):
            terms[mono(**{name: 1})] = -1
        coeffs = [FactoredRat.zero()] * 7
        coeffs[1] = FactoredRat(SparsePoly(terms))
        from census.series import pleth_exp
        assert pleth_exp(BiSeries("s", 6, coeffs)) == lhs

    @pytest.mark.parametrize("g", [1, 2])
    def test_alpha_permutation_symmetry(self, g):
        rng = random.Random(11)
        point = {"q": 2.7 + 0.4j}
        names = alpha_names(g)
        for name in names:
            point[name] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = zeta_value(g, 2, 1)
        base = eval_numeric(f, dict(point, z=0.3 + 0.1j))
        shuffled = names[1:] + names[:1]
        permuted = {new: point[old] for new, old in zip(names, shuffled)}
        permuted["q"] = point["q"]
        permuted["z"] = 0.3 + 0.1j
        assert abs(eval_numeric(f, permuted) - base) < 1e-9 * abs(base)


class TestZetaStar:
    def test_genus0_special(self):
        assert zeta_star(0, 1, 0) == atom_inverse(1, mono(q=-1))

    def test_genus1_special_structure(self):
        want = prod([
            FactoredRat.from_monomial(mono(q=-1)),
            one_minus(1, mono(a1=1)),
            one_minus(1, mono(a2=1)),
            atom_inverse(1, mono(q=-1)),
        ])
        assert zeta_star(1, 1, 0) == want

    def test_genus1_special_numeric(self):
        # against ∏(1-α_i^{-1})/(1-q^{-1}) under α_1 α_2 = q
        point = curve_point(1, q=3.7, seed=3)
        got = eval_numeric(zeta_star(1, 1, 0), point)
        a1, a2, q = point["a1"], point["a2"], point["q"]
        want = (1 - 1 / a1) * (1 - 1 / a2) / (1 - 1 / q)
        assert abs(got - want) < 1e-9 * abs(want)

    def test_plain_branch(self):
        assert zeta_star(1, 2, 1) == zeta_value(1, 2, 1)


class TestZetaTilde:
    def test_genus1_is_zeta(self):
        arg = mono(s=1)
        assert zeta_tilde(1, 1, arg) == zeta_at(1, 1, arg)

    def test_genus0_multiplies_argument(self):
        arg = mono(s=1)
        want = FactoredRat.from_monomial(arg) * zeta_at(0, 1, arg)
        assert zeta_tilde(0, 1, arg) == want

    def test_genus2_ratio_argument(self):
        arg = mono(z1=1, z2=-1)
        want = FactoredRat.from_monomial(arg ** -1) * zeta_at(2, 1, arg)
        assert zeta_tilde(2, 1, arg) == want

    def test_scalar_coefficient(self):
        got = zeta_tilde(0, Fraction(1, 2), mono(s=1))
        want = (FactoredRat.from_monomial(mono(s=1)).mul_scalar(Fraction(1, 2))
                * zeta_at(0, Fraction(1, 2), mono(s=1)))
        assert got == want


class TestJFactor:
    def test_empty(self):
        assert j_factor(1, Partition()) == FactoredRat.one()

    def test_single_box(self):
        for g in (0, 1, 2):
            want = pair_reduce(zeta_star(g, 1, 0), g)
            assert j_factor(g, Partition((1,))) == want

    def test_row_of_two(self):
        for g in (0, 1):
            want = pair_reduce(zeta_value(g, 1, 1) * zeta_star(g, 1, 0), g)
            assert j_factor(g, Partition((2,))) == want

    def test_column_of_two(self):
        # boxes of (1,1): (arm, leg) = (0,1) and (0,0)
        want = pair_reduce(zeta_star(1, 2, 0) * zeta_star(1, 1, 0), 1)
        assert j_factor(1, Partition((1, 1))) == want

    def test_permutation_symmetry_numeric(self):
        point = curve_point(2, q=4.0, seed=5)
        point["z"] = 0.21 + 0.11j
        f = j_factor(2, Partition((2, 1)))
        base = eval_numeric(f, point)
        swapped = dict(point)
        swapped["a1"], swapped["a3"] = point["a3"], point["a1"]
        swapped["a2"], swapped["a4"] = point["a4"], point["a2"]
        assert abs(eval_numeric(f, swapped) - base) < 1e-9 * abs(base)


class TestWeilFromCounts:
    def test_elliptic_q2(self):
        curve = weil_from_counts(2, [3])
        assert curve.numerator == (1, 0, 2)
        got = sorted((s.real, s.imag) for s in weil_numbers(curve))
        rt2 = 2 ** 0.5
        assert abs(got[0][1] + rt2) < 1e-9 and abs(got[1][1] - rt2) < 1e-9
        assert abs(got[0][0]) < 1e-9 and abs(got[1][0]) < 1e-9

    def test_elliptic_q3(self):
        assert weil_from_counts(3, [4]).numerator == (1, 0, 3)

    def test_genus0(self):
        curve = weil_from_counts(5, [])
        assert curve.numerator == (1,)
        assert weil_numbers(curve) == ()
        assert power_sums(curve, 2) == [0, 0, 0]

    def test_genus2_square(self):
        # numerator (1+2z²)² gives counts N_1=3, N_2=13 over F_2
        curve = weil_from_counts(2, [3, 13])
        assert curve.numerator == (1, 0, 4, 0, 4)
        sigmas = weil_numbers(curve)
        for i in range(0, 4, 2):
            assert abs(sigmas[i] * sigmas[i + 1] - 2) < 1e-6

    def test_functional_equation(self):
        curve = weil_from_counts(3, [6, 12])
        a, g, q = curve.numerator, curve.genus, curve.q
        for k in range(g):
            assert a[2 * g - k] == q ** (g - k) * a[k]

    def test_not_weil(self):
        with pytest.raises(NotWeil):
            weil_from_counts(2, [10])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            weil_from_counts(1, [2])
        with pytest.raises(ValueError):
            weil_from_counts(4, [-1])

    @pytest.mark.parametrize("t", range(-4, 5))
    def test_hasse_interval_round_trip(self, t):
        q = 5
        curve = weil_from_counts(q, [q + 1 + t])
        assert 1 + q - power_sums(curve, 1)[1] == q + 1 + t
        s1, s2 = weil_numbers(curve)
        assert abs(s1 * s2 - q) < 1e-6

    def test_round_trip_higher_powers(self):
        # the exact power sums against the float Weil numbers, and the
        # counts read back where they were given
        curve = weil_from_counts(2, [3, 13])
        counts = [1 + 2 ** l - s for l, s in enumerate(power_sums(curve, 5))]
        assert counts[1:3] == [3, 13]
        for l in range(1, 6):
            want = 1 + 2 ** l - sum(s ** l for s in weil_numbers(curve))
            assert abs(counts[l] - want) < 1e-6

    def test_assignment_pairs_to_q(self):
        point = weil_point(weil_from_counts(2, [3, 13]))
        assert abs(point["a1"] * point["a2"] - 2) < 1e-6
        assert abs(point["a3"] * point["a4"] - 2) < 1e-6

    def test_numpy_is_never_imported(self):
        # counts over a curve are exact: nothing in census needs numpy,
        # nor complex floats
        child = ("import sys\n"
                 "import census\n"
                 "curve = census.weil_from_counts(3, [4, 28, 28])\n"
                 "assert census.count_points(curve, 1, 0) == (64, 1728)\n"
                 "assert 'numpy' not in sys.modules\n"
                 "assert 'cmath' not in sys.modules\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", child], env=env, check=True,
                       timeout=120)

    def test_from_dict(self):
        curve = CurveData.from_dict(
            {"q": 2, "genus": 1, "point_counts": [3]})
        assert curve.numerator == (1, 0, 2)
        with pytest.raises(ValueError):
            CurveData.from_dict({"q": 2, "genus": 2, "point_counts": [3]})
        with pytest.raises(ValueError):
            CurveData.from_dict({"q": 2})


def counts_from_traces(q, traces):
    """|X(F_{q^l})|, l = 1..g, for the zeta numerator ∏_i (1 - t_i T + q T²)."""
    counts, prev, cur = [], [2] * len(traces), list(traces)
    for l in range(1, len(traces) + 1):
        if l > 1:
            prev, cur = cur, [t * c - q * p
                              for t, c, p in zip(traces, cur, prev)]
        counts.append(q ** l + 1 - sum(cur))
    return counts


def reference_weil_numbers(curve):
    """The roots of x^{2g}P(1/x) by mpmath at 50 digits, one squarefree
    factor (from sympy) at a time, each repeated by its multiplicity."""
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    poly = sympy.Poly(list(curve.numerator), sympy.Symbol("x"))
    roots = []
    with mpmath.workdps(50):
        for factor, mult in poly.sqf_list()[1]:
            coeffs = [int(c) for c in factor.all_coeffs()]
            roots += [complex(r) for r in mpmath.polyroots(
                coeffs, maxsteps=500, extraprec=100)] * mult
    return roots


def assert_matches_reference(curve, rel=1e-9):
    want = reference_weil_numbers(curve)
    got = weil_numbers(curve)
    assert len(want) == len(got)
    for s in got:
        i = min(range(len(want)), key=lambda i: abs(want[i] - s))
        assert abs(want.pop(i) - s) <= rel * abs(s), (curve, s)


FERMAT_QUARTIC = (3, [4, 28, 28])   # x^4 + y^4 + z^4 = 0 over F_3

# (q, counts) of every curve the tests and the benchmark build
USED_CURVES = [
    (2, [3]), (3, [4]), (5, [8]), (2, [3, 13]), (3, [3, 13]),
    (3, [6, 12]), (4, [2, 36, 92]), FERMAT_QUARTIC,
    *((5, [6 + t]) for t in range(-4, 5)),
]

# count_points(curve, r, d) as computed with numpy.roots, before the
# Weil numbers came from the real Weil polynomial:
# (q, counts) -> {(r, d): (indecomposables, higgs_points)}
PINNED_COUNTS = {
    (2, (3,)): {(1, 0): (3, 6), (2, 1): (3, 6), (2, 0): (3, None),
                (3, 1): (3, 6), (3, 2): (3, 6)},
    (5, (10,)): {(1, 0): (10, 50), (2, 1): (10, 50), (2, 0): (10, None),
                 (3, 1): (10, 50), (3, 2): (10, 50)},
    (4, (1,)): {(1, 0): (1, 4), (2, 1): (1, 4), (2, 0): (1, None),
                (3, 1): (1, 4), (3, 2): (1, 4)},
    (2, (3, 13)): {(1, 0): (9, 36), (2, 1): (162, 5184), (2, 0): (162, None)},
    (3, (3, 13)): {(1, 0): (8, 72), (2, 1): (320, 77760),
                   (2, 0): (320, None)},
    (3, (6, 12)): {(1, 0): (21, 189), (2, 1): (1092, 265356),
                   (2, 0): (1092, None)},
    (4, (5, 17)): {(1, 0): (17, 272), (2, 1): (1530, 1566720),
                   (2, 0): (1530, None)},
    (2, (3, 11)): {(1, 0): (8, 32), (2, 1): (144, 4608), (2, 0): (144, None)},
    (5, (5, 33)): {(1, 0): (24, 600), (2, 1): (3744, 11700000),
                   (2, 0): (3744, None)},
    (4, (5, 1)): {(1, 0): (9, 144), (2, 1): (810, 829440),
                  (2, 0): (810, None)},
    (4, (2, 36, 92)): {(1, 0): (60, 3840), (2, 1): (300420, 78753300480),
                       (2, 0): (300420, None)},
    (4, (5, 35, 71)): {(1, 0): (112, 7168), (2, 1): (673568, 176571809792),
                       (2, 0): (673568, None)},
    (5, (6, 42, 144)): {(1, 0): (180, 22500),
                        (2, 1): (3707460, 7241132812500),
                        (2, 0): (3707460, None)},
}


class TestWeilRoots:
    """Weil numbers from the real Weil polynomial, against mpmath and
    against the counts of the numpy-based root extraction."""

    def test_fermat_quartic(self):
        # P(T) = (1 + 3T²)³: ±i√3, each a triple root of P, which a
        # root finder run on P itself resolves to about six digits only
        curve = weil_from_counts(*FERMAT_QUARTIC)
        assert curve.numerator == (1, 0, 9, 0, 27, 0, 27)
        for s in weil_numbers(curve):
            assert abs(s - cmath.sqrt(-3)) < 1e-12 \
                or abs(s + cmath.sqrt(-3)) < 1e-12
        assert count_points(curve, 1, 0) == (64, 1728)

    def test_real_weil_numbers(self):
        # traces ±2√q: the Weil numbers ±√q are real and doubled
        for q, counts, root in ((4, [5, 1], 2.0), (5, [6, 6], 5 ** 0.5)):
            got = sorted(s.real for s in weil_numbers(
                weil_from_counts(q, counts)))
            assert got == pytest.approx([-root, -root, root, root],
                                        rel=1e-15)

    def test_float_overflow_is_a_value_error(self):
        # t = q = 10^200 squares past the float range, so the root finder
        # refuses; the exact check sees t > 2√q
        q = 10 ** 200
        with pytest.raises(ValueError, match="too large"):
            weil_numbers(CurveData(q, 1, (1,), (1, -q, q)))
        with pytest.raises(NotWeil):
            weil_from_counts(q, [1])

    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.sampled_from([0, 1, 2, -1, -2, 3]),
                    min_size=1, max_size=3))
    @example([1, 1, 1])
    @example([-2, -2, -2])
    @example([0, 0, 0])
    @example([3, 3, -2])
    def test_rank1_counts_class_number_repeated_traces(self, traces):
        # rank-1 indecomposables = line bundles of one degree = |Pic^0|
        assume(sum(traces) <= 4)   # keeps every N_l nonnegative
        curve = weil_from_counts(4, counts_from_traces(4, traces))
        n, _ = count_points(curve, 1, 0)
        assert n == sum(curve.numerator)

    @pytest.mark.parametrize("q,counts", USED_CURVES + [
        (q, list(c)) for q, c in sorted(PINNED_COUNTS)] + [(5, [6, 6])])
    def test_used_curves_match_mpmath(self, q, counts):
        assert_matches_reference(weil_from_counts(q, counts))

    @settings(deadline=None, max_examples=40)
    @given(st.sampled_from([2, 3, 4, 5, 7, 9, 16, 25, 49, 101]), st.data())
    def test_simple_roots_match_mpmath(self, q, data):
        # distinct traces with t² < 4q give 2g distinct Weil numbers
        bound = math.isqrt(4 * q - 1)
        traces = data.draw(st.lists(
            st.integers(min_value=-bound, max_value=bound),
            min_size=1, max_size=4, unique=True))
        counts = counts_from_traces(q, traces)
        assume(min(counts) >= 0)
        assert_matches_reference(weil_from_counts(q, counts))

    @pytest.mark.parametrize("q,counts", sorted(PINNED_COUNTS))
    def test_count_points_pinned(self, q, counts):
        curve = weil_from_counts(q, counts)
        for (r, d), want in PINNED_COUNTS[q, counts].items():
            assert count_points(curve, r, d) == want, (r, d)

    @pytest.mark.parametrize("q,counts", USED_CURVES)
    def test_counts_match_the_float_reference(self, q, counts):
        # the exact count against the float route wherever its error
        # bound lets it round
        curve = weil_from_counts(q, counts)
        rounded = 0
        for r in (1, 2, 3):
            for d in range(r):
                want = float_count(curve, r, d)
                if want is not None:
                    assert count_points(curve, r, d)[0] == want, (r, d)
                    rounded += 1
        assert rounded

    @settings(deadline=None, max_examples=80)
    @given(st.sampled_from([2, 3, 4, 5, 7, 9, 16, 25, 49]),
           st.lists(st.integers(min_value=-16, max_value=16),
                    min_size=1, max_size=4),
           st.lists(st.integers(min_value=-2, max_value=2), max_size=4))
    @example(4, [4, 4, -4], [])     # t = ±2√q, one of them twice
    @example(9, [-6, -6], [])
    @example(49, [14, -14, 3], [])
    @example(5, [4, 4], [])         # 4 < 2√5: repeated, inside
    @example(5, [5], [])            # 5 > 2√5: outside
    @example(2, [0, 0], [1, 1])     # complex t
    def test_sturm_matches_the_root_finder(self, q, traces, shifts):
        # the zeta numerator ∏_i (1 - t_i T + q T²), its low half shifted
        # to reach real Weil polynomials with complex or clustered roots
        g = len(traces)
        a = [1]
        for t in traces:
            a = [x - t * y + q * z
                 for x, y, z in zip(a + [0, 0], [0] + a + [0], [0, 0] + a)]
        for k, shift in enumerate(shifts[:g], start=1):
            a[k] += shift
        for k in range(g):
            a[2 * g - k] = q ** (g - k) * a[k]
        curve = CurveData(q, g, (), tuple(a))
        weil = is_weil_by_roots(curve)
        assert zeta._is_weil(zeta._real_weil_polynomial(a, q), q) == weil
        power = power_sums(curve, g)
        counts = [1 + q ** l - power[l] for l in range(1, g + 1)]
        if min(counts) < 0:
            return
        if weil:
            assert weil_from_counts(q, counts).numerator == curve.numerator
        else:
            with pytest.raises(NotWeil):
                weil_from_counts(q, counts)


class TestEvaluate:
    def test_refuses_what_it_cannot_read(self):
        curve = weil_from_counts(2, [3, 13])
        for f in (FactoredRat(SparsePoly({mono(z=1): 1})),
                  FactoredRat(SparsePoly({mono(a2=1): 1})),
                  atom_inverse(1, mono(a1=1))):
            with pytest.raises(ValueError):
                evaluate(curve, f)

    def test_against_the_float_weil_numbers(self):
        # a symmetric function of the 2g roots with q-atoms, both ways
        curve = weil_from_counts(4, [2, 36, 92])
        f = siegel_volume(3, 3)
        want = eval_numeric(f, weil_point(curve))
        assert abs(float(evaluate(curve, f)) - want) < 1e-9 * abs(want)


class TestCurveValue:
    """CurveData.value substitutes q and the integer numerator into a
    value in the zeta-numerator coordinates; the W-average of the α-form
    (builders.evaluate) is its reference."""

    def test_refuses_what_it_cannot_read(self):
        curve = weil_from_counts(2, [3, 13])
        for f in (FactoredRat(SparsePoly({mono(z=1): 1})),
                  FactoredRat(SparsePoly({mono(a1=1): 1})),
                  FactoredRat(SparsePoly({mono(e3=1): 1})),
                  atom_inverse(1, mono(s=1))):
            with pytest.raises(ValueError):
                curve.value(f)

    @pytest.mark.parametrize("g", range(6))
    def test_siegel_factors_against_the_w_average(self, g):
        curve = _sample_curve(g)
        for r in (2, 3):
            got = list(map(curve.value, siegel_lift_factors(g, r)))
            want = [evaluate(curve, f) for f in siegel_factors(g, r)]
            assert got == want, (g, r)

    @pytest.mark.parametrize("g", range(6))
    def test_torsion_coefficients_against_the_w_average(self, g):
        curve = _sample_curve(g)
        lift = zeta.torsion_lift_series(g, 3)
        roots = torsion_volume_series(g, 3)
        for j in range(4):
            want = evaluate(curve, pair_reduce(roots.coefficient(j), g))
            assert curve.value(lift.coefficient(j)) == want, (g, j)

    @pytest.mark.parametrize("g", range(4))
    def test_torsion_coefficients_in_the_roots(self, g):
        lift = zeta.torsion_lift_series(g, 3)
        roots = torsion_volume_series(g, 3)
        for j in range(4):
            assert zeta.to_roots(lift.coefficient(j), g) \
                == pair_reduce(roots.coefficient(j), g), (g, j)

    @pytest.mark.parametrize("g", range(4))
    @pytest.mark.parametrize("m", [mono(s=1), mono(q=-1, s=1), mono(q=-2)])
    def test_zeta_lift_is_zeta_at(self, g, m):
        # ties the two ζ together: corrupting either fails this
        assert zeta.to_roots(zeta.zeta_lift(g, m), g) \
            == pair_reduce(zeta_at(g, 1, m), g)

    def test_zeta_lift_refuses_its_poles(self):
        for m in (ONE_MONOMIAL, mono(q=-1)):
            with pytest.raises(PoleArgument):
                zeta.zeta_lift(1, m)


class TestSiegelVolume:
    def test_rank1(self):
        for g in (0, 1, 2):
            want = prod([one_minus(1, mono(**{n: 1}))
                         for n in alpha_names(g)])
            want = want * atom_inverse(1, mono(q=1)).mul_scalar(-1)
            assert siegel_volume(g, 1) == pair_reduce(want, g)

    def test_genus0_rank1_value(self):
        # 1/(q-1) at q=5
        got = eval_numeric(siegel_volume(0, 1), {"q": 5.0})
        assert abs(got - 0.25) < 1e-12

    def test_rank2(self):
        g = 1
        want = FactoredRat.from_monomial(mono(q=3 * (g - 1)))
        for n in alpha_names(g):
            want = want * one_minus(1, mono(**{n: 1}))
        want = want * atom_inverse(1, mono(q=1)).mul_scalar(-1)
        want = want * zeta_at(g, 1, mono(q=-2))
        assert siegel_volume(g, 2) == pair_reduce(want, g)

    def test_rejects_rank0(self):
        with pytest.raises(ValueError):
            siegel_volume(1, 0)

    @pytest.mark.parametrize("g", range(5))
    def test_same_bytes_as_the_root_factors(self, g):
        # the lift's product in the roots against the α-form factors
        # multiplied out modulo the Weil relations
        for r in (1, 2, 3):
            want = prod(siegel_factors(g, r)).normalize()
            got = siegel_volume(g, r)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
            assert repr(got) == repr(want)

    @pytest.mark.parametrize("g", range(5))
    def test_factors_evaluate_to_the_volume(self, g):
        # the W-average of the α-form factors one by one against that of
        # the volume, multiplied out in the lift and written in the roots
        curve = _sample_curve(g)
        for r in (2, 3):
            got = math.prod(evaluate(curve, f) for f in siegel_factors(g, r))
            assert got == evaluate(curve, siegel_volume(g, r))


class TestTorsionVolume:
    def test_first_coefficient(self):
        got = torsion_volume_series(1, 2).coefficient(1)
        terms = {ONE_MONOMIAL: 1, mono(q=1): 1, mono(a1=1): -1,
                 mono(a2=1): -1}
        want = (FactoredRat(SparsePoly(terms))
                * atom_inverse(1, mono(q=1)).mul_scalar(-1))
        assert got == want

    def test_genus0_first_coefficient(self):
        got = torsion_volume_series(0, 1).coefficient(1)
        want = (FactoredRat(
                    SparsePoly({ONE_MONOMIAL: 1, mono(q=1): 1}))
                * atom_inverse(1, mono(q=1)).mul_scalar(-1))
        assert got == want

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_resummed_product_identity(self, g):
        # Exp(|X| s/(q-1)) = exp(Σ_l (1+q^l-Σα^l) s^l / (l (q^l-1))),
        # the resummed form of ∏_{i≥1} ζ(q^{-i} s); exact to s-order 6
        L = 6
        coeffs = [FactoredRat.zero()]
        for l in range(1, L + 1):
            terms = {ONE_MONOMIAL: 1, mono(q=l): 1}
            for name in alpha_names(g):
                terms[mono(**{name: l})] = -1
            c = FactoredRat(SparsePoly(terms))
            c = c * atom_inverse(1, mono(q=l)).mul_scalar(Fraction(-1, l))
            coeffs.append(c.normalize())
        rhs = series_exp(BiSeries("s", L, coeffs))
        assert torsion_volume_series(g, L) == rhs

    @pytest.mark.parametrize("g", [0, 1])
    def test_finite_product_converges(self, g):
        # ∏_{i≤L} ζ(q^{-i}s) approaches the series with error O(q^{-L})
        L = 6
        point = curve_point(g, q=4.0, seed=9)
        finite = BiSeries.one("s", L)
        for i in range(1, L + 1):
            finite = finite * frac_to_series(
                zeta_at(g, 1, mono(q=-i, s=1)), "s", L)
        exact = torsion_volume_series(g, L)
        for l in range(1, L + 1):
            a = eval_numeric(finite.coefficient(l), point)
            b = eval_numeric(exact.coefficient(l), point)
            assert abs(a - b) < 30.0 * 4.0 ** (-L) * max(1.0, abs(b))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            torsion_volume_series(1, 0)


class TestPairReduceOneMap:
    """pair_reduce makes the g root substitutions as one monomial map with
    one normalize; pair_reduce_by_roots makes them one at a time with a
    normalize after each.  Byte equality where no atom can cancel in
    another order, value equality where even roots sit in the atoms."""

    @staticmethod
    def _same_bytes(f, g):
        got = pair_reduce(f, g)
        want = pair_reduce_by_roots(f, g)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())

    def test_j_factor_values(self):
        for g in range(4):
            seen = set()
            for k in range(1, 5):
                for lam in partitions_of(k):
                    seen.update(box_stats(lam))
            for arm, leg in sorted(seen):
                self._same_bytes(zeta_star(g, 1 + leg, arm), g)

    def test_lifted_kac_goldens(self):
        keys = [*test_pipeline.TestEngineVersion.KAC,
                *(tuple(map(int, key.split()))
                  for key in test_pipeline.TestPinnedRanks4And5.KAC)]
        for g, r, d in keys:
            lifted = kac_polynomial(g, r, d).lifted
            assert lifted is not None, (g, r, d)
            self._same_bytes(FactoredRat(lifted), g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_denominator_free(self, g, data):
        names = st.sampled_from(alpha_names(g) + ["q", "z"])
        exps = st.dictionaries(names, st.integers(min_value=-4, max_value=4),
                               max_size=4)
        coeffs = st.sampled_from((1, -1, 3, Fraction(2, 3)))
        num = SparsePoly([(Monomial(e), c) for e, c in data.draw(
            st.lists(st.tuples(exps, coeffs), min_size=1, max_size=6))])
        pre = Monomial(data.draw(exps))
        self._same_bytes(FactoredRat(num.mul_monomial(pre)), g)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=3), st.data())
    def test_even_root_atoms_same_value(self, g, data):
        names = st.sampled_from(alpha_names(g) + ["q", "z"])
        exps = st.dictionaries(names, st.integers(min_value=-2, max_value=2),
                               max_size=3)
        num = SparsePoly([(Monomial(e), c) for e, c in data.draw(
            st.lists(st.tuples(exps, st.sampled_from((1, -1, 2))),
                     min_size=1, max_size=4))])
        shapes = data.draw(st.lists(exps.filter(lambda e: any(e.values())), max_size=3))
        f = FactoredRat(num.mul_monomial(Monomial(data.draw(exps))))
        for shape in shapes:
            f = f * atom_inverse(data.draw(st.sampled_from((1, -1, 2))),
                                 Monomial(shape))
        try:
            want = pair_reduce_by_roots(f, g)
        except SubstitutionToZeroPole:
            with pytest.raises(SubstitutionToZeroPole):
                pair_reduce(f, g)
            return
        assert pair_reduce(f, g) == want

    def test_exponent_overflow_raises(self):
        top = LIMIT - 1
        # the q field collects one move per pair: after three moves it
        # would pass a single check although it wrapped past 2**24
        for g, exps in ((1, dict(q=top, a2=1)),
                        (3, dict(q=top, a2=top, a4=top, a6=top))):
            f = FactoredRat(SparsePoly([(Monomial(exps), 1),
                                        (ONE_MONOMIAL, 1)]))
            with pytest.raises(ExponentOverflow):
                pair_reduce_by_roots(f, g)
            with pytest.raises(ExponentOverflow):
                pair_reduce(f, g)
        _, _, atom = Atom.make(1, Monomial.of(a1=-top, a2=top))
        f = FactoredRat(SparsePoly.one(), (atom,))
        with pytest.raises(ExponentOverflow):
            pair_reduce(f, 1)


def _at(p, q, c):
    """p, a polynomial in q and e1..eg, at q and e_j = c[j]."""
    subs = [("q", q, ONE_MONOMIAL)] + [
        (coeff_name(j), c[j], ONE_MONOMIAL) for j in range(1, len(c) // 2 + 1)]
    return FactoredRat(p).substitute_all(subs).numerator.terms.get(0, 0)


def _poly_coefficients(roots):
    """The coefficients of ∏ (1 - x u) over roots, lowest first."""
    c = [Fraction(1)]
    for x in roots:
        c = [a - x * b for a, b in zip(c + [0], [0] + c)]
    return c


class TestZetaNumeratorCoordinates:
    """ψ_k in the coordinates c_1..c_g of P(u) = ∏(1 - α_i u)."""

    @pytest.mark.parametrize("g", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_adams_coefficient_is_the_root_expansion(self, g, k):
        # ψ_k(c_j) against the j-th coefficient of ∏_i (1 - α_i^k u) over
        # all 2g roots, both pair-reduced
        c = [FactoredRat.one()]
        for name in alpha_names(g):
            x = FactoredRat.from_monomial(mono(**{name: k}))
            c = [a - x * b for a, b in zip(c + [FactoredRat.zero()],
                                           [FactoredRat.zero()] + c)]
        for j in range(g + 1):
            got = zeta.to_roots(FactoredRat(zeta.adams_coefficient(g, k, j)),
                                g)
            assert got == pair_reduce(c[j], g), (g, k, j)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3), st.integers(1, 4), st.integers(2, 9),
           st.lists(st.integers(-6, 6).filter(bool), min_size=3, max_size=3))
    def test_adams_hook_at_a_point(self, g, k, q, odd):
        # at σ_1..σ_g and their partners q/σ_i: c from the roots, ψ_k(c_j)
        # from the k-th powers, and the hook on c_j^2 q s
        roots = [x for s in odd[:g] for x in (Fraction(s), Fraction(q, s))]
        c = _poly_coefficients(roots)
        want = _poly_coefficients([x ** k for x in roots])
        for j in range(g + 1):
            assert _at(zeta.adams_coefficient(g, k, j), q, c) == want[j]
            f = FactoredRat(SparsePoly({mono(q=1, s=1, **(
                {coeff_name(j): 2} if j else {})): 1}))
            got = zeta.lift_adams(g, f, k)
            assert got.numerator.split("s").keys() == {k}
            assert _at(got.numerator.mul_monomial(mono(s=-k)), q, c) \
                == want[j] ** 2 * q ** k

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(2, 9),
           st.lists(st.integers(-50, 50), min_size=4, max_size=4),
           st.integers(1, 12))
    def test_power_sums_match_the_curve(self, g, q, low, n):
        # any integers c_1..c_g, completed by the functional equation
        a = [1] + low[:g]
        a += [q ** (g - k) * a[k] for k in range(g - 1, -1, -1)]
        curve = CurveData(q, g, (), tuple(a))
        want = power_sums(curve, n)
        for m in range(1, n + 1):
            assert _at(zeta.coefficient_power_sum(g, m), q, a) == want[m]

    def test_coefficients_are_palindromic(self):
        c = zeta.zeta_coefficients(2)
        assert [repr(p) for p in c] == ["1", "1*e1", "1*e2", "1*q*e1",
                                        "1*q^2"]
