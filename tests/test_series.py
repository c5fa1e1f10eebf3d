"""Series layer: ordinary log/exp, plethystic Exp/Log, z-truncation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from census import pipeline
from census.errors import NotAugmented, NotUnitConstantTerm
from census.partitions import partitions_of
from census.ring import Atom, FactoredRat, Monomial, SparsePoly
from census.series import (
    BiSeries,
    LazyLog,
    _times,
    mobius,
    pleth_exp,
    pleth_log,
    series_exp,
    z_decompose,
    z_truncate_frac,
)

from builders import (
    const,
    geometric,
    series,
    series_log,
    z_truncate_by_geometric,
)


def fr(*terms):
    """FactoredRat polynomial from (coeff, **exps)-style term specs."""
    d = {}
    for coeff, exps in terms:
        m = Monomial.of(**exps)
        d[m] = d.get(m, 0) + coeff
    return FactoredRat(SparsePoly(d))


def T_series(*coeffs):
    return series(
        "T", [c if isinstance(c, FactoredRat) else const(c) for c in coeffs])


ZERO = FactoredRat.zero()
ONE = FactoredRat.one()


class TestZTruncation:
    def test_geometric(self):
        f = geometric(1, z=1)  # 1/(1-z)
        t = z_truncate_frac(f, 4)
        assert t == fr(*((1, {"z": k}) for k in range(5)))

    def test_mixed(self):
        # (1 + q z^3) / (1 - z^2) through degree 5
        f = fr((1, {}), (1, {"q": 1, "z": 3})) * geometric(1, z=2)
        t = z_truncate_frac(f, 5)
        assert t == fr((1, {}), (1, {"z": 2}), (1, {"z": 4}),
                       (1, {"q": 1, "z": 3}), (1, {"q": 1, "z": 5}))

    def test_keeps_z_free_denominator(self):
        f = geometric(1, q=1) * fr((1, {"z": 2}))
        t = z_truncate_frac(f, 3)
        assert t == f

    def test_drops_everything(self):
        f = fr((1, {"z": 4}))
        assert z_truncate_frac(f, 3).is_zero()

    def test_laurent_prefactor(self):
        # z^-1/(1-z) = z^-1 + 1 + z + ...
        f = geometric(1, z=1) * FactoredRat.from_monomial(Monomial.of(z=-1))
        t = z_truncate_frac(f, 1)
        assert t == fr((1, {"z": -1}), (1, {}), (1, {"z": 1}))

    @given(st.integers(min_value=0, max_value=8))
    def test_idempotent(self, d):
        f = geometric(1, q=1, z=1) * fr((1, {}), (3, {"z": 2}))
        once = z_truncate_frac(f, d)
        assert z_truncate_frac(once, d) == once

    @given(st.integers(min_value=-1, max_value=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_geometric_expansion(self, bound, data):
        f = data.draw(mixed_fracs())
        got = z_truncate_frac(f, bound)
        want = z_truncate_by_geometric(f, bound)
        assert got == want
        assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_lambda_terms_match_geometric_expansion(self, g):
        D = (g - 1) * 6 + 8     # the oracle's z-order at rank 3
        for n in (1, 2, 3):
            for lam in partitions_of(n):
                f = pipeline._lambda_term(g, lam)
                got = z_truncate_frac(f, D)
                want = z_truncate_by_geometric(f, D)
                assert got == want, (g, lam)
                assert got.to_json() == want.to_json(), (g, lam)

    def test_decompose(self):
        f = fr((2, {"z": 1}), (1, {"q": 1, "z": 1}), (5, {"z": 3}))
        parts = z_decompose(f)
        assert set(parts) == {1, 3}
        assert parts[1] == fr((2, {}), (1, {"q": 1}))
        assert parts[3] == const(5)

    def test_decompose_rejects_z_denominator(self):
        with pytest.raises(ValueError):
            z_decompose(geometric(1, z=1))

    def test_decompose_reassembles(self):
        f = fr((1, {"z": 2}), (7, {"q": 2}), (-3, {"z": 5, "q": 1}))
        parts = z_decompose(f)
        total = ZERO
        for d, c in parts.items():
            total = total + c * FactoredRat.from_monomial(Monomial.of(z=d))
        assert total == f


class TestOrdinaryLogExp:
    def test_log_one_plus_T(self):
        f = T_series(1, 1, 0, 0, 0)
        got = series_log(f)
        want = T_series(0, 1, Fraction(-1, 2), Fraction(1, 3),
                        Fraction(-1, 4))
        assert got == want

    def test_log_of_one(self):
        assert series_log(BiSeries.one("T", 3)).is_zero()

    def test_log_requires_unit(self):
        with pytest.raises(NotUnitConstantTerm):
            series_log(T_series(2, 1))

    def test_exp_requires_augmented(self):
        with pytest.raises(NotAugmented):
            series_exp(T_series(1, 1))

    def test_exp_of_T(self):
        got = series_exp(T_series(0, 1, 0, 0))
        want = T_series(1, 1, Fraction(1, 2), Fraction(1, 6))
        assert got == want

    @given(st.lists(st.integers(min_value=-3, max_value=3),
                    min_size=5, max_size=5))
    @settings(max_examples=30)
    def test_round_trip(self, tail):
        f = T_series(0, *tail)
        assert series_log(series_exp(f)) == f


def small_fracs():
    dens = st.sampled_from([
        None,
        geometric(1, z=1),
        geometric(1, q=1, z=1),
        geometric(1, q=1),
    ])
    polys = st.lists(
        st.tuples(st.integers(min_value=-2, max_value=2),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=0, max_value=2)),
        min_size=0, max_size=2)

    def build(parts, den):
        f = fr(*((c, {"a1": e1, "z": e2}) for c, e1, e2 in parts))
        if den is not None:
            f = f * den
        return f.normalize()

    return st.builds(build, polys, dens)


def augmented_series(order):
    return st.builds(
        lambda tail: series("T", [ZERO] + tail),
        st.lists(small_fracs(), min_size=order, max_size=order))


def unit_series(order):
    return st.builds(
        lambda tail: series("T", [ONE] + tail),
        st.lists(small_fracs(), min_size=order, max_size=order))


class TestPlethystic:
    def test_exp_of_T_is_geometric(self):
        got = pleth_exp(T_series(0, 1, 0, 0, 0, 0))
        assert got == T_series(1, 1, 1, 1, 1, 1)

    def test_exp_of_scalar_multiple(self):
        a1 = fr((1, {"a1": 1}))
        got = pleth_exp(T_series(0, a1, 0, 0))
        want = T_series(1, a1, fr((1, {"a1": 2})), fr((1, {"a1": 3})))
        assert got == want

    def test_log_of_geometric(self):
        got = pleth_log(T_series(1, 1, 1, 1, 1))
        assert got == T_series(0, 1, 0, 0, 0)

    def test_log_requires_unit(self):
        with pytest.raises(NotUnitConstantTerm):
            pleth_log(T_series(0, 1))

    def test_exp_requires_augmented(self):
        with pytest.raises(NotAugmented):
            pleth_exp(T_series(1, 1))

    @given(augmented_series(4), augmented_series(4))
    @settings(max_examples=15, deadline=None)
    def test_exp_additive_to_multiplicative(self, f, g):
        assert pleth_exp(f + g) == pleth_exp(f) * pleth_exp(g)

    @given(unit_series(4), unit_series(4))
    @settings(max_examples=15, deadline=None)
    def test_log_multiplicative_to_additive(self, f, g):
        assert pleth_log(f * g) == pleth_log(f) + pleth_log(g)

    @given(augmented_series(5))
    @settings(max_examples=15, deadline=None)
    def test_log_exp_round_trip(self, f):
        assert pleth_log(pleth_exp(f)) == f

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=20, deadline=None)
    def test_round_trip_all_small_orders(self, order, data):
        f = data.draw(augmented_series(order))
        assert pleth_log(pleth_exp(f)) == f
        g = pleth_exp(f)
        assert pleth_exp(pleth_log(g)) == g


class TestTruncatedMode:
    """The series oracle's truncated mode, LazyLog over the z-truncated
    coefficients of F with F_0 = 1, and the augmentation check that a
    z-positive constant term still meets in the rational mode."""

    def test_augmentation_checks_z_constant(self):
        bad = series("T", [fr((1, {}), (1, {"z": 1})), ZERO])
        with pytest.raises(NotAugmented):
            pleth_exp(bad)

    @given(unit_series(4))
    @settings(max_examples=10, deadline=None)
    def test_log_commutes_with_z_truncation(self, f):
        D = 8
        lazy = LazyLog(lambda j: z_truncate_frac(f.coeffs[j], D), D)
        want = pleth_log(f)
        for n in range(1, f.order + 1):
            assert lazy.pleth_coefficient(n) == \
                z_truncate_frac(want.coefficient(n), D)


class TestMobius:
    def test_values(self):
        assert [mobius(k) for k in range(1, 13)] == \
            [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]

    def test_divisor_sums(self):
        for k in range(1, 61):
            total = sum(mobius(d) for d in range(1, k + 1) if k % d == 0)
            assert total == (1 if k == 1 else 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mobius(0)


class TestSeriesPlumbing:
    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BiSeries.one("T", 2) * BiSeries.one("s", 2)

    def test_adams_scales_degrees(self):
        f = T_series(0, fr((1, {"q": 1})), 0, 0, 0, 0, 0)
        g = f.adams(3)
        assert g.coeffs[3] == fr((1, {"q": 3}))
        assert all(g.coeffs[j].is_zero() for j in (0, 1, 2, 4, 5, 6))

    def test_coefficient_bounds(self):
        f = T_series(1, 2)
        assert f.coefficient(1) == const(2)
        with pytest.raises(ValueError):
            f.coefficient(2)


def _log_by_powers(f):
    """Reference: the power loop Σ_{m>=1} (-1)^(m+1) u^m/m, u = f - 1,
    that series_log replaced.  An augmented u raised past the order
    truncates to zero."""
    u = series(f.var, [ZERO] + list(f.coeffs[1:]))
    result = BiSeries.zero(f.var, f.order)
    power = BiSeries.one(f.var, f.order)
    for m in range(1, f.order + 2):
        power = power * u
        if power.is_zero():
            break
        result = result + power.mul_scalar(Fraction((-1) ** (m + 1), m))
    return result


def qza_fracs():
    """Small fractions over q, z and a1."""
    dens = st.sampled_from(
        [None, geometric(1, q=1), geometric(-2, a1=1, q=1), geometric(1, z=1),
         geometric(1, q=1, z=2)])
    polys = st.lists(
        st.tuples(st.integers(min_value=-3, max_value=3),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=-1, max_value=1)),
        min_size=0, max_size=3)

    def build(parts, den):
        f = fr(*((c, {"q": eq, "z": ez, "a1": ea}) for c, eq, ez, ea in parts))
        return (f if den is None else f * den).normalize()

    return st.builds(build, polys, dens)


_MIXED_ATOMS = [Atom.make(c, Monomial.of(**e))[2] for c, e in [
    (1, {"q": 1}), (-1, {"q": 2}), (2, {"a1": 1, "q": 1}),
    (Fraction(1, 2), {"a1": -1, "q": 2}), (1, {"z": 1}), (-1, {"z": 2}),
    (3, {"q": 1, "z": 1}), (1, {"a1": -1, "z": 1}), (-2, {"q": -1, "z": 3})]]


@st.composite
def mixed_fracs(draw):
    """Fractions over q, z and a1 with a z-Laurent monomial factor, and
    denominator atoms drawn from z-free ones and ones in z, interleaved in
    Atom.key order and possibly repeated."""
    terms = draw(st.lists(
        st.tuples(st.sampled_from([-3, -1, 1, 2, Fraction(1, 3)]),
                  st.integers(min_value=0, max_value=2),
                  st.integers(min_value=0, max_value=4),
                  st.integers(min_value=-1, max_value=1)),
        min_size=1, max_size=5))
    num = SparsePoly([(Monomial.of(q=eq, z=ez, a1=ea), c)
                      for c, eq, ez, ea in terms])
    for atom in draw(st.lists(st.sampled_from(_MIXED_ATOMS), max_size=3)):
        num = num.mul_atom(atom)
    den = draw(st.lists(st.sampled_from(_MIXED_ATOMS), max_size=4))
    pre = Monomial.of(z=draw(st.integers(min_value=-1, max_value=2)))
    return FactoredRat(num.mul_monomial(pre), den).normalize()


class TestTruncatedProduct:
    """_times in the z-truncated mode forms only the terms within the
    bound; its value equals the whole product truncated."""

    @given(st.integers(min_value=0, max_value=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_truncated_whole_product(self, D, data):
        a = z_truncate_frac(data.draw(mixed_fracs()), D)
        b = z_truncate_frac(data.draw(mixed_fracs()), D)
        assert _times(a, b, D) == z_truncate_frac(a * b, D)


class TestLogRecurrence:
    """series_log (the logarithmic-derivative recurrence) equals the power
    loop it replaced, exactly."""

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_rational_mode_matches_power_loop(self, order, data):
        tail = data.draw(st.lists(qza_fracs(), min_size=order,
                                  max_size=order))
        f = series("T", [ONE] + tail)
        assert series_log(f) == _log_by_powers(f)


def _pleth_log_by_adams(f):
    """Reference: the whole-series sum Σ_k μ(k)/k ψ_k(log f) that the
    per-degree extraction (LazyLog.pleth_coefficient) replaced."""
    g = series_log(f)
    acc = BiSeries.zero(f.var, f.order)
    for k in range(1, f.order + 1):
        mu = mobius(k)
        if mu:
            acc = acc + g.adams(k).mul_scalar(Fraction(mu, k))
    return acc


class TestPlethLogExtraction:
    """[T^n] Log f read as Σ_{k|n} μ(k)/k ψ_k(L_{n/k}) equals the
    whole-series sum it replaced, for every n, whether the recurrence is
    grown to the top at once or one degree at a time."""

    @staticmethod
    def check(f):
        want = _pleth_log_by_adams(f)
        lazy = LazyLog(f.coeffs.__getitem__)
        for n in reversed(range(f.order + 1)):
            assert lazy.pleth_coefficient(n) == want.coefficient(n)
        assert pleth_log(f) == want

    @given(st.integers(min_value=1, max_value=6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_rational_mode(self, order, data):
        tail = data.draw(st.lists(qza_fracs(), min_size=order,
                                  max_size=order))
        self.check(series("T", [ONE] + tail))

    @given(st.integers(min_value=0, max_value=4),
           st.integers(min_value=1, max_value=5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_truncated_mode(self, D, order, data):
        # the oracle's mode: the z-truncated coefficients, F_0 = 1
        tail = data.draw(st.lists(qza_fracs(), min_size=order,
                                  max_size=order))
        f = series("T", [ONE] + tail)
        want = _pleth_log_by_adams(f)
        lazy = LazyLog(lambda j: z_truncate_frac(f.coeffs[j], D), D)
        for n in reversed(range(f.order + 1)):
            assert lazy.pleth_coefficient(n) == \
                z_truncate_frac(want.coefficient(n), D)
