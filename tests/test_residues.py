"""Kernels, chain residues, H-weights: exact values, numeric contours."""

import cmath
import random
from fractions import Fraction
from itertools import permutations

import pytest

from census.errors import HigherOrderPole
from census.partitions import Partition, partitions_up_to
from census.residues import (
    ChainSpec,
    build_L,
    chain_spec,
    h_factor,
    h_tilde,
    res_simple,
    specialize_leaders,
    _rho,
)
from census.ring import (
    Atom,
    FactoredRat,
    Monomial,
    ONE_MONOMIAL,
    SparsePoly,
    atom_inverse,
)
from census.zeta import alpha_names, pair_reduce, paired_point, zeta_tilde

from builders import const


def mono(**e):
    return Monomial.of(**e)


def P(*parts):
    return Partition(parts)


# ---------------------------------------------------------------- numeric

def rho_num(alphas, q, w):
    num = q - w
    den = 1 - q * w
    for a in alphas:
        num *= (1 - a * w)
        den *= (w - a)
    return num / den


def L_num(alphas, q, zs):
    """Direct per-permutation evaluation of the kernel definition."""
    n = len(zs)
    total = 0
    for sigma in permutations(range(1, n + 1)):
        term = 1 / (1 - zs[sigma[0] - 1])
        for i in range(n - 1):
            term /= (1 - q * zs[sigma[i + 1] - 1] / zs[sigma[i] - 1])
        for i in range(n):
            for j in range(i + 1, n):
                if sigma[i] > sigma[j]:
                    term *= rho_num(alphas, q,
                                    zs[sigma[i] - 1] / zs[sigma[j] - 1])
        total += term
    return total


def circle_integral(fn, center, radius=0.04, nodes=64):
    """(1/2πi) ∮ fn(u) du over the circle around center."""
    total = 0
    for k in range(nodes):
        w = cmath.exp(2j * cmath.pi * k / nodes)
        total += fn(center + radius * w) * w
    return total * radius / nodes


def weil_point(q, g, rng, lo=0.55, hi=0.75):
    """A paired_point with random odd roots: the kernels are pair-reduced,
    so they agree with their definitions only where a_{2i-1}·a_{2i} = q."""
    return paired_point(q, [cmath.rect(rng.uniform(lo, hi),
                                       rng.uniform(0, 6.28))
                            for _ in range(g)])


def alphas_at(point, g):
    return [point[name] for name in alpha_names(g)]


def sample_point(g, seed):
    """(point, alphas, z1) with point holding q and the paired roots."""
    rng = random.Random(seed)
    point = weil_point(2.2 + 0.4j, g, rng)
    z1 = cmath.rect(rng.uniform(0.3, 0.5), rng.uniform(0, 6.28))
    return point, alphas_at(point, g), z1


def kernel_residue(g, lam):
    """Res_λ of the whole symmetrized kernel."""
    return h_tilde(build_L(g, lam.length()).fraction, lam)


# ---------------------------------------------------------------- res_simple

class TestResSimple:
    def test_pole_at_one(self):
        f = atom_inverse(1, mono(u1=1))
        got = res_simple(f, "u1", 1)
        assert got == const(-1)

    def test_regular_point(self):
        f = atom_inverse(1, mono(q=1, u1=1))
        assert res_simple(f, "u1", 1).is_zero()

    def test_pole_at_q_inverse(self):
        f = atom_inverse(1, mono(q=1, u1=1))
        got = res_simple(f, "u1", 1, mono(q=-1))
        assert got == const(-1)

    def test_double_pole_raises(self):
        a = Atom(Fraction(1), mono(q=1, u1=1))
        f = FactoredRat(ONE_MONOMIAL, SparsePoly.one(), (a, a))
        with pytest.raises(HigherOrderPole):
            res_simple(f, "u1", 1, mono(q=-1))

    def test_removable_branch(self):
        # (1-q u)/(1-q²u²) = 1/(1+qu) is regular at u = q^{-1}
        f = (FactoredRat.from_poly(
                SparsePoly({ONE_MONOMIAL: 1, mono(q=1, u1=1): -1}))
             * atom_inverse(1, mono(q=2, u1=2)))
        assert res_simple(f, "u1", 1, mono(q=-1)).is_zero()

    def test_exponent_two_atom(self):
        f = atom_inverse(1, mono(q=2, u1=2))
        got = res_simple(f, "u1", 1, mono(q=-1))
        assert got == const(Fraction(-1, 2))

    def test_extra_variables_ride_along(self):
        # z1/(1-qu) at u=q^{-1} -> -z1
        f = (FactoredRat.from_monomial(mono(z1=1))
             * atom_inverse(1, mono(q=1, u1=1)))
        got = res_simple(f, "u1", 1, mono(q=-1))
        assert got == FactoredRat.from_monomial(mono(z1=1)).mul_scalar(-1)

    def test_bad_arguments(self):
        f = atom_inverse(1, mono(u1=1))
        with pytest.raises(ValueError):
            res_simple(f, "u1", 0)
        with pytest.raises(ValueError):
            res_simple(f, "u1", 1, mono(u1=1))


# ---------------------------------------------------------------- kernels

class TestBuildL:
    def test_n1(self):
        k = build_L(1, 1)
        assert k.fraction == atom_inverse(1, mono(z1=1))
        assert len(k.fraction.denominator) == 1

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            build_L(1, 0)

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_n2_denominator_shapes(self, g):
        k = build_L(g, 2)
        for atom in k.fraction.denominator:
            zpart = [(v, e) for v, e in atom.shape.items
                     if v.startswith("z")]
            assert (len(zpart) == 1 and zpart[0][1] == 1) or (
                len(zpart) == 2 and sorted(e for _, e in zpart) == [-1, 1])

    @pytest.mark.parametrize("g,n", [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3)])
    def test_matches_direct_evaluation(self, g, n):
        rng = random.Random(100 * g + n)
        q = 2.3 + 0.5j
        point = weil_point(q, g, rng, 0.5, 0.8)
        zs = [cmath.rect(rng.uniform(0.3, 0.5), rng.uniform(0, 6.28))
              for _ in range(n)]
        for i, z in enumerate(zs, 1):
            point["z%d" % i] = z
        got = build_L(g, n).fraction.eval_numeric(point)
        want = L_num(alphas_at(point, g), q, zs)
        assert abs(got - want) < 1e-9 * abs(want)

    @pytest.mark.parametrize("g,n", [(0, 2), (1, 2), (0, 3)])
    def test_symmetrized_sum_is_permutation_invariant(self, g, n):
        # L·∏_{i<j} ζ̃(z_i/z_j) is the plain S_n sum, hence symmetric
        rng = random.Random(17 * g + n)
        roots = weil_point(2.1 + 0.3j, g, rng, 0.5, 0.8)
        zs = [cmath.rect(rng.uniform(0.3, 0.5), rng.uniform(0, 6.28))
              for _ in range(n)]

        def symmetrized(zvals):
            point = dict(roots)
            for i, z in enumerate(zvals, 1):
                point["z%d" % i] = z
            val = build_L(g, n).fraction.eval_numeric(point)
            zt = zeta_tilde(g, 1, mono(s=1))
            for i in range(n):
                for j in range(i + 1, n):
                    spoint = dict(point, s=zvals[i] / zvals[j])
                    val *= zt.eval_numeric(spoint)
            return val

        base = symmetrized(zs)
        for perm in permutations(zs):
            assert abs(symmetrized(list(perm)) - base) < 1e-8 * abs(base)

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_rho_is_zeta_tilde_ratio(self, g):
        rng = random.Random(g + 40)
        point = weil_point(1.9 + 0.6j, g, rng, 0.5, 0.8)
        point.update(z1=0.4 + 0.2j, z2=0.7 - 0.3j)
        w = point["z2"] / point["z1"]
        zt = zeta_tilde(g, 1, mono(s=1))
        want = (zt.eval_numeric(dict(point, s=w))
                / zt.eval_numeric(dict(point, s=1 / w)))
        got = _rho(g, 2, 1).eval_numeric(point)
        assert abs(got - want) < 1e-9 * abs(want)


# ---------------------------------------------------------------- chain spec

class TestChainSpec:
    def test_structure(self):
        spec = chain_spec(P(2, 1, 1))
        assert len(spec.blocks) == 2
        b1, b2 = spec.blocks
        assert (b1.part, b1.leader, b1.ratios) == (1, 1, (1,))
        assert (b2.part, b2.leader, b2.ratios) == (2, 3, ())
        assert spec.constraint_count == 1

    def test_counts(self):
        for lam in partitions_up_to(6):
            if lam.size() == 0:
                continue
            spec = chain_spec(lam)
            assert spec.constraint_count == lam.length() - len(spec.blocks)


# ---------------------------------------------------------------- h_tilde

def expected_h11(g):
    """1/(1-z1) - ∏(q-α)/(q ∏(1-qα) (1-z1/q))"""
    term1 = atom_inverse(1, mono(z1=1))
    num = SparsePoly.one()
    dens = [Atom(Fraction(1), mono(q=-1, z1=1))]
    for name in alpha_names(g):
        num = num * SparsePoly({mono(q=1): 1, mono(**{name: 1}): -1})
        dens.append(Atom(Fraction(1), mono(q=1, **{name: 1})))
    term2 = FactoredRat(mono(q=-1), num, tuple(dens)).mul_scalar(-1)
    return term1 + term2


class TestHTilde:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            h_tilde(build_L(1, 1).fraction, P())

    @pytest.mark.parametrize("g", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_single_part(self, g, m):
        assert kernel_residue(g, P(m)) == atom_inverse(1, mono(z1=1))

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_two_ones(self, g):
        assert kernel_residue(g, P(1, 1)) == pair_reduce(expected_h11(g), g)

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_two_one_is_plain_kernel(self, g):
        assert kernel_residue(g, P(2, 1)) == build_L(g, 2).fraction

    def test_contour_oracle(self):
        # all |λ| ≤ 3 against small-circle contour integrals, 20 samples
        for seed in range(20):
            g = seed % 3
            point, alphas, z1 = sample_point(g, seed)
            q = point["q"]
            point["z1"] = z1

            def L_at(zs):
                return L_num(alphas, q, zs)

            # n = 1 shapes: no residues at all
            direct = L_at([z1])
            for lam in (P(1), P(2), P(3)):
                got = kernel_residue(g, lam).eval_numeric(point)
                assert abs(got - direct) < 1e-6 * abs(direct)

            # (1,1): one residue in u1 = z2/z1 at q^{-1}, orientation
            # flips the sign once
            got = kernel_residue(g, P(1, 1)).eval_numeric(point)
            want = -circle_integral(
                lambda u: L_at([z1, z1 * u]) / u, 1 / q)
            assert abs(got - want) < 1e-6 * max(1.0, abs(want))

            # (2,1): no constraints, two leaders
            z2 = z1 * (0.8 + 0.3j)
            got = kernel_residue(g, P(2, 1)).eval_numeric(dict(point, z2=z2))
            want = L_at([z1, z2])
            assert abs(got - want) < 1e-6 * abs(want)

            # (1,1,1): nested residues, top of chain first
            if g <= 1:
                got = kernel_residue(g, P(1, 1, 1)).eval_numeric(point)
                want = circle_integral(
                    lambda u1: circle_integral(
                        lambda u2: L_at([z1, z1 * u1, z1 * u1 * u2]) / u2,
                        1 / q) / u1,
                    1 / q)
                assert abs(got - want) < 1e-6 * max(1.0, abs(want))


# ---------------------------------------------------------------- h_factor

class TestHFactor:
    def test_empty(self):
        assert h_factor(1, P()) == FactoredRat.one()

    @pytest.mark.parametrize("g", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_single_part_geometric(self, g, m):
        assert h_factor(g, P(m)) == atom_inverse(1, mono(z=m))

    @pytest.mark.parametrize("g", [0, 1])
    def test_two_ones(self, g):
        want = pair_reduce(expected_h11(g), g).substitute("z1", 1, mono(z=1))
        assert h_factor(g, P(1, 1)) == want

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_two_one_numeric(self, g):
        # leaders: z1 -> z, z2 -> z² q^{-1}
        point, alphas, z = sample_point(g, 31 + g)
        q = point["q"]
        point["z"] = z
        got = h_factor(g, P(2, 1)).eval_numeric(point)
        want = L_num(alphas, q, [z, z * z / q])
        assert abs(got - want) < 1e-9 * abs(want)

    def test_blocks_with_gap(self):
        # λ=(3,1): blocks are sizes 1 and 3; leaders z1 -> z, z2 -> z³ q^{-1}
        g = 1
        point, alphas, z = sample_point(g, 77)
        q = point["q"]
        point["z"] = z
        got = h_factor(g, P(3, 1)).eval_numeric(point)
        want = L_num(alphas, q, [z, z ** 3 / q])
        assert abs(got - want) < 1e-9 * abs(want)

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_summands_match_kernel_route(self, g):
        # the main route takes residues summand by summand; the reference
        # puts the whole kernel through the same residues and specialization
        lams = [lam for lam in partitions_up_to(5)
                if 0 < lam.length() <= 3]
        if g == 0:
            lams.append(P(1, 1, 1, 1))
        for lam in lams:
            want = specialize_leaders(kernel_residue(g, lam), lam)
            assert h_factor(g, lam) == want, lam
