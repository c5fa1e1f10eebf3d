"""Kernels, chain residues, H-weights: exact values, numeric contours."""

import cmath
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from census import residues
from census.errors import HigherOrderPole, SubstitutionToZeroPole
from census.partitions import Partition, partitions_up_to
from census.residues import build_L, h_factor
from census.ring import (
    Atom,
    FactoredRat,
    Monomial,
    ONE_MONOMIAL,
    SparsePoly,
    atom_inverse,
)
from census.zeta import alpha_names, pair_reduce

from builders import (
    const,
    eval_numeric,
    h_tilde,
    kernel_summand,
    paired_point,
    res_simple,
    rho,
    specialize_leaders,
    zeta_tilde,
)


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
    """Res_λ of the whole symmetrized kernel, by the fraction reference."""
    return h_tilde(build_L(g, lam.length()).fraction, lam)


def list_route(g, sigma, lam):
    """The specialized Res_λ K_σ of the main route, multiplied out."""
    term = residues.h_tilde(residues._summand(g, sigma), lam, sigma)
    if term is not None:
        term = residues._specialize(term, lam)
    return FactoredRat.zero() if term is None else residues._expand(term)


def factor_list(*factors):
    """The factor list of ∏ (1 - c*m)^k over (k, c, exponents) triples."""
    return Fraction(1), ONE_MONOMIAL, {Atom(Fraction(c), mono(**e)): k
                                       for k, c, e in factors}


# ---------------------------------------------------------------- res_simple

class TestResSimple:
    def test_pole_at_one(self):
        f = atom_inverse(1, mono(z2=1))
        got = res_simple(f, "z2")
        assert got == const(-1)

    def test_regular_point(self):
        f = atom_inverse(1, mono(q=1, z2=1))
        assert res_simple(f, "z2").is_zero()

    def test_pole_at_q_inverse(self):
        f = atom_inverse(1, mono(q=1, z2=1))
        got = res_simple(f, "z2", mono(q=-1))
        assert got == const(-1)

    def test_double_pole_raises(self):
        a = Atom(Fraction(1), mono(q=1, z2=1))
        f = FactoredRat(SparsePoly.one(), (a, a))
        with pytest.raises(HigherOrderPole):
            res_simple(f, "z2", mono(q=-1))

    def test_removable_branch(self):
        # (1-q z2)/(1-q²z2²) = 1/(1+q z2) is regular at z2 = q^{-1}
        f = (FactoredRat(
                SparsePoly({ONE_MONOMIAL: 1, mono(q=1, z2=1): -1}))
             * atom_inverse(1, mono(q=2, z2=2)))
        assert res_simple(f, "z2", mono(q=-1)).is_zero()

    def test_exponent_two_atom(self):
        f = atom_inverse(1, mono(q=2, z2=2))
        got = res_simple(f, "z2", mono(q=-1))
        assert got == const(Fraction(-1, 2))

    def test_extra_variables_ride_along(self):
        # z1/(1-q z2) at z2=q^{-1} -> -z1
        f = (FactoredRat.from_monomial(mono(z1=1))
             * atom_inverse(1, mono(q=1, z2=1)))
        got = res_simple(f, "z2", mono(q=-1))
        assert got == FactoredRat.from_monomial(mono(z1=1)).mul_scalar(-1)

    def test_bad_arguments(self):
        f = atom_inverse(1, mono(z2=1))
        with pytest.raises(ValueError):
            res_simple(f, "z2", mono(z2=1))


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
        got = eval_numeric(build_L(g, n).fraction, point)
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
            val = eval_numeric(build_L(g, n).fraction, point)
            zt = zeta_tilde(g, 1, mono(s=1))
            for i in range(n):
                for j in range(i + 1, n):
                    spoint = dict(point, s=zvals[i] / zvals[j])
                    val *= eval_numeric(zt, spoint)
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
        want = (eval_numeric(zt, dict(point, s=w))
                / eval_numeric(zt, dict(point, s=1 / w)))
        got = eval_numeric(rho(g, 2, 1), point)
        assert abs(got - want) < 1e-9 * abs(want)
        # the factor list K_(2,1) = ρ(z2/z1) / ((1-z2)(1-q z1/z2))
        chain = (1 - point["z2"]) * (1 - point["q"] / w)
        got = eval_numeric(residues._expand(residues._summand(g, (2, 1))),
                           point)
        assert abs(got * chain - want) < 1e-9 * abs(want)


# ---------------------------------------------------------------- h_tilde

def expected_h11(g):
    """1/(1-z1) - ∏(q-α)/(q ∏(1-qα) (1-z1/q))"""
    term1 = atom_inverse(1, mono(z1=1))
    num = SparsePoly.one()
    dens = [Atom(Fraction(1), mono(q=-1, z1=1))]
    for name in alpha_names(g):
        num = num * SparsePoly({mono(q=1): 1, mono(**{name: 1}): -1})
        dens.append(Atom(Fraction(1), mono(q=1, **{name: 1})))
    term2 = FactoredRat(num.mul_monomial(mono(q=-1)), dens).mul_scalar(-1)
    return term1 + term2


class TestHTilde:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            h_tilde(build_L(1, 1).fraction, P())
        with pytest.raises(ValueError):
            residues.h_tilde(residues._summand(1, (1,)), P())

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
                got = eval_numeric(kernel_residue(g, lam), point)
                assert abs(got - direct) < 1e-6 * abs(direct)

            # (1,1): one residue in u1 = z2/z1 at q^{-1}, orientation
            # flips the sign once
            got = eval_numeric(kernel_residue(g, P(1, 1)), point)
            want = -circle_integral(
                lambda u: L_at([z1, z1 * u]) / u, 1 / q)
            assert abs(got - want) < 1e-6 * max(1.0, abs(want))

            # (2,1): no constraints, two leaders
            z2 = z1 * (0.8 + 0.3j)
            got = eval_numeric(kernel_residue(g, P(2, 1)), dict(point, z2=z2))
            want = L_at([z1, z2])
            assert abs(got - want) < 1e-6 * abs(want)

            # (1,1,1): nested residues, top of chain first
            if g <= 1:
                got = eval_numeric(kernel_residue(g, P(1, 1, 1)), point)
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
        want = pair_reduce(expected_h11(g), g).substitute_all(
            [("z1", 1, mono(z=1))])
        assert h_factor(g, P(1, 1)) == want

    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_two_one_numeric(self, g):
        # leaders: z1 -> z, z2 -> z² q^{-1}
        point, alphas, z = sample_point(g, 31 + g)
        q = point["q"]
        point["z"] = z
        got = eval_numeric(h_factor(g, P(2, 1)), point)
        want = L_num(alphas, q, [z, z * z / q])
        assert abs(got - want) < 1e-9 * abs(want)

    def test_blocks_with_gap(self):
        # λ=(3,1): blocks are sizes 1 and 3; leaders z1 -> z, z2 -> z³ q^{-1}
        g = 1
        point, alphas, z = sample_point(g, 77)
        q = point["q"]
        point["z"] = z
        got = eval_numeric(h_factor(g, P(3, 1)), point)
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

    def test_pinned_bytes(self):
        # exact bytes recorded from the route that took the residues in
        # ratio coordinates z_{k+1}/z_k: the sha256 of the sorted JSON,
        # keyed "g parts"
        for key, digest in H_DIGESTS.items():
            g, parts = key.split()
            lam = Partition(tuple(int(p) for p in parts.split(",")))
            text = json.dumps(h_factor(int(g), lam).to_json(), sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key

    def test_pinned_bytes_beyond_three_parts(self):
        # recorded by hand at commit bc9c21b, whose route multiplied every
        # summand out before its residues: about 70 s for (1,1,1,1) at
        # g = 2 and 4 min for (1,1,1,1,1) at g = 1 there
        for key, digest in H_DIGESTS_WIDE.items():
            g, parts = key.split()
            lam = Partition(tuple(int(p) for p in parts.split(",")))
            text = json.dumps(h_factor(int(g), lam).to_json(), sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key


# ---------------------------------------------------------------- factor lists

Z2_POLE = dict(q=1, z2=1, z1=-1)        # 1 - q z2/z1 vanishes at z2 = z1/q


class TestFactorList:
    @pytest.mark.parametrize("g", [0, 1, 2])
    def test_matches_reference_per_summand(self, g):
        # each summand's residues, specialized and multiplied out, has the
        # bytes of the fraction reference on the expanded K_σ
        lams = [lam for lam in partitions_up_to(4)
                if 0 < lam.length() <= 3]
        if g < 2:
            lams.append(P(1, 1, 1, 1))
        for lam in lams:
            for sigma in permutations(range(1, lam.length() + 1)):
                want = specialize_leaders(
                    h_tilde(kernel_summand(g, sigma), lam), lam)
                got = list_route(g, sigma, lam)
                assert got.to_json() == want.to_json(), (lam, sigma)

    def test_simple_pole(self):
        # Res 1/((1-z1)(1-q z2/z1)) at z2 = z1/q is -1/(1-z1); the
        # orientation of the one constraint flips the sign back
        term = factor_list((-1, 1, Z2_POLE), (-1, 1, dict(z1=1)))
        got = residues._expand(residues.h_tilde(term, P(1, 1)))
        assert got == atom_inverse(1, mono(z1=1))

    def test_exponent_two_pole(self):
        term = factor_list((-1, 1, dict(q=2, z2=2, z1=-2)))
        got = residues._expand(residues.h_tilde(term, P(1, 1)))
        assert got == const(Fraction(1, 2))

    def test_no_pole_gives_zero(self):
        term = factor_list((-1, 1, dict(z2=1)), (1, 1, Z2_POLE))
        assert residues.h_tilde(term, P(1, 1)) is None

    @pytest.mark.parametrize("factors", [
        [(-1, 1, Z2_POLE), (-1, 1, dict(q=2, z2=2, z1=-2))],
        [(-2, 1, Z2_POLE)],
        [(1, 1, Z2_POLE), (-1, 1, dict(q=2, z2=2, z1=-2))],
    ], ids=["two-atoms", "double-atom", "vanishing-numerator"])
    def test_higher_order_pole_raises(self, factors):
        with pytest.raises(HigherOrderPole, match=r"\(2, 1\).*z2"):
            residues.h_tilde(factor_list(*factors), P(1, 1), (2, 1))

    def test_leader_zero_numerator(self):
        term = factor_list((1, 1, dict(z=-1, z1=1)), (-1, 1, dict(z1=1)))
        assert residues._specialize(term, P(1)) is None

    def test_leader_pole_raises(self):
        term = factor_list((-1, 1, dict(z=-1, z1=1)))
        with pytest.raises(SubstitutionToZeroPole):
            residues._specialize(term, P(1))


class TestFrozenTracer:
    def test_install_and_trace_in_a_fresh_interpreter(self):
        # perfbench/tracer.py hooks residues.build_L (memoized),
        # residues.h_tilde and pipeline.h_factor by name; h_factor must
        # reach h_tilde through the module global for the hook to time it.
        # The residue route is entered through its class sums, since
        # kac_polynomial reads the lift
        root = Path(__file__).resolve().parent.parent
        child = ("import json, sys\n"
                 "sys.path[:0] = [%r, %r]\n"
                 "import tracer\n"
                 "from census.pipeline import degree_class_sums\n"
                 "t = tracer.Tracer()\n"
                 "t.install()\n"
                 "t.active = True\n"
                 "degree_class_sums(1, 2)\n"
                 "t.active = False\n"
                 "print(json.dumps([sorted(t.self_times()),\n"
                 "                  tracer.nesting_errors(t.spans)]))\n"
                 % (str(root / "src"), str(root / "perfbench")))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        run = subprocess.run([sys.executable, "-c", child], env=env,
                             timeout=120, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        names, errors = json.loads(run.stdout)
        assert {"residues.h_factor", "residues.h_tilde"} <= set(names)
        assert errors == []


# every λ with ℓ(λ) ≤ 3 and |λ| ≤ 5 at g ≤ 2, and (1,1,1,1) at g ≤ 1
H_DIGESTS = {
    "0 1": "4a93c7dcdd40c99c1bfc5cf6f40c8ed6712da7c3eefdd2ec6afb57d7b4724a74",
    "0 2": "a478944528cf131e6703f457ed562a42a9144d006553a048c9c163fa09a35f0c",
    "0 1,1": "34e9b13343c6cf660bce079e8849f8668da9f5c5c960f6b697d939ed5db54044",
    "0 3": "2c81803446ae18e0b25af96a0af5168efb8f22f52a9fb8a9578b534e9f65305c",
    "0 2,1": "929ab667fb8031d7d2f4ba81d8e1cc788f392532fe8b9baba13a6ad25821f8f4",
    "0 1,1,1": "0150a0c46b4f60a45a96ef2591e915b071556bc98e6bc65bdfc135a7bd36cf71",
    "0 4": "97b8405e3491011a31e6e9b338493a91a4df3a3c8a21702245eaffd261fea9d4",
    "0 3,1": "80220ab13d0a9b65444c1e4145bdffb1055dea8229813c0d56dbd818ad8f9274",
    "0 2,2": "5f8314b262d80dfd42cf31b8b0155a177284f3fa0c78f63b81b59328aed7dc6d",
    "0 2,1,1": "5babf22f86483672cd1ef99febd971da98f4e0b85e1849c730076efacd66128d",
    "0 5": "f66220f2942d200e5c68c495e28651d5cc080bc76c35deea3328b582f7efefb9",
    "0 4,1": "fa7853adcc7f0abae0374765d87b1f57b00f08edb400765f81bb461b8489d1e9",
    "0 3,2": "e1ac09ac77894613c5792c8c06e65d77839049bac3c6a55cb70473062a5dc72d",
    "0 3,1,1": "98b4cd8bc01893f7fe4414d52c911a2ad29560875a429f67475bfb01b0439aed",
    "0 2,2,1": "50b4aa52ade2d1ca78590ef74e277d1a3a155ef4d111d0b1156d76ac3f026a5f",
    "0 1,1,1,1": "7bab30e8b4e46a027f0df34b8973fa6ef3fb2939a95d1e6a2c4367a34528d9b9",
    "1 1": "4a93c7dcdd40c99c1bfc5cf6f40c8ed6712da7c3eefdd2ec6afb57d7b4724a74",
    "1 2": "a478944528cf131e6703f457ed562a42a9144d006553a048c9c163fa09a35f0c",
    "1 1,1": "302d3a18f57aab58dc871d2aa5bbbd42a4d28569736532e314c03f2c6c5fffca",
    "1 3": "2c81803446ae18e0b25af96a0af5168efb8f22f52a9fb8a9578b534e9f65305c",
    "1 2,1": "9f3c5493af1efc17cc039a3f59e68703de7defa3bea0e9552236a663b12aa2fa",
    "1 1,1,1": "23acf597881a9c536522fe9a43c2768707927e2ef68e9d4244e10d834f19dd31",
    "1 4": "97b8405e3491011a31e6e9b338493a91a4df3a3c8a21702245eaffd261fea9d4",
    "1 3,1": "8c13dfc1f4d3e21c9edbc2899eab4e5b87150607348653087f6af41d8a55423c",
    "1 2,2": "ad24f8c62b1fd3972bf52c38c03d254e1add2056ba7d1f74f7ca2d7019bd2550",
    "1 2,1,1": "9098a71b463d2ffab25a4384570083889883c8d122c79cfd3ac9a2ee66329425",
    "1 5": "f66220f2942d200e5c68c495e28651d5cc080bc76c35deea3328b582f7efefb9",
    "1 4,1": "1c171d51b56e6c16352fe98be8361fb31791b09755a8fb55b520228b75fa0e25",
    "1 3,2": "bdcec889a98870b7a384398f2c39ef97aa27eb9ff212457b7237a22d84209a0c",
    "1 3,1,1": "648ee208ce18394ebcece482a5399c1489fd929941c0ef726ab9b4ba0527ab9c",
    "1 2,2,1": "a5bca33dc8f8edfa3812b5f19527147964cd0a5a01f1ff8a0cc7e843d70f11bd",
    "1 1,1,1,1": "da623893ffec6951e65490fc8b293e0f179f3097af4b5f069a7b6c438ab36339",
    "2 1": "4a93c7dcdd40c99c1bfc5cf6f40c8ed6712da7c3eefdd2ec6afb57d7b4724a74",
    "2 2": "a478944528cf131e6703f457ed562a42a9144d006553a048c9c163fa09a35f0c",
    "2 1,1": "de3bb1934dd6978e737e10a75241fc49731b43d3a20402c8289b69b14b11ecd2",
    "2 3": "2c81803446ae18e0b25af96a0af5168efb8f22f52a9fb8a9578b534e9f65305c",
    "2 2,1": "bf71a2360a91de54cb72df5f0e21aa3b7c8236f23897abb1f499444c89ba07ad",
    "2 1,1,1": "7c406f5703d0542727f002734eb5a9dba27ae4ed3630d7c850adb59e397e22d6",
    "2 4": "97b8405e3491011a31e6e9b338493a91a4df3a3c8a21702245eaffd261fea9d4",
    "2 3,1": "b53b1aadfc8e6d5e5a7096d82d15e14c864aa0b474b48f088a54485b90f1f8c7",
    "2 2,2": "16b565d5bce5f7bc0b2d24525f837ea3d72ac751e50388cb77b55bd92df38360",
    "2 2,1,1": "50f69a2dc70d265feead5df5ab78a2bf0bd4bd632de741244f34c3056dc5fdcb",
    "2 5": "f66220f2942d200e5c68c495e28651d5cc080bc76c35deea3328b582f7efefb9",
    "2 4,1": "0342d90a2af813c71c8a083c4eb6a83c18820bac57fa2053be94719b5fe17625",
    "2 3,2": "f36d9aa76a876f1a5dd3ab3826d04c3d556ec44f1ee3e01bc4ac6742adf9f591",
    "2 3,1,1": "2548fc2191e0b7f892117980d528983fe735520fedcb4ad522d37f56986c544b",
    "2 2,2,1": "8963e8aa83aed6a79742f0b5f20efd8f2e25ce87d7b421de2e65a844e2ba52c5",
}

# the λ ⊢ 5 at g = 1 that H_DIGESTS leaves out, and (1,1,1,1) at g = 2
H_DIGESTS_WIDE = {
    "1 2,1,1,1": "ca70c5d2affa6e7d1cbf77f9cd885a56ebb87e7aee0ec90edafef49ed573a266",
    "1 1,1,1,1,1": "46ac5f0a3aa4db072495bbbb6166a173de0d2db45435a0aa84461c7d4cab15b4",
    "2 1,1,1,1": "0b4ea825afb77aa9c9642f0a69a59ec0cb405514defa1a8097f71596e92b54d9",
}
