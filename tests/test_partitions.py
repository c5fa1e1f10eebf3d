"""Partition combinatorics: ordering, conjugation, boxes, pairing, blocks."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from census.partitions import (
    Partition,
    box_stats,
    chain_blocks,
    conjugate,
    pairing,
    partitions_up_to,
)


def P(*parts):
    return Partition(parts)


@st.composite
def partitions(draw, max_size=10):
    parts = draw(st.lists(st.integers(min_value=1, max_value=max_size),
                          min_size=0, max_size=max_size))
    parts.sort(reverse=True)
    while sum(parts) > max_size:
        parts.pop()
    return Partition(parts)


class TestBasics:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_size_length(self):
        lam = P(3, 1, 1)
        assert lam.size() == 5
        assert lam.length() == 3

    def test_enumeration_order(self):
        got = [p.parts for p in partitions_up_to(3)]
        assert got == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]

    def test_enumeration_counts(self):
        # number of partitions of k, k = 0..12
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        everything = partitions_up_to(12)
        counts = [sum(1 for p in everything if p.size() == k)
                  for k in range(13)]
        assert counts == expected


class TestConjugate:
    def test_examples(self):
        assert conjugate(P(3, 1)) == P(2, 1, 1)
        assert conjugate(P()) == P()
        assert conjugate(P(1, 1, 1, 1)) == P(4)

    @given(partitions())
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(partitions())
    def test_preserves_size(self, lam):
        assert conjugate(lam).size() == lam.size()


class TestBoxes:
    def test_single_row(self):
        assert box_stats(P(3)) == [(2, 0), (1, 0), (0, 0)]

    def test_column(self):
        assert box_stats(P(1, 1)) == [(0, 1), (0, 0)]

    def test_hook_shape(self):
        # rows bottom-up: (2, 1); box (1,1) sees one box above
        assert box_stats(P(2, 1)) == [(1, 1), (0, 0), (0, 0)]

    def test_large_diagram_reference_box(self):
        # column 4 of row 3 in a 49-box diagram: 5 boxes to the right,
        # 2 boxes above (rows 4 and 5 reach column 4, rows 6 and 7 do not)
        lam = P(10, 9, 9, 9, 6, 3, 3)
        # rows 1 and 2 come first in box_stats, then row 3 from column 1
        assert box_stats(lam)[10 + 9 + 3] == (5, 2)

    @given(partitions())
    def test_arm_leg_matches_box_stats(self, lam):
        # box (i, j): arm = lambda_j - i, leg = lambda'_i - j, through the
        # conjugate partition lambda'
        cols = conjugate(lam).parts
        want = [(row - i, cols[i - 1] - j)
                for j, row in enumerate(lam.parts, start=1)
                for i in range(1, row + 1)]
        assert box_stats(lam) == want

    @given(partitions())
    def test_box_count(self, lam):
        assert len(box_stats(lam)) == lam.size()

    @given(partitions())
    def test_arm_and_leg_sums(self, lam):
        stats = box_stats(lam)
        arms = sum(a for a, _ in stats)
        legs = sum(l for _, l in stats)
        assert arms == sum(p * (p - 1) // 2 for p in lam.parts)
        assert legs == sum(p * (p - 1) // 2 for p in conjugate(lam).parts)


class TestPairing:
    def test_examples(self):
        assert pairing(P(1), P(1)) == 1
        assert pairing(P(2), P(2)) == 2
        assert pairing(P(1, 1), P(1, 1)) == 4
        assert pairing(P(2, 1), P(2, 1)) == 5

    def test_empty(self):
        assert pairing(P(), P(3, 1)) == 0

    @given(partitions(), partitions())
    def test_symmetric(self, lam, mu):
        assert pairing(lam, mu) == pairing(mu, lam)

    @given(partitions())
    def test_self_pairing_via_legs(self, lam):
        # <lam, lam> = 2 * (total leg count) + |lam|
        legs = sum(l for _, l in box_stats(lam))
        assert pairing(lam, lam) == 2 * legs + lam.size()

    @given(partitions())
    def test_self_pairing_via_multiplicities(self, lam):
        # <lam, lam> = sum_i i r_i^2 + 2 sum_{i<j} i r_i r_j
        t = lam[0] if lam.length() else 0
        r = [lam.parts.count(i) for i in range(1, t + 1)]
        expect = sum((i + 1) * r[i] ** 2 for i in range(t))
        expect += 2 * sum((i + 1) * r[i] * r[j]
                          for i in range(t) for j in range(i + 1, t))
        assert pairing(lam, lam) == expect


class TestBlockProfile:
    """The blocks of kernel variables, one per distinct part: chain_blocks
    gives (part, first index, last index)."""

    def test_mixed(self):
        assert chain_blocks(P(2, 1, 1)) == ((1, 1, 2), (2, 3, 3))

    def test_gap(self):
        # no part 1, so the one block is part 2's and starts at z1
        assert chain_blocks(P(2)) == ((2, 1, 1),)

    def test_empty(self):
        assert chain_blocks(P()) == ()

    def test_prefix_suffix(self):
        # part 3's block starts after the r_1 = 1 variable of part 1
        assert chain_blocks(P(3, 3, 1)) == ((1, 1, 1), (3, 2, 3))

    @given(partitions())
    def test_weight_identity(self, lam):
        blocks = chain_blocks(lam)
        assert sum(part * (last - first + 1)
                   for part, first, last in blocks) == lam.size()
        assert [part for part, _, _ in blocks] == sorted(set(lam.parts))

    @given(partitions())
    def test_blocks_tile_indices(self, lam):
        covered = []
        for _, start, end in chain_blocks(lam):
            covered.extend(range(start, end + 1))
        assert covered == list(range(1, lam.length() + 1))
