"""Partitions, box statistics, conjugation, the pairing <lambda, mu>, and
the block/multiplicity profile that drives the residue chains.

Young diagrams use the bottom-up convention: a box is addressed as
(i, j) with j the row (row 1 at the bottom), i the column, 1 <= i <=
lambda_j.  The arm counts boxes strictly to the right in the same row,
the leg counts boxes strictly above in the same column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class Partition:
    """Weakly decreasing tuple of positive integers (possibly empty)."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError("parts must be weakly decreasing: %r" % (parts,))
        if parts and parts[-1] < 1:
            raise ValueError("parts must be positive: %r" % (parts,))
        self.parts = parts

    def size(self):
        return sum(self.parts)

    def length(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition%r" % (self.parts,)


def _partitions_of(k, max_part):
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in _partitions_of(k - first, first):
            yield (first,) + rest


def partitions_up_to(R):
    """All partitions of size 0..R, size-major, largest first within a size."""
    if R < 0:
        raise ValueError("bound must be nonnegative")
    out = []
    for k in range(R + 1):
        out.extend(Partition(p) for p in _partitions_of(k, k))
    return out


def conjugate(lam):
    """Transpose of the Young diagram."""
    parts = lam.parts
    if not parts:
        return Partition()
    return Partition(tuple(sum(1 for p in parts if p >= i)
                           for i in range(1, parts[0] + 1)))


def box_stats(lam):
    """(arm, leg) for every box, rows bottom-up, row-major order.

    For the box (i, j): arm = lambda_j - i, leg = #{j' > j : lambda_j' >= i}.
    """
    parts = lam.parts
    out = []
    for j, row in enumerate(parts):
        for i in range(1, row + 1):
            arm = row - i
            leg = sum(1 for p in parts[j + 1:] if p >= i)
            out.append((arm, leg))
    return out


def pairing(lam, mu):
    """<lambda, mu> = sum of products of conjugate parts."""
    lc = conjugate(lam).parts
    mc = conjugate(mu).parts
    return sum(a * b for a, b in zip(lc, mc))


@dataclass(frozen=True)
class BlockProfile:
    """Multiplicity view: lambda = (1^{r_1} 2^{r_2} ... t^{r_t}), r_t >= 1.

    Kernel variables z_1..z_n are grouped into consecutive blocks, block i
    occupying indices 1 + r_{<i} .. r_{<=i}; the first index of each
    nonempty block is its leader.
    """

    multiplicities: tuple

    @property
    def t(self):
        return len(self.multiplicities)

    @property
    def n(self):
        return sum(self.multiplicities)

    def prefix(self, i):
        """r_{<i}: number of kernel variables in blocks below i."""
        return sum(self.multiplicities[: i - 1])

    def suffix(self, i):
        """r_{>i}: number of kernel variables in blocks above i."""
        return sum(self.multiplicities[i:])

    def leader(self, i):
        """Index of the leader variable of (nonempty) block i."""
        if self.multiplicities[i - 1] == 0:
            raise ValueError("block %d is empty" % (i,))
        return 1 + self.prefix(i)

    def blocks(self):
        """(part size i, first index, last index) for every nonempty block."""
        out = []
        start = 1
        for i, r in enumerate(self.multiplicities, start=1):
            if r:
                out.append((i, start, start + r - 1))
                start += r
        return out


@lru_cache(maxsize=None)
def block_profile(lam):
    """Multiplicities r_1..r_t of lam together with the derived indexing."""
    parts = lam.parts
    if not parts:
        return BlockProfile(())
    t = parts[0]
    mult = [0] * t
    for p in parts:
        mult[p - 1] += 1
    return BlockProfile(tuple(mult))
