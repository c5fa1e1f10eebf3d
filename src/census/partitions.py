"""Partitions, box statistics, conjugation, the pairing <lambda, mu>, and
the blocks of kernel variables that drive the residue chains.

Young diagrams use the bottom-up convention: a box is addressed as
(i, j) with j the row (row 1 at the bottom), i the column, 1 <= i <=
lambda_j.  The arm counts boxes strictly to the right in the same row,
the leg counts boxes strictly above in the same column.
"""

from __future__ import annotations

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


def partitions_of(k):
    """All partitions of k, largest first."""
    return [Partition(p) for p in _partitions_of(k, k)]


def partitions_up_to(R):
    """All partitions of size 0..R, size-major, largest first within a size."""
    if R < 0:
        raise ValueError("bound must be nonnegative")
    return [lam for k in range(R + 1) for lam in partitions_of(k)]


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


@lru_cache(maxsize=None)
def chain_blocks(lam):
    """(part i, first index, last index) for every distinct part i of lam,
    smallest first: the kernel variables z_1..z_n are grouped into
    consecutive blocks, one per distinct part, each as long as that part's
    multiplicity."""
    out = []
    last = 0
    for part in sorted(set(lam.parts)):
        first = last + 1
        last += lam.parts.count(part)
        out.append((part, first, last))
    return tuple(out)
