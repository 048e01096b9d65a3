"""Multi-index bookkeeping for the Hermite basis.

Basis functions are labelled by tuples nu in N_0^n.  Truncations keep every
index with total order |nu| <= N, listed in graded order (by |nu|, ties broken
with the first coordinate largest) so that a deeper truncation extends a
shallower one as a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np


@dataclass(frozen=True)
class MultiIndex:
    """A tuple nu = (nu_1, ..., nu_n) of non-negative integers."""

    entries: tuple[int, ...]
    order: int = field(init=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("multi-index must have at least one entry")
        if any((not isinstance(k, int)) or k < 0 for k in self.entries):
            raise ValueError(f"multi-index entries must be non-negative integers, got {self.entries}")
        object.__setattr__(self, "order", sum(self.entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, j):
        return self.entries[j]


def _graded(dim: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The (D, dim) graded array of {nu : |nu| <= level} and its shell offsets.

    One leading coordinate at a time: shell s is (s - |t|, t) over the prefix
    |t| <= s of the array t of the trailing coordinates, in O(D dim) memory.
    """
    arr = np.zeros((1, 0), dtype=np.intp)
    order = np.zeros(1, dtype=np.intp)
    for _ in range(dim):
        prefix = np.cumsum(np.bincount(order, minlength=level + 1))  # |t| <= s
        rows = np.arange(prefix.sum()) - np.repeat(np.cumsum(prefix) - prefix, prefix)
        shell = np.repeat(np.arange(level + 1), prefix)
        arr = np.column_stack([shell - order[rows], arr[rows]])
        order = shell
    return arr, np.concatenate([[0], np.cumsum(np.bincount(order, minlength=level + 1))])


def enumerate_level(n: int, s: int) -> list[MultiIndex]:
    """All multi-indices of dimension n with |nu| = s.

    The first coordinate decreases fastest: (2,0), (1,1), (0,2) for n=2, s=2.
    There are C(s+n-1, n-1) of them.
    """
    spec = TruncationSpec(n, s)
    return [MultiIndex(tuple(nu)) for nu in spec.array[spec.offsets[s]:].tolist()]


class TruncationSpec:
    """Graded enumeration of {nu : |nu| <= N} in dimension n.

    array is the (D, n) integer array of the indices in graded order, with
    D = C(N+n, n); shell s (all nu with |nu| = s) is the slice
    array[offsets[s]:offsets[s+1]], where offsets[s] = C(s-1+n, n).
    rank/unrank convert between multi-indices and positions 0..D-1.  The
    spec for level N is a prefix of the spec for any larger level.
    """

    def __init__(self, dim: int, level: int):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        self.dim = dim
        self.level = level
        self.array, self.offsets = _graded(dim, level)
        self.array.flags.writeable = False
        assert len(self.array) == self.offsets[-1] == comb(level + dim, dim)

    @property
    def size(self) -> int:
        return len(self.array)

    @property
    def indices(self) -> tuple[MultiIndex, ...]:
        """The indices as MultiIndex values, built on each access."""
        return tuple(MultiIndex(tuple(nu)) for nu in self.array.tolist())

    def rank(self, nu: MultiIndex) -> int:
        if nu.dim != self.dim:
            raise ValueError(f"multi-index has dimension {nu.dim}, truncation has {self.dim}")
        if nu.order > self.level:
            raise ValueError(
                f"multi-index {nu.entries} has order {nu.order} > level cutoff {self.level}")
        # in its shell nu follows the C(rest - 1 + m, m) indices that agree up
        # to coordinate j and are larger there (m later coordinates, sum < rest)
        pos, rest = int(self.offsets[nu.order]), nu.order
        for j, k in enumerate(nu.entries[:-1]):
            rest -= k
            m = self.dim - 1 - j
            pos += comb(rest - 1 + m, m)
        return pos

    def unrank(self, i: int) -> MultiIndex:
        if not 0 <= i < self.size:
            raise ValueError(f"rank {i} out of range [0, {self.size})")
        return MultiIndex(tuple(self.array[i].tolist()))

    def shells(self) -> list[tuple[int, np.ndarray]]:
        """(s, the (k, n) slice of array with |nu| = s) for s = 0..N."""
        o = self.offsets
        return [(s, self.array[o[s]:o[s + 1]]) for s in range(self.level + 1)]

    def __repr__(self):
        return f"TruncationSpec(dim={self.dim}, level={self.level}, size={self.size})"
