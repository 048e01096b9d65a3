"""Multi-index bookkeeping for the Hermite basis.

Basis functions are labelled by multi-indices nu in N_0^n, stored as the
integer rows of one array.  Truncations keep every index with total order
|nu| <= N, listed in graded order (by |nu|, ties broken with the first
coordinate largest) so that a deeper truncation extends a shallower one as a
prefix.
"""

from __future__ import annotations

from math import comb

import numpy as np


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


class TruncationSpec:
    """Graded enumeration of {nu : |nu| <= N} in dimension n.

    array is the (D, n) integer array of the indices in graded order, with
    D = C(N+n, n); shell s (all nu with |nu| = s) is the slice
    array[offsets[s]:offsets[s+1]], where offsets[s] = C(s-1+n, n).
    The rank of nu is its row in array, 0..D-1.  The spec for level N is a
    prefix of the spec for any larger level.
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

    def shells(self) -> list[tuple[int, np.ndarray]]:
        """(s, the (k, n) slice of array with |nu| = s) for s = 0..N."""
        o = self.offsets
        return [(s, self.array[o[s]:o[s + 1]]) for s in range(self.level + 1)]

    def __repr__(self):
        return f"TruncationSpec(dim={self.dim}, level={self.level}, size={self.size})"
