import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspec import TruncationSpec
from oracles import rank


def brute_force_level(n, s):
    return [t for t in itertools.product(range(s + 1), repeat=n) if sum(t) == s]


def shell(n, s):
    """The indices with |nu| = s, in graded order: the last shell of level s."""
    spec = TruncationSpec(n, s)
    return [tuple(nu) for nu in spec.array[spec.offsets[s]:].tolist()]


def test_level_n2_s2():
    assert shell(2, 2) == [(2, 0), (1, 1), (0, 2)]


def test_level_dim1():
    assert shell(1, 5) == [(5,)]


def test_level_n3_s4_count():
    # brute-force enumeration of all triples summing to 4
    out = shell(3, 4)
    assert len(out) == 15 == len(brute_force_level(3, 4))
    assert set(out) == set(brute_force_level(3, 4))


@pytest.mark.parametrize("n,s", [(n, s) for n in range(1, 5) for s in range(11)])
def test_level_counts_and_uniqueness(n, s):
    out = shell(n, s)
    assert len(out) == comb(s + n - 1, n - 1)
    assert len(set(out)) == len(out)
    assert all(sum(nu) == s for nu in out)


def test_rank_dim1():
    spec = TruncationSpec(1, 3)
    assert rank(spec, (0,)) == 0
    assert rank(spec, (3,)) == 3


def test_graded_order_n2():
    spec = TruncationSpec(2, 1)
    assert spec.array.tolist() == [[0, 0], [1, 0], [0, 1]]


def test_unrank_n2():
    assert tuple(TruncationSpec(2, 2).array[5].tolist()) == (0, 2)


def test_size_is_binomial():
    for n in range(1, 4):
        for level in range(6):
            assert TruncationSpec(n, level).size == comb(level + n, n)


def test_rejections():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        TruncationSpec(0, 2)
    with pytest.raises(ValueError, match="level must be >= 0"):
        TruncationSpec(2, -1)
    # the array is shared by every reader of the truncation, so it is read-only
    with pytest.raises(ValueError, match="read-only"):
        TruncationSpec(2, 2).array[0, 0] = 1


def test_grading_respected():
    spec = TruncationSpec(3, 5)
    orders = spec.array.sum(axis=1).tolist()
    assert orders == sorted(orders)


def test_prefix_nesting():
    shallow = TruncationSpec(2, 3)
    deep = TruncationSpec(2, 6)
    assert np.array_equal(deep.array[: shallow.size], shallow.array)


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(0, 7), st.data())
def test_rank_unrank_inverse(n, level, data):
    # the rows are distinct, so the rank of the row at i is i
    spec = TruncationSpec(n, level)
    i = data.draw(st.integers(0, spec.size - 1))
    assert rank(spec, spec.array[i]) == i
    nu = tuple(spec.array[data.draw(st.integers(0, spec.size - 1))].tolist())
    assert tuple(spec.array[rank(spec, nu)].tolist()) == nu


def test_shells_cover_everything():
    spec = TruncationSpec(3, 4)
    total = sum(len(members) for _, members in spec.shells())
    assert total == spec.size


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(0, 10))
def test_array_and_offsets_match_a_sorted_product(n, level):
    box = [t for t in itertools.product(range(level + 1), repeat=n) if sum(t) <= level]
    box.sort(key=lambda t: (sum(t), *(-k for k in t)))
    spec = TruncationSpec(n, level)
    assert spec.array.shape == (len(box), n)
    assert [tuple(row) for row in spec.array.tolist()] == box
    orders = [sum(t) for t in box]
    assert spec.offsets.tolist() == [sum(o < s for o in orders) for s in range(level + 2)]


def test_truncation_memory_stays_linear_in_its_size():
    # the (N+1)^n box alone would take 156 MB here; the (D, n) array 2 MB
    tracemalloc.start()
    try:
        TruncationSpec(5, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
