import itertools
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspec import MultiIndex, TruncationSpec, enumerate_level


def brute_force_level(n, s):
    return [t for t in itertools.product(range(s + 1), repeat=n) if sum(t) == s]


def test_level_n2_s2():
    assert [m.entries for m in enumerate_level(2, 2)] == [(2, 0), (1, 1), (0, 2)]


def test_level_dim1():
    assert [m.entries for m in enumerate_level(1, 5)] == [(5,)]


def test_level_n3_s4_count():
    # brute-force enumeration of all triples summing to 4
    out = enumerate_level(3, 4)
    assert len(out) == 15 == len(brute_force_level(3, 4))
    assert {m.entries for m in out} == set(brute_force_level(3, 4))


@pytest.mark.parametrize("n,s", [(n, s) for n in range(1, 5) for s in range(11)])
def test_level_counts_and_uniqueness(n, s):
    out = enumerate_level(n, s)
    assert len(out) == comb(s + n - 1, n - 1)
    assert len({m.entries for m in out}) == len(out)
    assert all(m.order == s for m in out)


def test_rank_dim1():
    spec = TruncationSpec(1, 3)
    assert spec.rank(MultiIndex((0,))) == 0
    assert spec.rank(MultiIndex((3,))) == 3


def test_graded_order_n2():
    spec = TruncationSpec(2, 1)
    assert [m.entries for m in spec.indices] == [(0, 0), (1, 0), (0, 1)]


def test_unrank_n2():
    assert TruncationSpec(2, 2).unrank(5).entries == (0, 2)


def test_size_is_binomial():
    for n in range(1, 4):
        for level in range(6):
            assert TruncationSpec(n, level).size == comb(level + n, n)


def test_rejections():
    spec = TruncationSpec(2, 2)
    with pytest.raises(ValueError, match="level cutoff"):
        spec.rank(MultiIndex((3, 0)))
    with pytest.raises(ValueError, match="out of range"):
        spec.unrank(spec.size)
    with pytest.raises(ValueError):
        spec.rank(MultiIndex((1, 1, 1)))
    with pytest.raises(ValueError):
        MultiIndex((1, -1))


def test_grading_respected():
    spec = TruncationSpec(3, 5)
    orders = [m.order for m in spec.indices]
    assert orders == sorted(orders)


def test_prefix_nesting():
    shallow = TruncationSpec(2, 3)
    deep = TruncationSpec(2, 6)
    assert deep.indices[: shallow.size] == shallow.indices


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(0, 7), st.data())
def test_rank_unrank_inverse(n, level, data):
    spec = TruncationSpec(n, level)
    i = data.draw(st.integers(0, spec.size - 1))
    assert spec.rank(spec.unrank(i)) == i
    nu = spec.unrank(data.draw(st.integers(0, spec.size - 1)))
    assert spec.unrank(spec.rank(nu)) == nu


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
    assert all(spec.rank(MultiIndex(t)) == i for i, t in enumerate(box))


def test_truncation_memory_stays_linear_in_its_size():
    # the (N+1)^n box alone would take 156 MB here; the (D, n) array 2 MB
    tracemalloc.start()
    try:
        TruncationSpec(5, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
