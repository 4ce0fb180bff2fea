"""The g-map combinatorics, partitions, families and bounds."""

import pytest

from ffzeta.errors import DomainError, InvalidIndexError
from ffzeta.indices import (
    Index,
    compositions,
    dim_lower_bound,
    g_inverse,
    g_map,
    independent_family,
    is_g_independent,
    partition_to_json,
    q_admissible_partitions,
)


def test_index_validation():
    with pytest.raises(InvalidIndexError):
        Index(())
    with pytest.raises(InvalidIndexError):
        Index((1, 0))
    s = Index((1, 2, 2, 1))
    assert s.weight == 6 and s.depth == 4
    assert list(s) == [1, 2, 2, 1]


def test_g_map_examples():
    assert g_map((6,)) == frozenset({0})
    assert g_map((1, 2, 2, 1)) == frozenset({5, 3, 1})
    assert g_map((2, 2, 2)) == frozenset({4, 2})
    assert g_map((2, 1)) == frozenset({1})
    assert g_map((1, 2)) == frozenset({2})


def test_g_inverse_examples():
    assert g_inverse({1, 3, 5}, 6) == Index((1, 2, 2, 1))
    assert g_inverse({0}, 7) == Index((7,))
    with pytest.raises(InvalidIndexError):
        g_inverse(set(), 5)
    with pytest.raises(InvalidIndexError):
        g_inverse({6}, 6)


def test_g_roundtrip_up_to_weight_12():
    for w in range(1, 13):
        for s in compositions(w):
            assert g_inverse(g_map(s), w) == s


def test_compositions_count_distinct_and_weight():
    for w in range(1, 11):
        found = list(compositions(w))
        assert len(found) == len(set(found)) == 2 ** (w - 1)
        assert all(isinstance(s, Index) and s.weight == w for s in found)
    assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    with pytest.raises(DomainError):
        list(compositions(0))


def test_is_g_independent():
    assert is_g_independent([(5,)])
    assert is_g_independent([(2, 1), (1, 2)])       # {1} vs {2}
    assert not is_g_independent([(2, 1), (2, 1)])
    assert is_g_independent([(4,), (1, 3)])          # {0} vs {3}
    assert not is_g_independent([(1, 3), (1, 1, 2)])  # {3} meets {3, 2}
    # the paper's depth-<=2 family: (w) plus (s1, s2) with s2 not divisible by q-1
    for q in (2, 3, 5):
        for w in range(2, 13):
            family = [(w,)] + [
                (w - s2, s2) for s2 in range(1, w) if s2 % (q - 1) != 0
            ]
            assert is_g_independent(family), (q, w)


def test_q_admissible_partitions_examples():
    # w=3, q=3: block {2} has minimum divisible by q-1=2, so only {{1,2}}
    got = list(q_admissible_partitions(3, 3))
    assert got == [(frozenset({1, 2}),)]
    # w=2: single block {1}, admissible whenever q-1 does not divide 1
    assert list(q_admissible_partitions(2, 3)) == [(frozenset({1}),)]
    # q=2 admits nothing (q-1 = 1 divides every minimum)
    assert list(q_admissible_partitions(4, 2)) == []
    # w=1: nothing to partition
    assert list(q_admissible_partitions(1, 5)) == []
    # the paper's q=5, w=6 example appears
    target = {frozenset({1, 3, 5}), frozenset({2, 4})}
    assert any(set(p) == target for p in q_admissible_partitions(6, 5))


def test_q_admissible_partitions_cover_and_disjoint():
    for w, q in [(5, 3), (6, 5), (4, 4)]:
        for part in q_admissible_partitions(w, q):
            blocks = list(part)
            union = set().union(*blocks)
            assert union == set(range(1, w))
            assert sum(len(b) for b in blocks) == w - 1
            for b in blocks:
                assert min(b) % (q - 1) != 0


def test_partition_families_are_g_independent():
    for w, q in [(5, 3), (6, 5), (6, 4)]:
        for part in q_admissible_partitions(w, q):
            family = [Index((w,))] + [g_inverse(b, w) for b in part]
            assert is_g_independent(family), (w, q, partition_to_json(part))
            # last entries not divisible by q-1 (the torsion-freeness input)
            for s in family[1:]:
                assert s[-1] % (q - 1) != 0


def test_independent_family_examples():
    # q=3, w=5, r=2: pool {1,3}, largest-first chunks {3}, {1}
    fam = independent_family(5, 2, 3)
    assert fam == [Index((5,)), Index((2, 3)), Index((4, 1))]
    # r too deep: only (w)
    assert independent_family(5, 5, 3) == [Index((5,))]
    # w=1 degenerate
    assert independent_family(1, 3, 5) == [Index((1,))]
    # q=2: pool empty
    assert independent_family(9, 2, 2) == [Index((9,))]


def test_independent_family_invariants():
    for q in (3, 4, 5):
        for w in range(2, 11):
            for r in range(2, 5):
                fam = independent_family(w, r, q)
                assert is_g_independent(fam), (q, w, r)
                for s in fam[1:]:
                    assert s.depth == r
                    assert s[-1] % (q - 1) != 0
                b1r, _ = dim_lower_bound(w, r, q)
                assert len(fam) == b1r


def test_dim_lower_bound():
    # r=2 reduces to the depth-2 theorem bound
    for q in (2, 3, 4, 5):
        for w in range(2, 31):
            b1r, br = dim_lower_bound(w, 2, q)
            assert b1r == w - (w - 1) // (q - 1)
            assert br == b1r - 1
    assert dim_lower_bound(10, 3, 3) == (3, 2)
    assert dim_lower_bound(10, 3, 2) == (1, 0)  # q=2 degenerate
    with pytest.raises(DomainError):
        dim_lower_bound(10, 1, 3)
