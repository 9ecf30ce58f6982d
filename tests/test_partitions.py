from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskaudit import (
    DomainError,
    Instance,
    Partition,
    bell_number,
    enumerate_partitions,
    feature,
    solve_integral,
    theorem_sweep,
)

# k -> number of set partitions, computed by the triangle recurrence by hand
BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147, 10: 115975}


def test_bell_oracle():
    for k, expected in BELL.items():
        assert bell_number(k) == expected


def test_enumeration_counts_match_bell():
    for k in range(8):
        assert sum(1 for _ in enumerate_partitions(k)) == BELL[k]


def test_canonical_order_k3():
    parts = [tuple(tuple(b) for b in p.blocks) for p in enumerate_partitions(3)]
    assert parts == [
        ((0, 1, 2),),
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((0,), (1, 2)),
        ((0,), (1,), (2,)),
    ]


def test_partitions_are_exact_covers():
    for k in range(1, 7):
        seen = set()
        for p in enumerate_partitions(k):
            members = p.members()
            assert members == frozenset(range(k))
            assert sum(len(b) for b in p.blocks) == k
            key = tuple(tuple(b) for b in p.blocks)
            assert key not in seen
            seen.add(key)


def test_cap_truncates():
    got = list(enumerate_partitions(5, cap=10))
    assert len(got) == 10
    # a negative cap is bad input, as in the searches
    with pytest.raises(DomainError):
        enumerate_partitions(3, cap=-1)


def test_large_k_needs_cap():
    with pytest.raises(DomainError):
        enumerate_partitions(13)
    assert len(list(enumerate_partitions(13, cap=3))) == 3
    assert len(list(enumerate_partitions(13, cap=2))) == 2
    # the searches share the guard
    inst = Instance(tuple(feature(f"f{i}", F(i % 3, 2), 1, i % 2) for i in range(13)))
    with pytest.raises(DomainError):
        solve_integral(inst)
    with pytest.raises(DomainError):
        theorem_sweep(inst, 0, 0, 1)
    assert solve_integral(inst, cap=3).explored == 3
    rep = theorem_sweep(inst, 0, 0, 1, integral_cap=3)
    assert (rep.integral_explored, rep.integral_complete) == (3, False)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "3", F(3)])
def test_counts_that_are_no_int_are_refused(bad, skewed):
    with pytest.raises(DomainError, match="^k must be an int"):
        enumerate_partitions(bad)
    with pytest.raises(DomainError, match="^cap must be an int"):
        enumerate_partitions(3, cap=bad)
    # the integral search reads its cap through the same check
    with pytest.raises(DomainError, match="^cap must be an int"):
        solve_integral(skewed, cap=bad)


def test_negative_k_rejected():
    with pytest.raises(DomainError):
        list(enumerate_partitions(-1))


class TestPartitionType:
    def test_from_blocks_normalizes(self):
        p = Partition.from_blocks([[3, 1], [2]])
        assert p.blocks == ((1, 3), (2,))
        assert p.block_count == 2
        assert list(p) == [(1, 3), (2,)]

    def test_rejects_duplicates(self):
        with pytest.raises(DomainError):
            Partition.from_blocks([[1, 2], [2, 3]])

    def test_rejects_empty_block(self):
        with pytest.raises(DomainError):
            Partition.from_blocks([[1], []])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 6))
    def test_block_counts_bounded(self, k):
        for p in enumerate_partitions(k):
            if k == 0:
                assert p.block_count == 0
            else:
                assert 1 <= p.block_count <= k
