"""Unit + property tests for the LRU replacement policy."""

from hypothesis import given, strategies as st
import pytest

from repro.mem.replacement import LRUPolicy


class TestLRU:
    def test_initial_victim_is_way_zero(self):
        assert LRUPolicy(4).victim() == 0

    def test_victim_is_least_recent(self):
        p = LRUPolicy(4)
        for way in (0, 1, 2, 3, 0, 1):
            p.touch(way)
        assert p.victim() == 2

    def test_protected_skipped(self):
        p = LRUPolicy(4)
        for way in range(4):
            p.touch(way)
        assert p.victim(protected=[0]) == 1

    def test_all_protected_falls_back(self):
        p = LRUPolicy(2)
        p.touch(0)
        p.touch(1)
        assert p.victim(protected=[0, 1]) == 0

    def test_mru_way(self):
        p = LRUPolicy(4)
        p.touch(2)
        assert p.mru_way() == 2

    def test_rejects_bad_way(self):
        with pytest.raises(ValueError):
            LRUPolicy(4).touch(4)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=100))
    def test_victim_never_mru(self, touches):
        p = LRUPolicy(8)
        for way in touches:
            p.touch(way)
        assert p.victim() != p.mru_way() or len(set(touches)) == 0
