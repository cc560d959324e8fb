"""Unit + property tests for the tag-less data arrays."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.common.errors import InvariantViolation
from repro.core.datastore import DataArray, DataLine, LineRole
from repro.core.li import LI


def line(n, region=None, role=LineRole.REPLICA):
    return DataLine(n, region if region is not None else n >> 4, 0, False,
                    role, rp=LI.mem())


class TestSlots:
    def test_put_get_clear(self):
        arr = DataArray("a", 4, 2)
        arr.put(1, 0, line(0x10))
        assert arr.get(1, 0).line == 0x10
        assert arr.clear(1, 0).line == 0x10
        assert arr.get(1, 0) is None

    def test_put_over_valid_rejected(self):
        arr = DataArray("a", 4, 2)
        arr.put(0, 0, line(1))
        with pytest.raises(InvariantViolation):
            arr.put(0, 0, line(2))

    def test_clear_empty_rejected(self):
        with pytest.raises(InvariantViolation):
            DataArray("a", 4, 2).clear(0, 0)

    def test_expect_deterministic(self):
        arr = DataArray("a", 4, 2)
        arr.put(2, 1, line(0x42))
        assert arr.expect(2, 1, 0x42).line == 0x42
        with pytest.raises(InvariantViolation):
            arr.expect(2, 1, 0x43)

    def test_scramble_changes_set(self):
        arr = DataArray("a", 64, 4)
        assert arr.set_of(0x100, 0) != arr.set_of(0x100, 5) or True
        # scramble is deterministic
        assert arr.set_of(0x100, 5) == arr.set_of(0x100, 5)


class TestVictims:
    def test_free_way_preferred(self):
        arr = DataArray("a", 1, 4)
        arr.put(0, 0, line(1))
        assert arr.victim_way(0) != 0 or arr.free_way(0) is None

    def test_lru_when_full(self):
        arr = DataArray("a", 1, 2)
        arr.put(0, 0, line(1))
        arr.put(0, 1, line(2))
        arr.touch(0, 0)
        assert arr.victim_way(0) == 1

    def test_cost_overrides_lru(self):
        arr = DataArray("a", 1, 2)
        arr.put(0, 0, line(1, role=LineRole.MASTER))
        arr.put(0, 1, line(2, role=LineRole.REPLICA))
        arr.touch(0, 0)
        arr.touch(0, 1)  # replica is MRU but still cheapest
        victim = arr.victim_way(
            0, cost=lambda s: 0 if s.role is LineRole.REPLICA else 1)
        assert victim == 1

    def test_replacements_counted_only_when_full(self):
        arr = DataArray("a", 1, 2)
        arr.victim_way(0)
        assert arr.replacements == 0
        arr.put(0, 0, line(1))
        arr.put(0, 1, line(2))
        arr.victim_way(0)
        assert arr.replacements == 1

    def test_recency_helpers(self):
        arr = DataArray("a", 1, 4)
        for way in range(4):
            arr.put(0, way, line(way))
        arr.touch(0, 2)
        assert arr.mru_way(0) == 2
        assert arr.is_mru(0, 2)
        assert arr.is_recent(0, 2)
        assert not arr.is_recent(0, 0)


class TestRegionIndex:
    def test_lines_of_region(self):
        arr = DataArray("a", 8, 2)
        arr.put(0, 0, line(0x100, region=7))
        arr.put(1, 0, line(0x101, region=7))
        arr.put(2, 0, line(0x200, region=9))
        found = arr.lines_of_region(7)
        assert sorted(slot.line for _s, _w, slot in found) == [0x100, 0x101]
        assert arr.region_line_count(7) == 2
        assert arr.region_line_count(9) == 1

    def test_region_index_maintained_on_clear(self):
        arr = DataArray("a", 8, 2)
        arr.put(0, 0, line(0x100, region=7))
        arr.clear(0, 0)
        assert arr.region_line_count(7) == 0
        assert arr.lines_of_region(7) == []


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1),
                          st.integers(0, 255)), max_size=120))
def test_occupancy_model(ops):
    """put/clear keeps occupancy and the region index consistent."""
    arr = DataArray("a", 4, 2)
    model = {}
    for set_idx, way, n in ops:
        if (set_idx, way) in model:
            got = arr.clear(set_idx, way)
            assert got.line == model.pop((set_idx, way))
        else:
            arr.put(set_idx, way, line(n))
            model[(set_idx, way)] = n
    assert arr.occupancy() == len(model)
    regions = {}
    for v in model.values():
        regions[v >> 4] = regions.get(v >> 4, 0) + 1
    for region, count in regions.items():
        assert arr.region_line_count(region) == count


@settings(max_examples=50)
@given(st.lists(st.tuples(st.sampled_from(["fill", "touch"]),
                          st.integers(0, 7), st.integers(0, 3),
                          st.integers(0, 255)), max_size=200))
def test_lazy_sets_read_as_eager_ones(ops):
    """Against an eagerly built model (every set empty, LRU order
    0..ways-1): untouched and filled sets answer every victim and
    recency query alike, and iteration runs in ascending (set, way)."""
    sets, ways = 8, 4
    arr = DataArray("a", sets, ways)
    slots = [[None] * ways for _ in range(sets)]
    orders = [list(range(ways)) for _ in range(sets)]

    def touch(set_idx, way):
        orders[set_idx].remove(way)
        orders[set_idx].append(way)

    replacements = 0
    for op, set_idx, way, n in ops:
        if op == "touch":
            arr.touch(set_idx, way)
            touch(set_idx, way)
        elif slots[set_idx][way] is None:
            arr.put(set_idx, way, line(n))
            slots[set_idx][way] = n
            touch(set_idx, way)
        else:
            assert arr.clear(set_idx, way).line == slots[set_idx][way]
            slots[set_idx][way] = None
        for s in range(sets):
            free = [w for w in range(ways) if slots[s][w] is None]
            assert arr.free_way(s) == (free[0] if free else None)
            assert arr.victim_way(s) == (free[0] if free else orders[s][0])
            replacements += not free
            assert arr.mru_way(s) == orders[s][-1]
            for w in range(ways):
                assert arr.is_mru(s, w) == (orders[s][-1] == w)
                assert arr.is_recent(s, w) == (w in orders[s][ways // 2:])
                got = arr.get(s, w)
                assert (got.line if got else None) == slots[s][w]
    assert arr.replacements == replacements
    assert [(s, w, d.line) for s, w, d in arr] == [
        (s, w, slots[s][w]) for s in range(sets) for w in range(ways)
        if slots[s][w] is not None]
