"""Unit + property tests for the generic set-associative store."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.mem.sram import SetAssocStore


class TestBasics:
    def test_miss_returns_none(self):
        store = SetAssocStore(4, 2)
        assert store.lookup(42) is None

    def test_insert_then_hit(self):
        store = SetAssocStore(4, 2)
        store.insert(42, "payload")
        assert store.lookup(42) == "payload"

    def test_insert_same_key_replaces(self):
        store = SetAssocStore(4, 2)
        store.insert(1, "a")
        assert store.insert(1, "b") is None
        assert store.lookup(1) == "b"
        assert len(store) == 1

    def test_eviction_returns_victim(self):
        store = SetAssocStore(1, 2)
        store.insert(0, "a")
        store.insert(1, "b")
        victim = store.insert(2, "c")
        assert victim == (0, "a")  # LRU

    def test_lru_updated_on_lookup(self):
        store = SetAssocStore(1, 2)
        store.insert(0, "a")
        store.insert(1, "b")
        store.lookup(0)
        assert store.insert(2, "c") == (1, "b")

    def test_peek_does_not_touch(self):
        store = SetAssocStore(1, 2)
        store.insert(0, "a")
        store.insert(1, "b")
        store.lookup(0, touch=False)
        assert store.insert(2, "c") == (0, "a")

    def test_invalidate(self):
        store = SetAssocStore(4, 2)
        store.insert(5, "x")
        assert store.invalidate(5) == "x"
        assert store.lookup(5) is None
        assert store.invalidate(5) is None

    def test_location_of(self):
        store = SetAssocStore(4, 2)
        store.insert(6, "x")
        set_idx, way = store.location_of(6)
        assert set_idx == 6 % 4
        slot = store.peek_way(set_idx, way)
        assert slot.key == 6 and slot.payload == "x"


class TestProtection:
    def test_protected_way_skipped(self):
        store = SetAssocStore(1, 2)
        store.insert(0, "keep")
        store.insert(1, "evictable")
        victim = store.insert(2, "new",
                              protected=lambda k, p: p == "keep")
        assert victim == (1, "evictable")

    def test_preview_matches_insert(self):
        store = SetAssocStore(1, 4)
        for key in range(4):
            store.insert(key, f"p{key}")
        preview = store.preview_victim(9)
        victim = store.insert(9, "new")
        assert preview == victim

    def test_preview_none_when_free(self):
        store = SetAssocStore(1, 4)
        store.insert(0, "a")
        assert store.preview_victim(1) is None

    def test_preview_none_when_present(self):
        store = SetAssocStore(1, 1)
        store.insert(0, "a")
        assert store.preview_victim(0) is None


class TestCustomIndex:
    def test_index_fn_used(self):
        store = SetAssocStore(4, 1, index_fn=lambda key: (key >> 4) % 4)
        store.insert(0x10, "a")
        assert store.location_of(0x10)[0] == 1

    def test_bad_index_fn_rejected(self):
        store = SetAssocStore(4, 1, index_fn=lambda key: 99)
        with pytest.raises(ValueError):
            store.insert(1, "a")


@settings(max_examples=50)
@given(st.lists(st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]),
                          st.integers(0, 63)), max_size=300))
def test_model_conformance(ops):
    """The store behaves like a bounded dict (presence-wise), and a set
    that was never filled reads exactly as a freshly built one."""
    sets, ways = 8, 4
    store = SetAssocStore(sets, ways)
    model = {}
    filled = set()
    for op, key in ops:
        if op == "insert":
            preview = store.preview_victim(key)
            victim = store.insert(key, key * 10)
            assert victim == preview
            if key % sets not in filled:
                # a set's first fill takes way 0 and evicts nothing
                assert victim is None
                assert store.location_of(key) == (key % sets, 0)
                filled.add(key % sets)
            model[key] = key * 10
            if victim is not None:
                del model[victim[0]]
        elif op == "lookup":
            got = store.lookup(key)
            assert got == model.get(key)
        else:
            got = store.invalidate(key)
            assert got == model.pop(key, None)
        assert len(store) == len(model)
        for set_idx in range(sets):
            resident = sorted(k for k in model if k % sets == set_idx)
            assert sorted(store.keys_in_set(set_idx)) == resident
            # capacity per set never exceeded
            assert store.set_occupancy(set_idx) == len(resident) <= ways
            if set_idx not in filled:
                assert all(store.peek_way(set_idx, way) is None
                           for way in range(ways))
                assert store.preview_victim(set_idx) is None
