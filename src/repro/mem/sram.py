"""A generic set-associative store.

`SetAssocStore` is the one array abstraction used by every tagged
structure in the package: baseline caches, TLBs, and all three metadata
stores.  It maps a *key* (whatever the client tags entries with — a line
number, a page number, a region number) to an arbitrary payload, with
pluggable indexing and LRU replacement.

Sets come into being at their first fill: building a store costs the
same whatever its capacity, and a run pays only for the sets it touches.
Until then a set reads exactly as a freshly built one — all ways
empty, initial LRU order — through :class:`LazyRows`.

D2M's tag-less data arrays do NOT use this class; they are plain
(set, way)-addressed slots (see ``repro.core.datastore``).
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.mem.replacement import LRUPolicy

T = TypeVar("T")


class LazyRows(dict):
    """Set index -> per-set row, for arrays whose sets appear at first fill.

    A set that was never created reads as ``default`` — an immutable row
    holding what an eagerly built set would — without being created, so
    a read (including the batched driver's inlined probes) never
    allocates.  The owner creates a set's row itself, at its first fill.
    A plain class rather than a ``defaultdict`` factory: hierarchies are
    pickled to pool workers, and closures would not survive that.
    """

    def __init__(self, default: tuple) -> None:
        super().__init__()
        self.default = default

    def __missing__(self, set_idx: int) -> tuple:
        return self.default


class Slot(Generic[T]):
    """The entry one way holds (slotted); an empty way holds None."""

    __slots__ = ("key", "payload")

    def __init__(self, key: int, payload: T) -> None:
        self.key = key
        self.payload = payload

    def __repr__(self) -> str:
        return f"Slot(key={self.key}, payload={self.payload!r})"


class SetAssocStore(Generic[T]):
    """Set-associative key/payload store with per-set LRU replacement.

    Args:
        sets: number of sets (power of two enforced by callers' configs).
        ways: associativity.
        index_fn: maps a key to a set index; defaults to ``key % sets``.
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        index_fn: Optional[Callable[[int], int]] = None,
    ) -> None:
        if sets <= 0 or ways <= 0:
            raise ValueError("sets and ways must be positive")
        self.sets = sets
        self.ways = ways
        # None means the modulo default; kept as None (not a closure) so a
        # finished hierarchy stays picklable for cross-process run fan-out.
        self._index_fn = index_fn
        # A set's row of ways (a Slot per resident entry, else None) and
        # its LRU state are created together at its first fill
        # (:meth:`_materialise`); an untouched set reads as all-empty.
        self._rows: LazyRows = LazyRows((None,) * ways)
        self._policies: Dict[int, LRUPolicy] = {}
        # Fast key -> (set, way, slot) map; one location per key by
        # construction.  The slot reference rides along so the hot
        # ``lookup`` path resolves payloads without double indexing.
        self._where: Dict[int, Tuple[int, int, Slot[T]]] = {}

    def _materialise(self, set_idx: int) -> List[Optional[Slot[T]]]:
        row: List[Optional[Slot[T]]] = [None] * self.ways
        self._rows[set_idx] = row
        self._policies[set_idx] = LRUPolicy(self.ways)
        return row

    # -- lookup ---------------------------------------------------------------

    def index_of(self, key: int) -> int:
        idx = self._index_fn(key) if self._index_fn is not None else key % self.sets
        if not 0 <= idx < self.sets:
            raise ValueError(f"index function produced {idx} outside [0,{self.sets})")
        return idx

    def lookup(self, key: int, touch: bool = True) -> Optional[T]:
        """Payload for ``key`` or None; updates recency on hit by default."""
        loc = self._where.get(key)
        if loc is None:
            return None
        if touch:
            self._policies[loc[0]].touch(loc[1])
        return loc[2].payload

    def contains(self, key: int) -> bool:
        return key in self._where

    def fastpath_view(self):
        """``(where, policies)`` handles for the batched driver's inlined
        hit path (``repro.sim.batch``).

        ``where`` maps key -> ``(set, way, slot)``; ``policies`` maps a
        set index to its :class:`LRUPolicy` and holds exactly the sets
        filled so far — always including a resident key's set, so a hit
        may index it directly.  A fast-path hit must replay
        :meth:`lookup`'s exact effect set: read ``loc[2].payload`` and
        touch ``loc[1]`` in ``policies[loc[0]]``.  Any other outcome must
        leave both structures untouched and take the full path.
        """
        return self._where, self._policies

    def location_of(self, key: int) -> Optional[Tuple[int, int]]:
        """(set, way) of ``key`` if present."""
        loc = self._where.get(key)
        return None if loc is None else (loc[0], loc[1])

    def peek_way(self, set_idx: int, way: int) -> Optional[Slot[T]]:
        """The entry one way holds, or None if it is empty (tests)."""
        return self._rows[set_idx][way]

    # -- modification -----------------------------------------------------------

    def insert(
        self,
        key: int,
        payload: T,
        protected: Optional[Callable[[int, T], bool]] = None,
    ) -> Optional[Tuple[int, T]]:
        """Insert ``key``; returns the evicted ``(key, payload)`` if any.

        ``protected(key, payload)`` may veto victim ways holding entries
        that must not be evicted right now (e.g. regions with an ongoing
        blocking transaction); a protected way is skipped when any
        unprotected way exists.
        """
        loc = self._where.get(key)
        if loc is not None:
            set_idx, way, slot = loc
            slot.payload = payload
            self._policies[set_idx].touch(way)
            return None
        set_idx = self.index_of(key)
        row = self._rows.get(set_idx)
        if row is None:
            row = self._materialise(set_idx)
        if None in row:
            self._fill(set_idx, row.index(None), key, payload)
            return None
        banned = []
        if protected is not None:
            banned = [
                w for w, slot in enumerate(row)
                if slot.payload is not None
                and protected(slot.key, slot.payload)
            ]
        victim_way = self._policies[set_idx].victim(banned)
        victim = row[victim_way]
        assert victim is not None
        evicted = (victim.key, victim.payload)
        del self._where[victim.key]
        self._fill(set_idx, victim_way, key, payload)
        assert evicted[1] is not None
        return evicted  # type: ignore[return-value]

    def _fill(self, set_idx: int, way: int, key: int, payload: T) -> None:
        slot = Slot(key, payload)
        self._rows[set_idx][way] = slot
        self._where[key] = (set_idx, way, slot)
        self._policies[set_idx].touch(way)

    def preview_victim(
        self,
        key: int,
        protected: Optional[Callable[[int, T], bool]] = None,
    ) -> Optional[Tuple[int, T]]:
        """What :meth:`insert` of ``key`` would evict right now, if anything.

        Lets callers perform expensive eviction work (e.g. a forced region
        eviction) *before* the insert, while the victim is still resident.
        Does not change recency state.
        """
        if key in self._where:
            return None
        set_idx = self.index_of(key)
        row = self._rows[set_idx]
        if None in row:
            return None
        banned = []
        if protected is not None:
            banned = [
                w for w, slot in enumerate(row)
                if slot.payload is not None
                and protected(slot.key, slot.payload)
            ]
        victim_way = self._policies[set_idx].victim(banned)
        victim = row[victim_way]
        assert victim is not None and victim.payload is not None
        return victim.key, victim.payload

    def invalidate(self, key: int) -> Optional[T]:
        """Remove ``key``; returns its payload if it was present."""
        loc = self._where.pop(key, None)
        if loc is None:
            return None
        self._rows[loc[0]][loc[1]] = None
        return loc[2].payload

    def touch(self, key: int) -> None:
        loc = self._where.get(key)
        if loc is not None:
            self._policies[loc[0]].touch(loc[1])

    # -- iteration / capacity -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._where)

    def __iter__(self) -> Iterator[Tuple[int, T]]:
        for key, loc in list(self._where.items()):
            payload = loc[2].payload
            assert payload is not None
            yield key, payload

    def keys_in_set(self, set_idx: int) -> List[int]:
        return [slot.key for slot in self._rows[set_idx] if slot is not None]

    def set_occupancy(self, set_idx: int) -> int:
        return self.ways - self._rows[set_idx].count(None)

    @property
    def capacity(self) -> int:
        return self.sets * self.ways
