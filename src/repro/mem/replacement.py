"""LRU replacement for set-associative structures.

A policy instance manages one set of ``ways`` slots identified by way
index.  It is deliberately a tiny state machine so hypothesis can drive
it hard in the property tests.  Every tagged array in the package
replaces by true LRU (paper Table III); the batched driver inlines
:meth:`LRUPolicy.touch` on its hit path.
"""

from __future__ import annotations

from typing import Iterable, List, Optional


class LRUPolicy:
    """True LRU via an ordered list (most recent at the end)."""

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.ways = ways
        self._order: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        """Record a use of ``way`` (hit or fill)."""
        order = self._order
        # Re-touching the MRU way is the common case on the hot path and
        # a no-op; ``order`` only ever holds valid ways, so matching its
        # tail also implies the bounds check passed.
        if order[-1] == way:
            return
        if not 0 <= way < self.ways:
            raise ValueError(f"way {way} out of range [0,{self.ways})")
        order.remove(way)
        order.append(way)

    def victim(self, protected: Optional[Iterable[int]] = None) -> int:
        """The least recent way, avoiding ``protected`` ways when possible."""
        banned = set(protected) if protected else set()
        for way in self._order:
            if way not in banned:
                return way
        # Everything protected: fall back to strict LRU order.
        return self._order[0]

    def mru_way(self) -> int:
        """The most recently used way (used by the replication heuristic)."""
        return self._order[-1]

    def lru_order(self) -> List[int]:
        """Ways ordered least- to most-recently used (for tests)."""
        return list(self._order)
