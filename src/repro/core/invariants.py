"""Machine invariant checkers for D2M (paper §II-B/§III).

Called between accesses (the machine is quiescent), the checkers walk
metadata and data structures and assert:

1. **Deterministic LI** — every valid LI in every node's active metadata
   points at a slot that holds the named line (local arrays and LLC), or
   at memory whose copy is current (no dirty master elsewhere), or at a
   remote node that masters the line locally.  A local copy's RP into
   the LLC — where the LI falls back when the copy leaves — is held to
   the same rule.
2. **Metadata inclusion** — every line in a node's arrays belongs to a
   region the node has an MD2 entry for; every MD1 entry has MD2 backing;
   every MD2 entry's region is PB-marked in MD3; every LLC-resident
   region is present in MD3.
3. **Single master** — at most one MASTER-role slot exists per line
   across all arrays, and MD3's LI for shared regions points at a master
   (or memory).
4. **Private classification** — a region marked private in a node is
   PB-marked for exactly that node, and no other node holds metadata or
   data for it.
5. **Tracking closure** — every node-tracked LLC slot is reachable from
   its tracking node (directly via LI or via the RP of a cached line).

Every invariant is *region-scoped*: whether it holds for region R
depends only on state reachable from R (the nodes' metadata entries for
R, the machine's cached lines of R, and R's MD3 entry).  The whole-
machine walk :func:`check_invariants` is therefore just
:func:`check_region_invariants` over :func:`machine_regions`, and the
incremental coherence sanitizer (:mod:`repro.analysis.sanitizer`) reuses
the same per-region checks on only the regions an access touched.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple, Union

from repro.common.errors import InvariantViolation
from repro.core.datastore import DataLine, LineRole
from repro.core.li import LI, LIKind
from repro.core.node import D2MNode
from repro.core.protocol import D2MProtocol
from repro.core.regions import ActiveSite, MD1Entry, MD2Entry

#: what a region's active LI array lives in
Holder = Union[MD1Entry, MD2Entry]
#: (owner-or-None, set, way) — mirrors repro.core.llc.SlotRef
SlotKey = Tuple[object, int, int]


def check_invariants(protocol: D2MProtocol) -> None:
    """Raise :class:`InvariantViolation` on the first broken invariant.

    The full walk: every region with any metadata or data presence is
    checked with :func:`check_region_invariants`.
    """
    for pregion in machine_regions(protocol):
        check_region_invariants(protocol, pregion)


def check_region_invariants(protocol: D2MProtocol, pregion: int) -> None:
    """Check all five invariants restricted to one region.

    O(state touching the region): the nodes' MD1/MD2 entries for it, the
    cached lines of the region (node arrays + LLC), and its MD3 entry.
    """
    _check_metadata_structure(protocol, pregion)
    _check_location_information(protocol, pregion)
    _check_single_master(protocol, pregion)
    _check_private_classification(protocol, pregion)
    _check_tracking_closure(protocol, pregion)


def machine_regions(protocol: D2MProtocol) -> List[int]:
    """Every region with metadata or data anywhere in the machine."""
    regions: Set[int] = set()
    for node in protocol.nodes:
        for pregion, _entry in node.md2:
            regions.add(pregion)
        for store in (node.md1i, node.md1d):
            for _vregion, entry in store:
                regions.add(entry.pregion)
        for array in node.arrays():
            for _s, _w, slot in array:
                regions.add(slot.region)
    for _ref, slot in llc_slots(protocol):
        regions.add(slot.region)
    for pregion, _entry in protocol.md3:
        regions.add(pregion)
    return sorted(regions)


def llc_slots(protocol: D2MProtocol) -> Iterator[Tuple[SlotKey, DataLine]]:
    """Every occupied LLC slot as ``((owner, set, way), slot)``."""
    llc = protocol.llc
    if hasattr(llc, "slices"):
        for owner, array in enumerate(llc.slices):
            for set_idx, way, slot in array:
                yield (owner, set_idx, way), slot
    else:
        for set_idx, way, slot in llc.array:
            yield (None, set_idx, way), slot


def _region_nodes(protocol: D2MProtocol,
                  pregion: int) -> List[Tuple[D2MNode, Holder]]:
    """(node, active LI holder) for every node with metadata for R."""
    out = []
    for node in protocol.nodes:
        if node.has_region(pregion):
            out.append((node, node.active_holder(pregion)))
    return out


def region_masters(protocol: D2MProtocol,
                   pregion: int) -> Dict[int, List[Tuple[str, DataLine]]]:
    """line -> [(location name, slot)] for the region's MASTER slots."""
    masters: Dict[int, List[Tuple[str, DataLine]]] = defaultdict(list)
    for node in protocol.nodes:
        for array in node.arrays():
            for _s, _w, slot in array.lines_of_region(pregion):
                if slot.role is LineRole.MASTER:
                    masters[slot.line].append((array.name, slot))
    for ref, slot in protocol.llc.lines_of_region(pregion):
        if slot.role is LineRole.MASTER:
            masters[slot.line].append((f"llc{ref}", slot))
    return masters


def _check_metadata_structure(protocol: D2MProtocol, pregion: int) -> None:
    md3 = protocol.md3
    for node in protocol.nodes:
        # MD1 entries for the region must have MD2 backing marked active
        # at them.  The MD1 stores are small fixed-size structures, so
        # scanning them keeps the check region-scoped and cheap.
        for store, site in ((node.md1i, ActiveSite.MD1I),
                            (node.md1d, ActiveSite.MD1D)):
            for vregion, entry in store:
                if entry.pregion != pregion:
                    continue
                md2_entry = node.md2.lookup(entry.pregion, touch=False)
                if md2_entry is None:
                    raise InvariantViolation(
                        f"node {node.node}: MD1 entry for region "
                        f"{entry.pregion:#x} lacks MD2 backing"
                    )
                if md2_entry.active_in is not site or \
                        md2_entry.tp_vregion != vregion:
                    raise InvariantViolation(
                        f"node {node.node}: MD2 tracking pointer for region "
                        f"{entry.pregion:#x} does not name its MD1 entry"
                    )
        # The region's MD2 entry (if any) must be PB-marked in MD3.
        if node.has_region(pregion):
            md3_entry = md3.peek(pregion)
            if md3_entry is None or node.node not in md3_entry.pb:
                raise InvariantViolation(
                    f"node {node.node}: region {pregion:#x} in MD2 but not "
                    f"PB-marked in MD3"
                )
        # Metadata inclusion over the node's cached lines of the region.
        for array in node.arrays():
            for _s, _w, slot in array.lines_of_region(pregion):
                if not node.has_region(slot.region):
                    raise InvariantViolation(
                        f"node {node.node}: line {slot.line:#x} cached "
                        f"without MD2 metadata for its region"
                    )
    # LLC inclusion under MD3.
    for _ref, slot in protocol.llc.lines_of_region(pregion):
        if protocol.md3.peek(slot.region) is None:
            raise InvariantViolation(
                f"LLC holds line {slot.line:#x} of region {slot.region:#x} "
                f"absent from MD3"
            )


def _check_single_master(protocol: D2MProtocol, pregion: int) -> None:
    for line, places in region_masters(protocol, pregion).items():
        if len(places) > 1:
            names = [name for name, _slot in places]
            raise InvariantViolation(
                f"line {line:#x} has {len(places)} masters: {names}"
            )


def _resolve_li(protocol: D2MProtocol, node: D2MNode, li: LI, line: int,
                scramble: int) -> DataLine:
    if li.is_local_cache:
        array = protocol._local_array(node, li)
        return array.expect(array.set_of(line, scramble), li.way, line)
    if li.is_llc:
        ref = protocol.llc.resolve(li, line, scramble)
        return protocol.llc.expect(ref, line)
    raise InvariantViolation(f"{li} is not resolvable to a slot")


def _check_location_information(protocol: D2MProtocol, pregion: int) -> None:
    amap = protocol.amap
    masters = region_masters(protocol, pregion)
    for node, holder in _region_nodes(protocol, pregion):
        for idx, li in enumerate(holder.li):
            line = amap.line_of_region(pregion, idx)
            if li.kind is LIKind.INVALID:
                raise InvariantViolation(
                    f"node {node.node}: invalid LI for line {line:#x} "
                    f"in tracked region {pregion:#x}"
                )
            if li.kind is LIKind.MEM:
                # Valid as long as memory's copy is current: a dirty
                # master elsewhere would make this a stale pointer.
                for name, slot in masters.get(line, []):
                    if slot.dirty and \
                            slot.version > protocol.memory.peek(line):
                        raise InvariantViolation(
                            f"node {node.node}: stale MEM pointer for "
                            f"line {line:#x}; dirty master at {name}"
                        )
                continue
            if li.kind is LIKind.NODE:
                remote = protocol.nodes[li.node]
                if not remote.has_region(pregion):
                    raise InvariantViolation(
                        f"node {node.node}: LI names node {li.node} for "
                        f"line {line:#x}, which has no metadata"
                    )
                remote_li = remote.li_of(pregion, idx)
                if not remote_li.is_local_cache:
                    raise InvariantViolation(
                        f"node {node.node}: LI names node {li.node} for "
                        f"line {line:#x}, whose own LI is {remote_li}"
                    )
                continue
            # Deterministic pointer into an array: must hold the line,
            # and so must the LLC slot a local copy falls back to.
            slot = _resolve_li(protocol, node, li, line, holder.scramble)
            if li.is_local_cache and slot.rp is not None and slot.rp.is_llc:
                _resolve_li(protocol, node, slot.rp, line, holder.scramble)


def _check_private_classification(protocol: D2MProtocol,
                                  pregion: int) -> None:
    for node, holder in _region_nodes(protocol, pregion):
        if not holder.private:
            continue
        md3_entry = protocol.md3.peek(pregion)
        if md3_entry is None or md3_entry.pb != {node.node}:
            raise InvariantViolation(
                f"node {node.node}: region {pregion:#x} marked private "
                f"but PB={md3_entry.pb if md3_entry else None}"
            )
        for other in protocol.nodes:
            if other.node != node.node and other.has_region(pregion):
                raise InvariantViolation(
                    f"region {pregion:#x} private to node {node.node} "
                    f"but node {other.node} has metadata for it"
                )


def _check_tracking_closure(protocol: D2MProtocol, pregion: int) -> None:
    amap = protocol.amap
    for ref, slot in protocol.llc.lines_of_region(pregion):
        if slot.tracked_by_node is None:
            continue
        tracker = protocol.nodes[slot.tracked_by_node]
        idx = amap.line_index_in_region(slot.line)
        if not tracker.has_region(pregion):
            raise InvariantViolation(
                f"node-tracked LLC slot for line {slot.line:#x} but node "
                f"{slot.tracked_by_node} lost the region metadata"
            )
        holder = tracker.active_holder(pregion)
        cur = holder.li[idx]
        loc = protocol.llc.li_for(ref)
        if cur == loc:
            continue
        if cur.is_local_cache:
            covering = protocol._local_slot(tracker, cur, slot.line,
                                            holder.scramble)
            if covering.rp == loc:
                continue
            # chain: L1 copy -> node-private LLC replica -> this master
            if covering.rp is not None and covering.rp.is_llc:
                inner_ref = protocol.llc.resolve(covering.rp, slot.line,
                                                 holder.scramble)
                inner = protocol.llc.get(inner_ref)
                if (inner is not None and inner.line == slot.line
                        and inner.rp == loc):
                    continue
        if cur.is_llc:
            # chain: node-private LLC replica -> this master
            mid_ref = protocol.llc.resolve(cur, slot.line, holder.scramble)
            mid = protocol.llc.get(mid_ref)
            if (mid is not None and mid.line == slot.line
                    and mid.rp == loc):
                continue
        raise InvariantViolation(
            f"node-tracked LLC slot for line {slot.line:#x} unreachable "
            f"from node {slot.tracked_by_node} (LI={cur})"
        )
