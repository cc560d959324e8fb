"""Hypothesis differential test: the batched driver against the oracle.

The batched driver (``repro.sim.batch``) is the production path; the
scalar loop (``Simulator.run(..., batched=False)``) is the oracle it
must match bit for bit.  The pinned-matrix tests in ``test_batch.py``
cover realistic streams on the full-size systems; this one hunts for
corner cases instead: shrunken geometries of all five systems and of
the ablation variants, adversarial streams on a few regions across
several cores, and a random chunk length with a warm-up that ends
anywhere inside a chunk.

Streams are concatenated segments shaped like the directed probes in
:mod:`repro.verify.coverage`: read/write contention on four regions,
L1 flushes set-congruent to a probed region (MD1 eviction with the MD2
entry alive, the setup of an MD2 prune), shared regions streamed past
the LLC (shared-master eviction), and private regions streamed past
MD2 (PB spills) — plus private reuse and single-set conflicts, so the
fast path commits loads and stores whose recency touches decide later
victims.  The warm-up ends between two such segment lists, so traffic
crosses the ROI reset.  The near-side pressure window is shrunk with
the geometry, so its periodic tick fires within a stream.
"""

from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.common.params import d2m_fs
from repro.common.types import Access, AccessKind
from repro.core.hierarchy import build_hierarchy
from repro.mem.address import AddressSpace, PageAllocator
from repro.obs.telemetry import Telemetry
from repro.sim.batch import run_batched
from repro.sim.bench import result_snapshot
from repro.sim.perf import PerfModel
from repro.sim.simulator import Simulator
from tests.helpers import ALL_FACTORIES, D2M_FACTORIES, small_config

_LINE = 64
_REGION = 1024
_KINDS = (AccessKind.IFETCH, AccessKind.LOAD, AccessKind.STORE)


def _shrunk(factory, nodes, window):
    config = small_config(factory(nodes))
    return replace(config, policy=replace(config.policy,
                                          ns_pressure_window=window))


def _ablated(config, md_scale, bypass, dynamic_indexing):
    # The ablation harnesses' knobs (MD scaling, bypass, dynamic
    # indexing), drawn independently so they also combine.
    if md_scale > 1:
        config = config.with_md_scale(md_scale)
    policy = config.policy
    return replace(config, policy=replace(
        policy, bypass_low_reuse=bypass,
        dynamic_indexing=dynamic_indexing or policy.dynamic_indexing))


_nodes = st.sampled_from((2, 4))
_windows = st.integers(1, 64)
baseline_configs = st.builds(_shrunk, st.sampled_from(
    [f for f in ALL_FACTORIES if f not in D2M_FACTORIES]), _nodes, _windows)
d2m_configs = st.builds(
    _ablated,
    st.builds(_shrunk, st.sampled_from(D2M_FACTORIES), _nodes, _windows),
    st.sampled_from((1, 2, 4)), st.booleans(), st.booleans())

#: flush granularity: short chunks put many flushes (and the warm-up's
#: end) at arbitrary stream positions; the production 4096 keeps a
#: whole stream's deferred counts pending across the ROI reset
chunks = st.one_of(st.integers(1, 97), st.sampled_from((512, 4096)))

# -- stream segments: each draws into a list of (core, kind, vaddr) ----

#: read/write ping-pong on four regions, I- and D-side mixed
contention = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(_KINDS),
              st.integers(0, 3), st.integers(0, 15)),
    min_size=8, max_size=60,
).map(lambda ops: [(core, kind, 0x40000 + r * _REGION + j * _LINE)
                   for core, kind, r, j in ops])


#: one core re-reading and re-writing lines of its own two regions
private_reuse = st.builds(
    lambda core, ops: [(core, kind, 0x80000 + core * 0x8000 + line * _LINE)
                       for kind, line in ops],
    st.integers(0, 3),
    st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(0, 31)),
             min_size=16, max_size=120),
)


def _conflict(core, stride, offset, ops):
    # Up to eight lines at one offset of regions ``stride`` apart
    # overfill one set of a 4-way L1 (and, at a 64 KiB stride, one
    # L1-TLB and one MD1 set): hits interleave with evictions, so every
    # recency touch and dirty bit the fast path commits decides a later
    # victim.
    return [(core, kind, 0xC00000 + way * stride + offset * _LINE)
            for way, kind in ops]


conflict = st.builds(
    _conflict, st.integers(0, 3), st.sampled_from((_REGION, 0x1000, 0x10000)),
    st.integers(0, 15),
    st.lists(st.tuples(st.integers(0, 7),
                       st.sampled_from((AccessKind.LOAD, AccessKind.STORE))),
             min_size=16, max_size=80),
)


def _flush(core, probed, store):
    # Four filler regions x 16 lines flush every set of a shrunken L1;
    # filler region numbers congruent to the probed region land in its
    # MD1 set (as verify.coverage._l1_flush_ops does).
    kind = AccessKind.STORE if store else AccessKind.LOAD
    regions = [0x400 + 8 * k + probed % 8 for k in range(1, 5)]
    return [(core, kind, r * _REGION + j * _LINE)
            for r in regions for j in range(16)]


#: L1/MD1 flush congruent to one of the contention regions
flush = st.builds(_flush, st.integers(0, 3),
                  st.integers(0x40000 // _REGION, 0x40000 // _REGION + 3),
                  st.booleans())


def _shared_stream(regions, stride, cores):
    # Every streamed line is shared by two cores, so its master parks
    # in the LLC; enough regions overflow the shrunken LLC (1024 lines)
    # and force evictions among shared masters.
    return [(core, AccessKind.LOAD, 0x300000 + r * _REGION + j * _LINE)
            for r in range(regions) for j in range(0, 16, stride)
            for core in cores]


shared_stream = st.builds(_shared_stream, st.integers(4, 72),
                          st.sampled_from((1, 2, 4)),
                          st.sampled_from(((0, 1), (1, 2), (0, 3))))


def _private_stream(core, regions, store):
    # One line per region walks a core's private heap past MD2 capacity
    # (PB spills / MD2 evictions of private regions).
    kind = AccessKind.STORE if store else AccessKind.LOAD
    base = 0x800000 + core * 0x100000
    return [(core, kind, base + r * _REGION) for r in range(regions)]


private_stream = st.builds(_private_stream, st.integers(0, 3),
                           st.integers(16, 160), st.booleans())

#: instruction boundaries (warm-up and the per-core clocks count them)
ifetches = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 63)),
    min_size=1, max_size=16,
).map(lambda ops: [(core, AccessKind.IFETCH, 0x10000 + pc * 16)
                   for core, pc in ops])

segments = st.lists(
    st.one_of(contention, private_reuse, conflict, flush, shared_stream,
              private_stream, ifetches),
    max_size=6,
).map(lambda parts: [op for part in parts for op in part])


def _with_warmup(pre, post):
    # The warm-up ends with the last instruction of ``pre``: both sides
    # of the warm-up/ROI boundary see traffic, wherever the chunk
    # boundaries fall.
    return pre + post, sum(1 for _c, kind, _v in pre
                           if kind is AccessKind.IFETCH)


#: ``(ops, warmup)``
runs = st.builds(_with_warmup, segments, segments).filter(
    lambda run: run[0])


class _OpsWorkload:
    """A fixed access list behind the workload interface.

    ``paged=False`` translates identity (keeping the directed shapes'
    set congruences); ``paged=True`` allocates pages on first touch and
    exposes ``_spaces``, so the batched driver's inline page lookup is
    exercised too.
    """

    def __init__(self, ops, nodes, amap, paged):
        self.ops = [(core % nodes, kind, vaddr) for core, kind, vaddr in ops]
        if paged:
            space = AddressSpace(amap, 0, PageAllocator())
            self._spaces = [space] * nodes
            self.translate = lambda core, vaddr: space.translate(vaddr)
        else:
            self.translate = lambda core, vaddr: vaddr

    def generate(self, n_instructions, seed=0):
        del n_instructions, seed  # the list is the whole stream
        for core, kind, vaddr in self.ops:
            yield Access(core, kind, vaddr)


def _simulate(config, ops, warmup, paged, telemetry, chunk=None):
    hierarchy = build_hierarchy(config)
    tele = Telemetry(sample_every=1).attach(hierarchy) if telemetry else None
    sim = Simulator(hierarchy, check_values=True, telemetry=tele)
    workload = _OpsWorkload(ops, config.nodes, hierarchy.amap, paged)
    if chunk is None:
        result = sim.run(workload, 0, warmup=warmup, batched=False)
    else:
        result = run_batched(sim, workload, 0, warmup=warmup, chunk=chunk)
    snap = result_snapshot(result, PerfModel(config.ooo).summarize(result)
                           .cycles)
    snap["core_time"] = dict(sim._core_time)
    snap["outstanding"] = dict(sim._outstanding)
    if tele is not None:
        snap["hists"] = tele.hists.summaries()
    return snap


SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def _check(config, run, chunk, paged, telemetry):
    ops, warmup = run
    oracle = _simulate(config, ops, warmup, paged, telemetry)
    batched = _simulate(config, ops, warmup, paged, telemetry, chunk=chunk)
    assert batched == oracle


@SETTINGS
@given(config=d2m_configs, run=runs, chunk=chunks, paged=st.booleans(),
       telemetry=st.booleans())
# Found by this test: an L1 replica whose RP went stale (MEM) after the
# other sharer's bypassed read refilled the line's LLC master, evicted
# into an LLC slot that displaced that very master.
@example(config=_ablated(_shrunk(d2m_fs, 2, 1), 1, True, False),
         run=_with_warmup([], _shared_stream(64, 1, (0, 1))
                          + _shared_stream(65, 1, (0, 1))),
         chunk=1, paged=False, telemetry=False)
def test_d2m_batched_matches_scalar_oracle(config, run, chunk, paged,
                                           telemetry):
    _check(config, run, chunk, paged, telemetry)


@SETTINGS
@given(config=baseline_configs, run=runs, chunk=chunks, paged=st.booleans(),
       telemetry=st.booleans())
def test_baseline_batched_matches_scalar_oracle(config, run, chunk, paged,
                                                telemetry):
    _check(config, run, chunk, paged, telemetry)
