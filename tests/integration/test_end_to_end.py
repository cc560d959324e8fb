"""End-to-end runs: every system x one workload per suite, oracle-checked."""

import pickle
import tracemalloc

import pytest

from repro.common.params import all_configs
from repro.core.hierarchy import build_hierarchy
from repro.core.invariants import check_invariants
from repro.sim.bench import result_snapshot
from repro.sim.perf import PerfModel
from repro.sim.simulator import Simulator
from repro.workloads.registry import make_workload

REPRESENTATIVES = ("bodytrack", "lu", "wikipedia", "mix2", "tpcc")


@pytest.mark.parametrize("workload_name", REPRESENTATIVES)
@pytest.mark.parametrize("config", all_configs(4),
                         ids=lambda c: c.name)
def test_oracle_checked_run(config, workload_name):
    hierarchy = build_hierarchy(config)
    workload = make_workload(workload_name, config.nodes, hierarchy.amap,
                             seed=6)
    simulator = Simulator(hierarchy, check_values=True)
    result = simulator.run(workload, 2_500, seed=6, warmup=500)
    assert result.instructions == 2_500
    if config.is_d2m:
        check_invariants(hierarchy.protocol)


def test_paper_shapes_on_shared_code_workload():
    """tpcc: the NS-R system must localize instruction service."""
    from repro.common.params import base_2l, d2m_ns_r
    from repro.sim.runner import run_workload
    base = run_workload(base_2l(4), "tpcc", instructions=30_000, seed=8)
    nsr = run_workload(d2m_ns_r(4), "tpcc", instructions=30_000, seed=8)
    assert nsr.result.ns_hit_ratio(True) > 0.3
    assert nsr.private_miss_fraction > 0.1
    # D2M-NS-R must not lose to the baseline on this workload
    assert nsr.perf.cycles < base.perf.cycles * 1.05


@pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
def test_building_a_paper_system_allocates_no_sets(config):
    """Array sets come into being at their first fill, so building the
    full-size machine (Table III, 8 nodes) costs the same whatever its
    capacity; allocating every set up front took 7.9-15.3 MB."""
    tracemalloc.start()
    try:
        hierarchy = build_hierarchy(config)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hierarchy.config is config
    assert peak < 1_000_000


@pytest.mark.parametrize("config", all_configs(4), ids=lambda c: c.name)
def test_pickled_mid_run_resumes_identically(config):
    """A machine shipped through pickle mid-run (the process pool ships
    hierarchies the same way) finishes exactly like one never pickled.
    The workload stays in-process: its address spaces carry on as they
    would in either case."""

    def start():
        hierarchy = build_hierarchy(config)
        workload = make_workload("water", config.nodes, hierarchy.amap,
                                 seed=3)
        simulator = Simulator(hierarchy, check_values=True)
        simulator.run(workload, 1_500, seed=3, warmup=300)
        return simulator, workload

    def finish(simulator, workload):
        result = simulator.run(workload, 1_500, seed=4)
        cycles = PerfModel(config.ooo).summarize(result).cycles
        return result_snapshot(result, cycles)

    expected = finish(*start())
    simulator, workload = start()
    assert finish(pickle.loads(pickle.dumps(simulator)), workload) == expected
