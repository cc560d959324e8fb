"""The four ablation harnesses: cached runs, the old loops' numbers.

Each oracle is the direct ``run_workload`` loop the harness ran before
it went through the run cache; its result must come back unchanged.
"""

from dataclasses import replace

import pytest

import repro.experiments.runner as runner
from repro.common.params import base_2l, d2m_ns, d2m_ns_r
from repro.experiments import (
    ablation_bypass,
    ablation_indexing,
    ablation_md_scaling,
    sensitivity_nodes,
)
from repro.experiments.records import record_from_outcome
from repro.sim.runner import run_workload
from repro.workloads.registry import get_spec

BUDGET, SEED = 200, 3


def md_scaling_oracle(instructions, seed):
    workloads = ablation_md_scaling.ablation_workloads()
    baseline_cycles = {}
    for workload in workloads:
        outcome = run_workload(base_2l(), workload, instructions, seed)
        baseline_cycles[workload] = outcome.perf.cycles
    out = {}
    for factor in (1, 2, 4):
        config = d2m_ns_r().with_md_scale(factor) if factor > 1 else d2m_ns_r()
        speedups, direct = [], []
        for workload in workloads:
            outcome = run_workload(config, workload, instructions, seed)
            rec = record_from_outcome(outcome, get_spec(workload).category)
            speedups.append(baseline_cycles[workload] / rec.cycles)
            direct.append(rec.direct_ns_fraction)
        out[factor] = {
            "speedup": sum(speedups) / len(speedups),
            "direct_fraction": sum(direct) / len(direct),
        }
    return out


def nodes_oracle(instructions, seed):
    out = {}
    for nodes in sensitivity_nodes.NODE_COUNTS:
        speedups, traffic = [], []
        for workload in sensitivity_nodes.WORKLOADS:
            base = run_workload(base_2l(nodes), workload, instructions, seed)
            d2m = run_workload(d2m_ns_r(nodes), workload, instructions, seed)
            speedups.append(base.perf.cycles / d2m.perf.cycles)
            if base.msgs_per_ki:
                traffic.append(d2m.msgs_per_ki / base.msgs_per_ki)
        out[nodes] = {
            "speedup": sum(speedups) / len(speedups),
            "traffic_ratio": sum(traffic) / len(traffic) if traffic else 0.0,
        }
    return out


def bypass_oracle(instructions, seed):
    plain_cfg = d2m_ns()
    bypass_cfg = replace(plain_cfg, name="D2M-NS+bypass", policy=replace(
        plain_cfg.policy, bypass_low_reuse=True))
    out = {}
    for workload in ablation_bypass.WORKLOADS:
        plain = run_workload(plain_cfg, workload, instructions, seed)
        bypass = run_workload(bypass_cfg, workload, instructions, seed)
        out[workload] = {
            "miss_plain": plain.result.miss_ratio(False),
            "miss_bypass": bypass.result.miss_ratio(False),
            "bypassed_reads": bypass.hierarchy.stats.get("bypass.reads"),
            "speedup": (plain.perf.cycles / bypass.perf.cycles
                        if bypass.perf.cycles else 0.0),
            "energy_ratio": (bypass.cache_energy_pj / plain.cache_energy_pj
                             if plain.cache_energy_pj else 0.0),
        }
    return out


def indexing_oracle(instructions, seed):
    base_cfg = d2m_ns()
    scrambled_cfg = replace(base_cfg, name="D2M-NS+idx", policy=replace(
        base_cfg.policy, dynamic_indexing=True))
    out = {}
    for workload in ablation_indexing.WORKLOADS:
        plain = run_workload(base_cfg, workload, instructions, seed)
        scrambled = run_workload(scrambled_cfg, workload, instructions, seed)
        out[workload] = {
            "miss_plain": plain.result.miss_ratio(False),
            "miss_scrambled": scrambled.result.miss_ratio(False),
            "speedup": plain.perf.cycles / scrambled.perf.cycles
            if scrambled.perf.cycles else 0.0,
            "energy_ratio": (scrambled.cache_energy_pj / plain.cache_energy_pj
                             if plain.cache_energy_pj else 0.0),
        }
    return out


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for var in ("REPRO_FRESH", "REPRO_WARMUP", "REPRO_JOBS",
                "REPRO_INSTRUCTIONS"):
        monkeypatch.delenv(var, raising=False)
    return tmp_path


@pytest.mark.parametrize("module,oracle", [
    (ablation_md_scaling, md_scaling_oracle),
    (sensitivity_nodes, nodes_oracle),
    (ablation_bypass, bypass_oracle),
    (ablation_indexing, indexing_oracle),
], ids=lambda item: getattr(item, "__name__", "").rsplit(".", 1)[-1])
def test_cached_harness_matches_direct_loop(cache, monkeypatch, module,
                                            oracle):
    expected = oracle(BUDGET, SEED)
    result = module.run(BUDGET, SEED)
    assert result == expected
    assert repr(result) == repr(expected)  # ints stay ints, same order

    plans = []
    real = runner.plan_matrix

    def recording(*args, **kwargs):
        plans.append(real(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(runner, "plan_matrix", recording)
    assert module.run(BUDGET, SEED) == expected
    assert plans and all(not plan.pending for plan in plans)
