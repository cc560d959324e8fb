"""§I ablation: cache bypassing for streaming (no-reuse) regions.

The paper lists cache bypassing among the optimizations the split
hierarchy enables "under one common framework": the region metadata
records reuse statistics, and regions whose lines never re-hit the L1
stop being installed there — data keeps being served from its LLC or
memory location through the LI, so no other mechanism changes.

The streaming workloads are the natural beneficiaries: their one-shot
lines stop evicting the hot set from the L1-D.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.common.params import d2m_ns
from repro.experiments.runner import get_matrix
from repro.experiments.tables import render_table
# unused here; perfbench/reproduce.py::checkpoint_each_run patches it
from repro.sim.runner import run_workload  # noqa: F401

WORKLOADS = ("streamcluster", "radix", "blackscholes")


def run(instructions: int = 0, seed: int = 1) -> Dict[str, Dict[str, float]]:
    plain_cfg = d2m_ns()
    bypass_cfg = replace(
        plain_cfg,
        name="D2M-NS+bypass",
        policy=replace(plain_cfg.policy, bypass_low_reuse=True),
    )
    matrix = get_matrix(WORKLOADS, [plain_cfg, bypass_cfg], instructions,
                        seed)
    out: Dict[str, Dict[str, float]] = {}
    for workload in WORKLOADS:
        plain = matrix[workload][plain_cfg.name]
        bypass = matrix[workload][bypass_cfg.name]
        out[workload] = {
            "miss_plain": plain.l1d_miss,
            "miss_bypass": bypass.l1d_miss,
            "bypassed_reads": bypass.bypass_reads,
            "speedup": plain.cycles / bypass.cycles if bypass.cycles else 0.0,
            "energy_ratio": (bypass.cache_energy_pj / plain.cache_energy_pj
                             if plain.cache_energy_pj else 0.0),
        }
    return out


def main(instructions: int = 0, seed: int = 1) -> Dict[str, Dict[str, float]]:
    results = run(instructions, seed)
    rows = [
        [workload,
         f"{r['miss_plain'] * 100:.1f}%",
         f"{r['miss_bypass'] * 100:.1f}%",
         f"{r['bypassed_reads']:.0f}",
         f"{(r['speedup'] - 1) * 100:+.1f}%",
         f"{(r['energy_ratio'] - 1) * 100:+.1f}%"]
        for workload, r in results.items()
    ]
    print(render_table(
        ["workload", "L1-D miss", "L1-D miss (bypass)", "bypassed reads",
         "speedup", "cache energy"],
        rows,
        title="§I ablation - low-reuse region bypassing on D2M-NS",
    ))
    print("\n  streaming regions stop polluting the L1; the hot set's "
          "conflict misses drop")
    return results


if __name__ == "__main__":
    main()
