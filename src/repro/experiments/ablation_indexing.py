"""§IV-D ablation: dynamic indexing vs power-of-two strides.

``lu`` walks matrices with large power-of-two strides, so consecutive
accesses collide in a handful of cache sets.  Dynamic indexing stores a
random per-region scramble in the metadata and XORs it into the data-
array index, spreading the conflicting lines over all sets.  The paper
reports a dramatic energy reduction for such "malicious" patterns.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.common.params import d2m_ns
from repro.experiments.runner import get_matrix
from repro.experiments.tables import render_table
# unused here; perfbench/reproduce.py::checkpoint_each_run patches it
from repro.sim.runner import run_workload  # noqa: F401

WORKLOADS = ("lu", "fft")


def run(instructions: int = 0, seed: int = 1) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    base_cfg = d2m_ns()
    scrambled_cfg = replace(
        base_cfg,
        name="D2M-NS+idx",
        policy=replace(base_cfg.policy, dynamic_indexing=True),
    )
    matrix = get_matrix(WORKLOADS, [base_cfg, scrambled_cfg], instructions,
                        seed)
    for workload in WORKLOADS:
        plain = matrix[workload][base_cfg.name]
        scrambled = matrix[workload][scrambled_cfg.name]
        out[workload] = {
            "miss_plain": plain.l1d_miss,
            "miss_scrambled": scrambled.l1d_miss,
            "speedup": plain.cycles / scrambled.cycles
            if scrambled.cycles else 0.0,
            "energy_ratio": (scrambled.cache_energy_pj / plain.cache_energy_pj
                             if plain.cache_energy_pj else 0.0),
        }
    return out


def main(instructions: int = 0, seed: int = 1) -> Dict[str, Dict[str, float]]:
    results = run(instructions, seed)
    rows = [
        [workload,
         f"{r['miss_plain'] * 100:.1f}%",
         f"{r['miss_scrambled'] * 100:.1f}%",
         f"{(r['speedup'] - 1) * 100:+.1f}%",
         f"{(r['energy_ratio'] - 1) * 100:+.1f}%"]
        for workload, r in results.items()
    ]
    print(render_table(
        ["workload", "L1-D miss (set-indexed)", "L1-D miss (scrambled)",
         "speedup", "cache energy"],
        rows,
        title="§IV-D ablation - dynamic indexing on power-of-two strides",
    ))
    print("\n  paper: dramatic improvement for LU-style malicious patterns")
    return results


if __name__ == "__main__":
    main()
