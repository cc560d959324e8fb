"""Node-count sensitivity (§III: "D2M can also be applied to
architectures with different numbers of levels and nodes").

D2M's benefit is not an 8-node artifact: the direct-access and
near-side mechanisms hold their advantage over the directory baseline
as the machine scales from 2 to 8 nodes (false-sharing multicast costs
grow with PB width, near-side wins grow with NoC pressure).
"""

from __future__ import annotations

from typing import Dict

from repro.common.params import base_2l, d2m_ns_r
from repro.experiments.runner import get_matrix
from repro.experiments.tables import render_table
# unused here; perfbench/reproduce.py::checkpoint_each_run patches it
from repro.sim.runner import run_workload  # noqa: F401

NODE_COUNTS = (2, 4, 8)
WORKLOADS = ("bodytrack", "tpcc")


def run(instructions: int = 0, seed: int = 1) -> Dict[int, Dict[str, float]]:
    out: Dict[int, Dict[str, float]] = {}
    for nodes in NODE_COUNTS:
        # one matrix per node count: a matrix row is keyed by config name
        matrix = get_matrix(WORKLOADS, [base_2l(nodes), d2m_ns_r(nodes)],
                            instructions, seed)
        speedups, traffic = [], []
        for workload in WORKLOADS:
            base = matrix[workload]["Base-2L"]
            d2m = matrix[workload]["D2M-NS-R"]
            speedups.append(base.cycles / d2m.cycles)
            if base.msgs_per_ki:
                traffic.append(d2m.msgs_per_ki / base.msgs_per_ki)
        out[nodes] = {
            "speedup": sum(speedups) / len(speedups),
            "traffic_ratio": sum(traffic) / len(traffic) if traffic else 0.0,
        }
    return out


def main(instructions: int = 0, seed: int = 1) -> Dict[int, Dict[str, float]]:
    results = run(instructions, seed)
    rows = [
        [f"{nodes}",
         f"{(r['speedup'] - 1) * 100:+.1f}%",
         f"{r['traffic_ratio']:.2f}x"]
        for nodes, r in results.items()
    ]
    print(render_table(
        ["nodes", "D2M-NS-R speedup vs Base-2L", "traffic vs Base-2L"],
        rows,
        title="Node-count sensitivity (bodytrack + tpcc average)",
    ))
    return results


if __name__ == "__main__":
    main()
