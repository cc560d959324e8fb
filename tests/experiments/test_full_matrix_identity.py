"""Every sweep cell's record is identical under the production driver
and the scalar oracle.

The sweep path (``plan_matrix``/``execute_plan``, worker processes,
default telemetry) runs the batched driver; each record it writes must
equal, field for field, the record built from a scalar-oracle run of
the same cell.  All 145 cells (29 workloads x 5 systems) are checked at
a small pinned budget; the oracle runs fan out over the same process
pool the sweep uses.
"""

import json

import pytest

from repro.common.params import all_configs
from repro.experiments.records import record_from_outcome
from repro.experiments.runner import execute_plan, plan_matrix
from repro.sim.parallel import execute_runs
from repro.sim.runner import RunSpec, run_workload
from repro.workloads.registry import CATEGORIES, get_spec, workload_names

INSTRUCTIONS = 600
WARMUP = 300
SEED = 1
JOBS = 2


def _oracle_record(spec: RunSpec) -> dict:
    """Worker task: the cell's record from a scalar-oracle run."""
    outcome = run_workload(spec.config, spec.workload, spec.instructions,
                           spec.seed, warmup=spec.warmup,
                           telemetry=spec.telemetry, batched=False)
    return record_from_outcome(outcome,
                               get_spec(spec.workload).category).to_json()


@pytest.mark.slow
def test_every_sweep_record_matches_the_scalar_oracle(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    workloads = [name for cat in CATEGORIES for name in workload_names(cat)]
    configs = list(all_configs())
    assert len(workloads) * len(configs) == 145
    plan = plan_matrix(workloads=workloads, configs=configs,
                       instructions=INSTRUCTIONS, seed=SEED, warmup=WARMUP,
                       fresh=True)
    assert len(plan.pending) == 145
    assert all(item.spec.telemetry for item in plan.pending)
    assert execute_plan(plan, jobs=JOBS, quiet=True) == []

    oracles, failures = execute_runs([item.spec for item in plan.pending],
                                     _oracle_record, jobs=JOBS)
    assert failures == []
    mismatched = [
        f"{item.spec.workload}/{item.spec.config.name}"
        for index, item in enumerate(plan.pending)
        if json.loads(item.path.read_text())
        != json.loads(json.dumps(oracles[index]))
    ]
    assert mismatched == []
