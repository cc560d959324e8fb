"""``simulate``: serial, in-process ``run_workload`` calls.

Five systems x five paper workloads, telemetry off and the default
(scalar) driver, no cache, no pool, no HTTP: raw simulator speed.
Whole rounds of the 25 cells run until the time is spent (at least two,
so the second round gives warm samples).  Every cell's
``result_snapshot`` is checked against the committed golden for the
golden seeds; for every seed, later rounds must reproduce the first
bit for bit, and one cell per paper workload must match the batched
driver, which the program guarantees is bit-identical to the scalar
loop.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from perfbench.common import (PAPER_WORKLOADS, Goldens, HostClock, Outcome,
                              Scratch, digest, time_imports)
from perfbench.layers import LayerTimer, Sampler, read_run_log, run_metrics

#: instruction budget per run (warm-up of half again on top), by size
INSTRUCTIONS = {"full": 8000, "tiny": 300}

#: what a fresh ``simulate`` user process imports before its first run
SETUP_MODULES = ("repro.sim.runner", "repro.common.params")


def _cells() -> List[Tuple[str, object]]:
    from repro.common.params import all_configs
    return [(workload, config) for workload in PAPER_WORKLOADS
            for config in all_configs()]


def _snapshot_digest(outcome: object) -> str:
    return _digest_of(outcome.result,  # type: ignore[attr-defined]
                      outcome.perf.cycles)  # type: ignore[attr-defined]


def _digest_of(result: object, cycles: float) -> str:
    from repro.sim.bench import result_snapshot
    return digest(result_snapshot(result, cycles))  # type: ignore[arg-type]


def _round(clock: HostClock, seed: int, budget: int
           ) -> Tuple[List[float], List[float], Dict[str, str], List[str]]:
    """One pass over the 25 cells: per-cell wall and scaled seconds,
    snapshot digests, and the errors of cells that crashed."""
    from repro.sim.runner import run_workload
    walls: List[float] = []
    scaled: List[float] = []
    digests: Dict[str, str] = {}
    errors: List[str] = []
    for workload, config in _cells():
        name = f"{workload}/{config.name}"  # type: ignore[attr-defined]
        try:
            with clock.span() as span:
                outcome = run_workload(config, workload, budget, seed,  # type: ignore[arg-type]
                                       telemetry=False)
        except Exception as exc:  # a crashed run is a failed operation
            errors.append(f"{name}: {exc!r}")
            continue
        walls.append(span.wall)
        scaled.append(span.scaled)
        digests[name] = _snapshot_digest(outcome)
    return walls, scaled, digests, errors


def _check(outcome: Outcome, rounds: List[Dict[str, str]], goldens: Goldens,
           seed: int, budget: int) -> None:
    """Charge every mismatch to the operation that produced it."""
    from repro.sim.runner import run_workload
    first = rounds[0]
    for later in rounds[1:]:
        for name, value in later.items():
            if first.get(name) != value:
                outcome.fail_existing(f"{name}: not reproducible in-process")
    if goldens.available or goldens.write:
        for name, value in first.items():
            if not goldens.matches(name, value):
                outcome.fail_existing(f"{name}: snapshot differs from golden")
        if goldens.available and set(goldens.expected or {}) - set(first):
            outcome.fail_existing("golden cells missing from the run")
    # Reference: the batched driver on one cell per paper workload (the
    # system rotates with the seed); every seed pays the same cost.
    cells = _cells()
    for index, workload in enumerate(PAPER_WORKLOADS):
        _, config = cells[index * 5 + (seed + index) % 5]
        name = f"{workload}/{config.name}"  # type: ignore[attr-defined]
        if name not in first:
            continue
        reference = run_workload(config, workload, budget, seed,  # type: ignore[arg-type]
                                 telemetry=False, batched=True)
        if _snapshot_digest(reference) != first[name]:
            outcome.fail_existing(f"{name}: scalar and batched drivers "
                                  f"disagree")


def run(scratch: Scratch, seed: int, seconds: float, size: str,
        goldens: Goldens, trace: bool) -> Outcome:
    from repro.sim.runner import warmup_budget

    outcome = Outcome()
    clock = HostClock()
    budget = INSTRUCTIONS[size]
    outcome.metrics["setup_s"] = time_imports(scratch, SETUP_MODULES)
    if trace:
        return _traced(outcome, clock, scratch, seed, budget, goldens)

    walls: List[List[float]] = []
    scaled: List[List[float]] = []
    digests: List[Dict[str, str]] = []
    started = time.perf_counter()
    while True:
        round_walls, round_scaled, round_digests, errors = _round(
            clock, seed, budget)
        for error in errors:
            outcome.op(False, error)
        for _ in round_digests:
            outcome.op(True)
        walls.append(round_walls)
        scaled.append(round_scaled)
        digests.append(round_digests)
        elapsed = time.perf_counter() - started
        if len(walls) >= 2 and elapsed + sum(round_walls) > seconds:
            break
    _check(outcome, digests, goldens, seed, budget)
    runs = sum(len(w) for w in walls)
    outcome.metrics["sim_ips"] = (runs * (budget + warmup_budget(budget))
                                  / sum(sum(s) for s in scaled))
    outcome.metrics["cold_ms"] = 1000 * statistics.median(scaled[0])
    outcome.metrics["warm_ms"] = 1000 * statistics.median(
        [value for later in scaled[1:] for value in later])
    outcome.info.update(
        rounds=len(walls), cells=len(walls[0]), instructions_per_run=budget,
        driver_jobs=1,
        wall_sim_ips=round(runs * (budget + warmup_budget(budget))
                           / sum(sum(w) for w in walls), 1))
    return outcome


def _traced(outcome: Outcome, clock: HostClock, scratch: Scratch, seed: int,
            budget: int, goldens: Goldens) -> Outcome:
    """One untraced round, then one round under every layer probe.

    The traced round makes only the untraced round's ``run_workload``
    calls; digests and the layer timer's second drain of each stream
    come after its wall time is taken.
    """
    from repro.obs import runlog
    from repro.sim.runner import run_workload, warmup_budget

    untraced_walls, _, untraced_digests, errors = _round(clock, seed, budget)
    for error in errors:
        outcome.op(False, error)
    for _ in untraced_digests:
        outcome.op(True)

    log_file = scratch.fresh_dir("runlog") / "run.jsonl"
    results: Dict[str, Tuple[object, float]] = {}
    started = time.perf_counter()
    runlog.configure(str(log_file))
    try:
        with Sampler() as sampler, LayerTimer(sampler) as timer:
            for workload, config in _cells():
                name = f"{workload}/{config.name}"  # type: ignore[attr-defined]
                try:
                    run = run_workload(config, workload, budget, seed,  # type: ignore[arg-type]
                                       telemetry=False)
                    results[name] = (run.result, run.perf.cycles)
                except Exception as exc:
                    outcome.op(False, f"{name}: {exc!r}")
                    continue
                outcome.op(True)
            traced_wall = time.perf_counter() - started
            timer.drain()
    finally:
        runlog.configure("")
    events = list(read_run_log(log_file))
    traced_digests = {name: _digest_of(*result)
                      for name, result in results.items()}
    _check(outcome, [untraced_digests, traced_digests], goldens, seed, budget)
    outcome.metrics.update(timer.metrics())
    outcome.metrics.update(sampler.shares())
    outcome.metrics.update(run_metrics(events,
                                       budget + warmup_budget(budget)))
    outcome.metrics["trace_overhead.simulate"] = (traced_wall
                                                  - sum(untraced_walls))
    return outcome
