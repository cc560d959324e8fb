"""``reproduce``: a user's two passes of the paper reproduction.

Each repetition starts from an empty private cache.  A pass is a
``plan_matrix``/``execute_plan`` sweep of six paper workloads x five
systems with two workers (sweep telemetry on, the default), then every
matrix harness on the sweep's matrix, then the four ablation harnesses
at the same pinned budget.  The first pass is cold (process pool,
record building, cache writes); the second is warm (cache reads and
rendering, plus the ablations, which bypass the cache and re-simulate).

Checks: every sweep cell lands; the warm pass must reproduce the cold
pass's harness values exactly; and for the golden seeds every harness
``main()`` return value must match the committed golden.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import statistics
import time
from typing import Callable, ContextManager, Dict, Iterator, List, Tuple

from perfbench.common import (Goldens, HostClock, Outcome, Scratch, digest,
                              time_imports)
from perfbench.layers import LayerTimer, Sampler, read_run_log, run_metrics

SWEEP_WORKLOADS = ("tpcc", "swaptions", "canneal", "amazon", "lu", "mix1")
MATRIX_HARNESSES = ("fig5_traffic", "fig6_edp", "fig7_speedup",
                    "table4_hit_ratios", "table5_invalidations",
                    "md1_coverage", "appendix_pkmo")
ABLATIONS = ("ablation_md_scaling", "sensitivity_nodes", "ablation_bypass",
             "ablation_indexing")
JOBS = 2

#: instruction budget of every sweep cell and ablation run, by size
INSTRUCTIONS = {"full": 2000, "tiny": 200}

SETUP_MODULES = ("repro.experiments.runner",) + tuple(
    "repro.experiments." + name for name in MATRIX_HARNESSES + ABLATIONS)


def _ablation_runs() -> int:
    """Simulations one pass of the ablation harnesses asks for.

    Counted from the harnesses' own workload and factor lists, so the
    figure means "results delivered", whether they come from a fresh
    simulation or, after a change, from a cache.
    """
    from repro.experiments import (ablation_bypass, ablation_indexing,
                                   ablation_md_scaling, sensitivity_nodes)
    md_scaling = len(ablation_md_scaling.ablation_workloads()) * (1 + 3)
    nodes = (len(sensitivity_nodes.NODE_COUNTS)
             * len(sensitivity_nodes.WORKLOADS) * 2)
    return (md_scaling + nodes + len(ablation_bypass.WORKLOADS) * 2
            + len(ablation_indexing.WORKLOADS) * 2)


def _pass(outcome: Outcome, clock: HostClock, seed: int, budget: int,
          timings: Dict[str, float],
          around_pool: Callable[[], ContextManager[None]] = contextlib.nullcontext
          ) -> Dict[str, str]:
    """One pass; returns ``{harness: result digest}``.

    ``timings`` receives each step's wall seconds, and ``wall_s`` and
    ``scaled_s`` for the whole pass (see :class:`HostClock`).
    """
    from repro.experiments.runner import execute_plan, plan_matrix

    spans = []
    with clock.span() as span:
        plan = plan_matrix(SWEEP_WORKLOADS, instructions=budget, seed=seed)
    spans.append(span)
    timings.update(plan_s=span.wall, pending=len(plan.pending),
                   cached=plan.cached)
    with around_pool(), clock.span() as span:
        failures = execute_plan(plan, jobs=JOBS, quiet=True)
    spans.append(span)
    timings["execute_s"] = span.wall
    for failure in failures:
        outcome.op(False, f"sweep {failure}")
    for row in plan.matrix.values():
        for _ in row:
            outcome.op(True)

    values: Dict[str, str] = {}
    for name in MATRIX_HARNESSES + ABLATIONS:
        module = importlib.import_module("repro.experiments." + name)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    clock.span() as span:
                if name in ABLATIONS:
                    result = module.main(budget, seed)
                else:
                    result = module.main(plan.matrix)
        except Exception as exc:  # a crashed harness is a failed op
            outcome.op(False, f"{name}: {exc!r}")
            continue
        spans.append(span)
        timings[name] = span.wall
        outcome.op(True)
        values[name] = digest(result)
    timings["figures_s"] = sum(timings.get(name, 0.0)
                               for name in MATRIX_HARNESSES)
    timings["wall_s"] = sum(span.wall for span in spans)
    timings["scaled_s"] = sum(span.scaled for span in spans)
    return values


@contextlib.contextmanager
def checkpoint_each_run(clock: HostClock) -> Iterator[None]:
    """Cut the clock's open span at every ablation simulation.

    An ablation harness is one span of several seconds; calibrating only
    at its ends would scale it by two snapshots of a drifting host.  The
    ablations call ``run_workload`` by name, so wrapping that name gives
    a calibration between runs (outside the timed segments); the
    program's code path is unchanged.
    """
    modules = [importlib.import_module("repro.experiments." + name)
               for name in ABLATIONS]
    originals = [module.run_workload for module in modules]

    def wrap(original: Callable) -> Callable:
        def run_workload(*args: object, **kwargs: object) -> object:
            clock.checkpoint()
            return original(*args, **kwargs)
        return run_workload

    for module, original in zip(modules, originals):
        module.run_workload = wrap(original)
    try:
        yield
    finally:
        for module, original in zip(modules, originals):
            module.run_workload = original


def _repetition(outcome: Outcome, clock: HostClock, scratch: Scratch,
                seed: int, budget: int
                ) -> Tuple[List[Dict[str, float]], List[Dict[str, str]]]:
    os.environ["REPRO_CACHE_DIR"] = str(scratch.fresh_dir("cache"))
    timings: List[Dict[str, float]] = []
    values: List[Dict[str, str]] = []
    with checkpoint_each_run(clock):
        for _ in ("cold", "warm"):
            pass_timings: Dict[str, float] = {}
            pass_values = _pass(outcome, clock, seed, budget, pass_timings)
            timings.append(pass_timings)
            values.append(pass_values)
    return timings, values


def _check(outcome: Outcome, values: List[Dict[str, str]],
           goldens: Goldens) -> None:
    cold, warm = values
    if goldens.available or goldens.write:
        for label, pass_values in (("cold", cold), ("warm", warm)):
            for name, value in pass_values.items():
                if not goldens.matches(f"{label}/{name}", value):
                    outcome.fail_existing(
                        f"{label} {name}: result differs from golden")
    for name, value in warm.items():
        if cold.get(name) != value:
            outcome.fail_existing(f"{name}: warm pass differs from cold")


def run(scratch: Scratch, seed: int, seconds: float, size: str,
        goldens: Goldens, trace: bool) -> Outcome:
    from repro.sim.runner import warmup_budget

    outcome = Outcome()
    clock = HostClock()
    budget = INSTRUCTIONS[size]
    outcome.metrics["setup_s"] = time_imports(scratch, SETUP_MODULES)
    for name in MATRIX_HARNESSES + ABLATIONS:
        importlib.import_module("repro.experiments." + name)
    if trace:
        return _traced(outcome, clock, scratch, seed, budget, goldens)

    per_run = budget + warmup_budget(budget)
    cells = len(SWEEP_WORKLOADS) * 5
    delivered = 2 * (cells + _ablation_runs()) * per_run
    reps: List[List[Dict[str, float]]] = []
    started = time.perf_counter()
    while True:
        timings, values = _repetition(outcome, clock, scratch, seed, budget)
        _check(outcome, values, goldens)
        reps.append(timings)
        rep_wall = timings[0]["wall_s"] + timings[1]["wall_s"]
        if time.perf_counter() - started + rep_wall > seconds:
            break
    cold = [rep[0]["scaled_s"] for rep in reps]
    warm = [rep[1]["scaled_s"] for rep in reps]
    outcome.metrics["cold_ms"] = 1000 * statistics.median(cold)
    outcome.metrics["warm_ms"] = 1000 * statistics.median(warm)
    outcome.metrics["sim_ips"] = delivered / statistics.median(
        [c + w for c, w in zip(cold, warm)])
    outcome.info.update(
        repetitions=len(reps), instructions_per_run=budget, driver_jobs=JOBS,
        wall_cold_s=[round(rep[0]["wall_s"], 3) for rep in reps],
        wall_warm_s=[round(rep[1]["wall_s"], 3) for rep in reps])
    return outcome


def _traced(outcome: Outcome, clock: HostClock, scratch: Scratch, seed: int,
            budget: int, goldens: Goldens) -> Outcome:
    """One untraced repetition, then one under every layer probe."""
    from repro.experiments.runner import runs_dir
    from repro.obs import runlog
    from repro.sim.runner import warmup_budget

    untraced, values = _repetition(outcome, clock, scratch, seed, budget)
    _check(outcome, values, goldens)

    log_file = scratch.fresh_dir("runlog") / "run.jsonl"
    os.environ["REPRO_LOG"] = str(log_file)  # inherited by pool workers
    runlog.configure(str(log_file))
    os.environ["REPRO_CACHE_DIR"] = str(scratch.fresh_dir("cache"))
    passes: List[Dict[str, float]] = []
    traced_values: List[Dict[str, str]] = []
    cache_bytes = 0
    try:
        with Sampler() as sampler, LayerTimer(sampler) as timer:
            for label in ("cold", "warm"):
                timings: Dict[str, float] = {}
                pass_values = _pass(outcome, clock, seed, budget, timings,
                                    timer.suspended)
                timer.drain()  # outside the pass's timed steps
                passes.append(timings)
                traced_values.append(pass_values)
                if label == "cold":
                    cache_bytes = sum(path.stat().st_size
                                      for path in runs_dir().glob("*.json"))
    finally:
        runlog.configure("")
        del os.environ["REPRO_LOG"]
    _check(outcome, traced_values, goldens)

    events = list(read_run_log(log_file))
    cold, warm = passes
    pool_pids = {event["pid"] for event in events} - {os.getpid()}
    pool_run_s = sum(float(event.get("elapsed_s", 0.0)) for event in events
                     if event["pid"] in pool_pids)
    metrics = outcome.metrics
    metrics.update(timer.metrics())
    metrics.update(sampler.shares())
    metrics.update(run_metrics(events, budget + warmup_budget(budget)))
    for label, timings in (("cold", cold), ("warm", warm)):
        metrics[f"experiments.plan_s.{label}"] = timings["plan_s"]
        metrics[f"experiments.execute_s.{label}"] = timings["execute_s"]
    metrics["parallel.overhead_s"] = cold["execute_s"] * JOBS - pool_run_s
    metrics["cache.warm_hits"] = warm["cached"]
    metrics["cache.warm_misses"] = warm["pending"]
    metrics["cache.bytes"] = cache_bytes
    metrics["harness.figures_s"] = warm["figures_s"]
    for name in ABLATIONS:
        metrics[f"harness.{name}_s"] = warm[name]
    metrics["trace_overhead.reproduce"] = (
        cold["wall_s"] + warm["wall_s"]
        - untraced[0]["wall_s"] - untraced[1]["wall_s"])
    return outcome
