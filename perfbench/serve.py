"""``serve``: ``repro serve`` round trips from two closed-loop clients.

A ``repro serve --port 0 --workers 2`` subprocess runs on a fresh cache
and queue.  Ten hot cells (five paper workloads on Base-2L and
D2M-NS-R) are simulated once before measuring.  Then two client
threads each replay a fixed, seeded list of round trips -- POST
``/runs``, poll ``GET /runs/<id>`` until the job ends, ``GET
/records/<key>``:

* ``hit``: a hot cell, already cached (queue, HTTP and record layers
  only);
* ``miss``: a single cell with a fresh seed, simulated in the daemon;
* ``dup``: both clients submit the same fresh cell at once (a barrier
  lines them up), so the coalescer must simulate it once.

The request count is fixed by ``--seconds`` alone, because hit latency
grows with the queue's history.  Checks: every response is 2xx, every
job ends ``done`` within the timeout, every job names the run cache key
of the cell it was asked for, and every record matches its request.
Every served hot record's ``scalar_metrics`` must equal the in-process
recomputation and, for the golden seeds, the committed golden; every
hit must serve it.  Both halves of a duplicate pair must serve the same
``scalar_metrics``, and a seeded handful of fresh cells is recomputed
in-process and compared too.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.common import (PAPER_WORKLOADS, SYSTEMS, Goldens, HostClock,
                              Outcome, Scratch, compile_bytecode, digest,
                              percentile)
from perfbench.layers import Sampler, read_run_log, run_metrics

HOT_SYSTEMS = ("Base-2L", "D2M-NS-R")
CLIENTS = 2
WORKERS = 2

#: instruction budget of every served cell, by size
INSTRUCTIONS = {"full": 2000, "tiny": 200}
#: round trips per client per second of ``--seconds``, by size
REQUESTS_PER_SECOND = {"full": 4.0, "tiny": 1.0}
#: every DUP_EVERY-th round trip is a duplicate pair, and of the rest
#: every MISS_EVERY-th is a fresh-seed miss; the others are hot reads
DUP_EVERY = 10
MISS_EVERY = 4

#: fresh cells (misses and duplicate pairs) recomputed in-process
RECOMPUTED_FRESH = 4
#: calibrations taken each time the daemon is idle (see _session)
IDLE_CALIBRATIONS = 5

DAEMON_STARTS = 5            # setup_s is the median daemon start
JOB_TIMEOUT_S = 90.0
HTTP_TIMEOUT_S = 30.0
#: a fixed poll interval, so a job's latency is seen to within 2 ms
POLL_S = 0.002
#: each client's pause between round trips
THINK_S = 0.010


@dataclass
class Op:
    kind: str                 # "hit" | "miss" | "dup"
    workload: str
    config: str
    seed: int


@dataclass
class Sample:
    kind: str
    ok: bool
    total_ms: float = 0.0
    post_ms: float = 0.0
    poll_ms: List[float] = field(default_factory=list)
    record_ms: float = 0.0
    job: str = ""
    key: str = ""
    metrics_digest: str = ""
    error: str = ""


def plan_ops(seed: int, per_client: int) -> List[List[Op]]:
    """Each client's round trips, from the seed alone.

    The positions of each kind are fixed (every tenth op a duplicate
    pair, every fourth a miss, the two clients' misses staggered), and
    each kind cycles through its cells in a seeded order.  So the seed
    changes which cell comes when and the fresh seeds, not the mix or
    how misses interleave with hits.
    """
    rng = random.Random(seed)
    hot = rng.sample([(w, c) for w in PAPER_WORKLOADS for c in HOT_SYSTEMS],
                     len(PAPER_WORKLOADS) * len(HOT_SYSTEMS))
    cold = [(w, c) for w in PAPER_WORKLOADS for c in SYSTEMS]
    dup_cells = rng.sample(cold, len(cold))
    plans = []
    for client in range(CLIENTS):
        miss_cells = rng.sample(cold, len(cold))
        ops = []
        for index in range(per_client):
            if index % DUP_EVERY == DUP_EVERY - 1:
                number = index // DUP_EVERY
                ops.append(Op("dup", *dup_cells[number % len(cold)],
                              100_000 + 10_000 * seed + 5_000 + number))
            elif (index + 2 * client) % MISS_EVERY == 1:
                ops.append(Op("miss", *miss_cells[index % len(cold)],
                              100_000 + 10_000 * seed + 1_000 * client
                              + index))
            else:
                ops.append(Op("hit", *hot[index % len(hot)], seed))
        plans.append(ops)
    return plans


class Daemon:
    """One ``repro serve`` subprocess; always stopped and waited for."""

    def __init__(self, scratch: Scratch, extra_env: Dict[str, str]) -> None:
        self.scratch = scratch
        self.cache = scratch.fresh_dir("serve-cache")
        self.extra_env = extra_env
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.ready_s = 0.0

    def start(self) -> "Daemon":
        out = self.cache / "daemon.out"
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--workers", str(WORKERS), "--cache-dir", str(self.cache)]
        env = self.scratch.child_env(PYTHONUNBUFFERED="1", **self.extra_env)
        started = time.perf_counter()
        with open(out, "wb") as sink:
            self.proc = subprocess.Popen(command, env=env, stdout=sink,
                                         stderr=subprocess.STDOUT,
                                         cwd=str(self.cache))
        deadline = started + 60
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not start:\n"
                                   + out.read_text(errors="replace"))
            text = out.read_text(errors="replace")
            marker = text.find("http://127.0.0.1:")
            if marker >= 0 and " " in text[marker:]:
                self.port = int(text[marker:].split(" ")[0].rsplit(":", 1)[1])
            else:
                time.sleep(0.002)
        while request(self.port, "GET", "/healthz")[0] != 200:
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - started
        return self

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def request(port: int, method: str, path: str, body: Optional[dict] = None
            ) -> Tuple[int, bytes, float]:
    """One HTTP exchange: ``(status, body, elapsed_ms)``; status 0 on a
    connection error or timeout."""
    started = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=HTTP_TIMEOUT_S)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        status = response.status
    except (OSError, http.client.HTTPException):
        status, data = 0, b""
    finally:
        conn.close()
    return status, data, 1000 * (time.perf_counter() - started)


def _metrics_digest(record: dict) -> str:
    from repro.experiments.records import RunRecord
    return digest(RunRecord.from_json(record).scalar_metrics())


def round_trip(port: int, op: Op, budget: int) -> Sample:
    """POST, poll to completion, fetch the record; never raises."""
    sample = Sample(op.kind, ok=False)
    try:
        return _round_trip(port, op, budget, sample)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        sample.ok = False
        sample.error = f"malformed response: {exc!r}"
        return sample


def _round_trip(port: int, op: Op, budget: int, sample: Sample) -> Sample:
    started = time.perf_counter()
    status, body, sample.post_ms = request(port, "POST", "/runs", {
        "workloads": [op.workload], "configs": [op.config],
        "instructions": budget, "seed": op.seed})
    if status != 201:
        sample.error = f"POST /runs -> {status}"
        return sample
    job = json.loads(body)
    sample.job = job["id"]
    sample.key = job["cells"][0]["key"]
    deadline = started + JOB_TIMEOUT_S
    while True:
        status, body, elapsed = request(port, "GET", f"/runs/{sample.job}")
        sample.poll_ms.append(elapsed)
        if status != 200:
            sample.error = f"GET /runs/{sample.job} -> {status}"
            return sample
        state = json.loads(body)["state"]
        if state in ("done", "failed"):
            break
        if time.perf_counter() > deadline:
            sample.error = f"job {sample.job} still {state} after timeout"
            return sample
        time.sleep(POLL_S)
    if state != "done":
        sample.error = f"job {sample.job} {state}"
        return sample
    status, body, sample.record_ms = request(port, "GET",
                                             f"/records/{sample.key}")
    sample.total_ms = 1000 * (time.perf_counter() - started)
    if status != 200:
        sample.error = f"GET /records/{sample.key} -> {status}"
        return sample
    record = json.loads(body)
    if (record.get("workload"), record.get("config"),
            record.get("instructions")) != (op.workload, op.config, budget):
        sample.error = f"record {sample.key} does not match {op}"
        return sample
    sample.metrics_digest = _metrics_digest(record)
    sample.ok = True
    return sample


def _client(port: int, ops: List[Op], budget: int,
            barrier: threading.Barrier, out: List[Sample]) -> None:
    """A closed loop: each round trip starts THINK_S after the last one
    ended."""
    for op in ops:
        if op.kind == "dup":
            try:
                barrier.wait(timeout=JOB_TIMEOUT_S)
            except threading.BrokenBarrierError:
                out.append(Sample(op.kind, ok=False,
                                  error="partner client never arrived"))
                continue
        time.sleep(THINK_S)
        out.append(round_trip(port, op, budget))


def _prometheus(port: int) -> Dict[str, float]:
    """``/metrics`` counters summed over their labels."""
    status, body, _ = request(port, "GET", "/metrics")
    totals: Dict[str, float] = {}
    if status != 200:
        return totals
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


Cell = Tuple[str, str, int]   # (workload, system, seed)


def _reference(cells: List[Cell], budget: int) -> Dict[Cell, str]:
    """Each cell's ``scalar_metrics`` digest, simulated in-process."""
    from repro.common.params import all_configs
    from repro.experiments.records import record_from_outcome
    from repro.sim.runner import run_workload, warmup_budget
    from repro.workloads.registry import get_spec
    configs = {config.name: config for config in all_configs()}
    out = {}
    for workload, system, seed in cells:
        outcome = run_workload(configs[system], workload, budget, seed,
                               warmup=warmup_budget(budget), telemetry=False)
        record = record_from_outcome(outcome, get_spec(workload).category)
        out[(workload, system, seed)] = digest(record.scalar_metrics())
    return out


def _reference_cells(seed: int, plans: List[List[Op]]) -> List[Cell]:
    """Every hot cell, and RECOMPUTED_FRESH fresh cells drawn by seed.

    The fresh cells are drawn from the hot cells' systems only: a
    Base-3L run takes more memory in this process, which would make
    ``peak_rss_mb`` depend on the seed.
    """
    hot = [(w, c, seed) for w in PAPER_WORKLOADS for c in HOT_SYSTEMS]
    fresh = sorted({(op.workload, op.config, op.seed) for ops in plans
                    for op in ops
                    if op.kind != "hit" and op.config in HOT_SYSTEMS})
    rng = random.Random(seed)
    return hot + rng.sample(fresh, min(RECOMPUTED_FRESH, len(fresh)))


@dataclass
class Session:
    per_client: List[List[Sample]]
    wall_s: float
    speed: float      # times the round trips' wall time gives reference time
    before: Dict[str, float]
    after: Dict[str, float]
    health: dict
    hot_served: Dict[str, str]

    @property
    def samples(self) -> List[Sample]:
        return [sample for client in self.per_client for sample in client]


def _session(outcome: Outcome, seed: int, budget: int,
             plans: List[List[Op]], daemon: Daemon) -> Session:
    """Prime the hot cells, then run both clients to completion.

    The host-speed factor comes only from calibrations taken while the
    daemon is idle: after priming, at each duplicate pair's barrier
    (both clients parked, no job in flight) and after the last round
    trip.  Calibrating beside the daemon's own work would tie the
    factor to how much CPU the program burns.
    """
    status, body, _ = request(daemon.port, "POST", "/runs", {
        "workloads": list(PAPER_WORKLOADS), "configs": list(HOT_SYSTEMS),
        "instructions": budget, "seed": seed})
    hot_served: Dict[str, str] = {}
    if status == 201:
        primed = json.loads(body)
        deadline = time.perf_counter() + 120
        state = primed["state"]
        while state not in ("done", "failed") and (
                time.perf_counter() < deadline):
            time.sleep(0.05)
            status, body, _ = request(daemon.port, "GET",
                                      f"/runs/{primed['id']}")
            if status != 200:
                break
            state = json.loads(body)["state"]
        for cell in primed["cells"]:
            status, body, _ = request(daemon.port, "GET",
                                      f"/records/{cell['key']}")
            if status == 200:
                hot_served[f"{cell['workload']}/{cell['config']}"] = (
                    _metrics_digest(json.loads(body)))
    before = _prometheus(daemon.port)
    clock = HostClock()

    def calibrate_idle() -> None:
        for _ in range(IDLE_CALIBRATIONS):
            clock.calibrate()

    calibrate_idle()
    barrier = threading.Barrier(CLIENTS, action=calibrate_idle)
    results: List[List[Sample]] = [[] for _ in range(CLIENTS)]
    threads = [threading.Thread(target=_client, args=(
        daemon.port, plans[i], budget, barrier, results[i]))
        for i in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOB_TIMEOUT_S * (len(plans[0]) + 1))
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        barrier.abort()
        outcome.op(False, "a client did not finish")
    else:
        calibrate_idle()
    after = _prometheus(daemon.port)
    health = json.loads(request(daemon.port, "GET", "/healthz")[1] or b"{}")
    return Session(results, wall, clock.factor(), before, after, health,
                   hot_served)


def _check(outcome: Outcome, session: Session, reference: Dict[Cell, str],
           goldens: Goldens, plans: List[List[Op]], seed: int,
           budget: int) -> None:
    from repro.experiments.runner import run_cache_key
    from repro.sim.runner import warmup_budget

    for workload in PAPER_WORKLOADS:
        for system in HOT_SYSTEMS:
            name = f"{workload}/{system}"
            served = session.hot_served.get(name)
            ok = served == reference[(workload, system, seed)]
            if goldens.available or goldens.write:
                ok = goldens.matches(name, served or "") and ok
            outcome.op(ok, f"hot cell {name}: served metrics differ from "
                           f"reference")
    hot_served = session.hot_served
    dup_served: Dict[int, str] = {}
    for ops, samples in zip(plans, session.per_client):
        for index, (op, sample) in enumerate(zip(ops, samples)):
            if sample.ok:
                # A duplicate's partner sample sits at the same index.
                partner = (dup_served.setdefault(index, sample.metrics_digest)
                           if op.kind == "dup" else sample.metrics_digest)
                expected = (hot_served.get(f"{op.workload}/{op.config}")
                            if op.kind == "hit" else
                            reference.get((op.workload, op.config, op.seed),
                                          sample.metrics_digest))
                if sample.key != run_cache_key(op.workload, op.config, budget,
                                               op.seed, warmup_budget(budget)):
                    sample.error = f"{op} was served as key {sample.key}"
                elif sample.metrics_digest != expected:
                    sample.error = f"{op} served other metrics than expected"
                elif sample.metrics_digest != partner:
                    sample.error = f"the halves of {op} served other metrics"
                sample.ok = not sample.error
            outcome.op(sample.ok, sample.error)


def run(scratch: Scratch, seed: int, seconds: float, size: str,
        goldens: Goldens, trace: bool) -> Outcome:
    from repro.sim.runner import warmup_budget

    outcome = Outcome()
    budget = INSTRUCTIONS[size]
    per_run = budget + warmup_budget(budget)
    per_client = max(10, round(seconds * REQUESTS_PER_SECOND[size]))
    compile_bytecode(scratch, ("repro.cli", "repro.serve.app"))
    starts = []
    for _ in range(DAEMON_STARTS - 1):
        daemon = Daemon(scratch, {})
        try:
            starts.append(daemon.start().ready_s)
        finally:
            daemon.stop()
    plans = plan_ops(seed, per_client)
    reference = _reference(_reference_cells(seed, plans), budget)
    sessions = []
    for traced in ((False, True) if trace else (False,)):
        log_file = scratch.fresh_dir("runlog") / "run.jsonl"
        daemon = Daemon(scratch, {"REPRO_LOG": str(log_file)} if traced
                        else {})
        try:
            daemon.start()
            if not traced:
                starts.append(daemon.ready_s)
            session = _session(outcome, seed, budget, plans, daemon)
            spans = _spans(daemon.port, session) if traced else {}
        finally:
            daemon.stop()
        _check(outcome, session, reference, goldens, plans, seed, budget)
        sessions.append((session, spans, log_file))
    outcome.metrics["setup_s"] = statistics.median(starts)

    session = sessions[0][0]
    ok = [s for s in session.samples if s.ok]
    hits = [s.total_ms * session.speed for s in ok if s.kind == "hit"]
    misses = [s.total_ms * session.speed for s in ok if s.kind == "miss"]
    outcome.info.update(
        round_trips=len(session.samples), hit_samples=len(hits),
        miss_samples=len(misses), driver_jobs=WORKERS,
        hit_ms_p50=round(percentile(hits, 0.5), 3),
        hit_ms_p90=round(percentile(hits, 0.9), 3),
        rps=round(len(session.samples) / (session.wall_s * session.speed), 3),
        wall_hit_ms_mean=round(statistics.mean(
            [s.total_ms for s in ok if s.kind == "hit"] or [0.0]), 3),
        wall_miss_ms_p50=round(statistics.median(
            [s.total_ms for s in ok if s.kind == "miss"] or [0.0]), 3),
        instructions_per_run=budget)
    if not trace:
        # The mean, not the median: a hit shares the CPUs with the
        # other client's miss, so one run's hit latencies spread from
        # 15 to 500 ms, and there the median of one run wanders about
        # half again as far as the mean (perfbench/README.md).
        outcome.metrics["warm_ms"] = statistics.mean(hits)
        outcome.metrics["cold_ms"] = statistics.median(misses)
        outcome.metrics["sim_ips"] = (len(session.samples) * per_run
                                      / (session.wall_s * session.speed))
        return outcome
    traced_session, spans, log_file = sessions[1]
    _layer_metrics(outcome, traced_session, spans, log_file, plans, per_run)
    # The program runs in the daemon, which is not sampled: no layer's
    # self time is observable here, so it all reads as "other".
    outcome.metrics.update(Sampler().shares())
    outcome.metrics["trace_overhead.serve"] = (traced_session.wall_s
                                               - session.wall_s)
    return outcome


def _spans(port: int, session: Session) -> Dict[str, List[float]]:
    """Per-stage durations (ms) from every measured job's trace."""
    stages: Dict[str, List[float]] = {}
    for sample in session.samples:
        if not sample.job:
            continue
        status, body, _ = request(port, "GET", f"/runs/{sample.job}/trace")
        if status != 200:
            continue
        for event in json.loads(body).get("traceEvents", []):
            if event.get("ph") != "X":
                continue
            name = event.get("name", "")
            if name == "claim":
                value = 1000 * float(event.get("args", {}).get("wait_s", 0))
            else:
                value = float(event.get("dur", 0.0)) / 1000
            stages.setdefault(name, []).append(value)
    return stages


def _layer_metrics(outcome: Outcome, session: Session,
                   spans: Dict[str, List[float]], log_file: Path,
                   plans: List[List[Op]], per_run: int) -> None:
    metrics = outcome.metrics

    def p50(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    for stage, name in (("validate", "validate"), ("enqueue", "enqueue"),
                        ("claim", "claim_wait"), ("simulate", "simulate"),
                        ("coalesce-wait", "coalesce_wait"),
                        ("respond", "respond")):
        metrics[f"serve.{name}_ms"] = p50(spans.get(stage, []))
    samples = session.samples
    metrics["serve.post_ms"] = p50([s.post_ms for s in samples])
    metrics["serve.poll_ms"] = p50([p for s in samples for p in s.poll_ms])
    metrics["serve.record_get_ms"] = p50([s.record_ms for s in samples
                                          if s.ok])
    hits = [s.total_ms * session.speed for s in samples
            if s.ok and s.kind == "hit"]
    misses = [s.total_ms * session.speed for s in samples
              if s.ok and s.kind == "miss"]
    metrics["serve.hit_ms_p50"] = percentile(hits, 0.5)
    metrics["serve.hit_ms_p90"] = percentile(hits, 0.9)
    metrics["serve.hit_samples"] = len(hits)
    metrics["serve.miss_samples"] = len(misses)
    metrics["serve.rps"] = len(samples) / (session.wall_s * session.speed)
    metrics["serve.polls_per_job"] = (sum(len(s.poll_ms) for s in samples)
                                      / max(len(samples), 1))
    metrics["serve.queue_jobs"] = sum(session.health.get("jobs", {}).values())

    def delta(name: str) -> float:
        return session.after.get(name, 0.0) - session.before.get(name, 0.0)

    simulations = delta("repro_simulations_total")
    metrics["serve.cache_hits"] = delta("repro_cache_hits_total")
    metrics["serve.cache_misses"] = delta("repro_cache_misses_total")
    metrics["serve.coalesced"] = delta("repro_coalesce_hits_total")
    metrics["serve.simulations"] = simulations
    distinct_missed = {(op.workload, op.config, op.seed)
                       for client in plans for op in client
                       if op.kind != "hit"}
    metrics["serve.duplicate_simulations"] = simulations - len(distinct_missed)
    # The priming job's runs are logged first; keep the measured ones.
    events = list(read_run_log(log_file))
    metrics.update(run_metrics(events[-int(simulations):] if simulations
                               else [], per_run))
