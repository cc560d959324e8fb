"""Shared plumbing of the benchmark: isolation, timing, goldens, results.

Everything here runs inside the benchmark process.  The program under
test (``src/repro``) is imported only after :func:`scrub_environment`
has removed every ``REPRO_*`` knob the caller's shell may carry, so a
stray ``REPRO_BATCHED=1`` or ``REPRO_INSTRUCTIONS`` can change neither
a metric nor a golden.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDENS = HERE / "goldens.json"

#: scratch space for caches, queues and logs; inside the checkout, and
#: removed when the run ends
SCRATCH_PARENT = ROOT / ".perfbench_tmp"

#: the seeds whose outputs are pinned by committed golden digests: the
#: default seed and one held out while the benchmark was written
GOLDEN_SEEDS = (1, 7)

#: the paper workloads every workload draws from (why each, in
#: perfbench/README.md)
PAPER_WORKLOADS = ("tpcc", "swaptions", "canneal", "lu", "amazon")

#: the five evaluated systems, by ``SystemConfig.name``
SYSTEMS = ("Base-2L", "Base-3L", "D2M-FS", "D2M-NS", "D2M-NS-R")


#: how long :func:`_calibration_work` takes on the reference host
CAL_REFERENCE_S = 0.010
CAL_ITERATIONS = 35_000


def _calibration_work() -> int:
    """A fixed slice of interpreter work (dict traffic and integer
    arithmetic, like the simulator's), owned by the benchmark so no
    change to the program can alter it."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(CAL_ITERATIONS):
        table[i & 1023] = total
        total += table.get((i * 7) & 1023, 0) ^ i
    return total


@dataclass
class Span:
    wall: float = 0.0       # seconds as measured, calibrations excluded
    scaled: float = 0.0     # seconds at the reference host's speed
    _mark: float = 0.0      # start of the current segment
    _cal: float = 0.0       # calibration that opened it


class HostClock:
    """Wall time rescaled to a reference host speed.

    On a shared host the CPU's speed drifts by tens of percent within
    seconds (the same 10 ms loop measured 25-37 ms two seconds apart),
    and that drift is common to everything running on the CPU.  So a
    timed span is cut into segments by runs of :func:`_calibration_work`
    -- at its start and end, and at every :meth:`checkpoint` inside it --
    and each segment's wall time is scaled by ``CAL_REFERENCE_S / (mean
    of the calibrations around it)``.  Calibration time itself is not
    counted.  The calibration loop is benchmark code, so a change to the
    program moves scaled time as much as wall time, while host drift
    largely cancels.  Calibrations never overlap one another: a lock
    serialises them across threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open = threading.local()
        self.samples: List[float] = []

    def calibrate(self) -> float:
        with self._lock:
            started = time.perf_counter()
            _calibration_work()
            elapsed = time.perf_counter() - started
            self.samples.append(elapsed)
            return elapsed

    def _close_segment(self, span: Span) -> None:
        wall = time.perf_counter() - span._mark
        cal = self.calibrate()
        span.wall += wall
        span.scaled += wall * CAL_REFERENCE_S / ((span._cal + cal) / 2)
        span._cal = cal
        span._mark = time.perf_counter()

    @contextmanager
    def span(self) -> Iterator[Span]:
        span = Span(_cal=self.calibrate())
        outer = getattr(self._open, "span", None)
        self._open.span = span
        span._mark = time.perf_counter()
        try:
            yield span
        finally:
            self._close_segment(span)
            self._open.span = outer

    def checkpoint(self) -> None:
        """Start a new segment of this thread's open span, if any."""
        span = getattr(self._open, "span", None)
        if span is not None:
            self._close_segment(span)

    def factor(self) -> float:
        """Reference time per wall second over every calibration so far.

        For work done in another process, such as a daemon's requests:
        a whole run's mean calibration tracks the host's speed there,
        where one bracket of 10 ms samples is too noisy.
        """
        if not self.samples:
            return 1.0
        return CAL_REFERENCE_S / statistics.mean(self.samples)


def scrub_environment() -> List[str]:
    """Remove every ``REPRO_*`` variable from this process's environment.

    Child processes inherit the scrubbed environment.  Returns the names
    removed, so the run can record that it overrode them.
    """
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


class Scratch:
    """A private directory under the checkout, removed on exit.

    Subprocesses get their own bytecode cache inside it, so neither the
    benchmark nor the daemons it starts write ``__pycache__`` into the
    source tree.
    """

    def __init__(self) -> None:
        self.path = Path()

    def __enter__(self) -> "Scratch":
        SCRATCH_PARENT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-",
                                          dir=str(SCRATCH_PARENT)))
        return self

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass

    def fresh_dir(self, name: str) -> Path:
        """A new empty directory ``<scratch>/<name>-N``."""
        return Path(tempfile.mkdtemp(prefix=name + "-", dir=str(self.path)))

    def child_env(self, **extra: str) -> Dict[str, str]:
        """The environment for a program subprocess."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else []))
        env["PYTHONPYCACHEPREFIX"] = str(self.path / "pycache")
        env.update(extra)
        return env


def _import_command(modules: Sequence[str]) -> List[str]:
    return [sys.executable, "-c", "import " + ", ".join(modules)]


def compile_bytecode(scratch: Scratch, modules: Sequence[str]) -> None:
    """Import ``modules`` once in a fresh interpreter, filling the
    scratch bytecode cache that later subprocesses reuse."""
    subprocess.run(_import_command(modules), env=scratch.child_env(),
                   cwd=str(scratch.path), check=True, timeout=120)


def time_imports(scratch: Scratch, modules: Sequence[str],
                 repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter importing ``modules``.

    The bytecode is compiled first, untimed, so every timed sample sees
    the same warm bytecode cache.  Wall time, not :class:`HostClock`
    time: the child may run on another CPU than the calibration.
    """
    compile_bytecode(scratch, modules)
    command = _import_command(modules)
    env = scratch.child_env()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(command, env=env, cwd=str(scratch.path), check=True,
                       timeout=120)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MB.

    ``ru_maxrss`` is in KiB on Linux.  Children count once they have been
    waited for; grandchildren count when their parent waited for them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(round(fraction * len(ordered) + 0.4999999)))
    return ordered[min(rank, len(ordered)) - 1]


def digest(value: object) -> str:
    """Short content digest of a JSON-able value (float repr is exact)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def source_identity() -> Dict[str, str]:
    """The commit when the checkout is a git repository, plus a digest of
    ``src/`` that identifies the code either way."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    commit = "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_digest": hasher.hexdigest()[:16]}


class Goldens:
    """Committed output digests: ``data[workload][size][seed][name]``.

    ``write=True`` records every checked value instead of comparing, for
    regenerating the file at a new commit (``--write-goldens``).
    """

    def __init__(self, path: Path, workload: str, size: str, seed: int,
                 write: bool = False) -> None:
        self.path = path
        self.workload = workload
        self.size = size
        self.seed = str(seed)
        self.write = write
        try:
            self.data = json.loads(path.read_text())
        except FileNotFoundError:
            self.data = {}
        self.expected: Optional[Dict[str, str]] = (
            self.data.get(workload, {}).get(size, {}).get(self.seed))
        self.recorded: Dict[str, str] = {}

    @property
    def available(self) -> bool:
        """Whether this seed and size have committed digests."""
        return self.expected is not None and not self.write

    def matches(self, name: str, value_digest: str) -> bool:
        """Compare (or, when writing, record) one digest."""
        if self.write:
            self.recorded[name] = value_digest
            return True
        return (self.expected is not None
                and self.expected.get(name) == value_digest)

    def save(self) -> None:
        if not self.write:
            return
        self.data.setdefault(self.workload, {}).setdefault(
            self.size, {})[self.seed] = dict(sorted(self.recorded.items()))
        self.path.write_text(json.dumps(self.data, indent=1, sort_keys=True)
                             + "\n")


@dataclass
class Outcome:
    """What one workload invocation reports."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one attempted operation; a failed one records ``what``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def fail_existing(self, what: str) -> None:
        """Mark an already-counted operation as failed (a later check)."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def load_metric_spec() -> Dict[str, Dict[str, str]]:
    """``{name: {"unit", "kind"}}`` for every metric in BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    out: Dict[str, Dict[str, str]] = {}
    for kind in ("end_to_end", "per_layer"):
        for entry in spec[kind]:
            out[entry["name"]] = {"unit": entry["unit"], "kind": kind}
    return out


def render_result(outcome: Outcome, trace: bool) -> Dict[str, object]:
    """The final JSON line: every metric of the requested kind, by name
    and unit from BENCHMARK.json."""
    spec = load_metric_spec()
    kind = "per_layer" if trace else "end_to_end"
    metrics: Dict[str, Dict[str, object]] = {}
    for name, entry in spec.items():
        if entry["kind"] != kind:
            continue
        if name not in outcome.metrics:
            raise KeyError(f"workload did not measure metric {name!r}")
        metrics[name] = {"value": float(outcome.metrics[name]),
                         "unit": entry["unit"]}
    failed = min(outcome.failed, outcome.attempted)
    return {"correct": failed == 0 and outcome.attempted > 0,
            "attempted": max(outcome.attempted, 1),
            "failed": failed if outcome.attempted else 1,
            "metrics": metrics}
