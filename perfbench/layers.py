"""Per-layer measurement for the traced runs.

Three sources, none of which changes the program:

* :class:`LayerTimer` wraps the public functions that enter a layer
  (``build_hierarchy``, ``make_workload``, ``Simulator.run``,
  ``PerfModel.summarize``, ``record_from_outcome``, ``StatGroup.flatten``)
  for the duration of a traced run, in every ``repro`` module that
  imported them, and restores them afterwards;
* :class:`Sampler` is a stdlib sampling profiler: a thread reads the
  main thread's stack (``sys._current_frames``) about once a
  millisecond and charges each sample to the layer of the innermost
  ``repro`` frame, which gives each layer's share of self time;
* :func:`read_run_log` reads the program's own structured log
  (``REPRO_LOG`` ``run.start``/``run.end`` events), the only view into
  runs that happen in worker processes or in the serving daemon.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.common import PAPER_WORKLOADS, SYSTEMS

#: self-time buckets: the protocol, the arrays, then the other layers
SHARE_LAYERS = ("core.protocol", "core.arrays", "mem", "baseline", "noc",
                "sim.batch", "sim.simulator", "workloads", "obs", "energy",
                "common.stats", "other")

_ARRAY_FILES = ("node.py", "datastore.py", "llc.py", "md3.py", "li.py")


def family(config_name: str) -> str:
    """``d2m`` for the split hierarchy, ``base`` for the MESI baselines."""
    return "d2m" if config_name.startswith("D2M") else "base"


def layer_of(filename: str) -> Optional[str]:
    """The self-time bucket of a source file, or None outside ``repro``."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    rel = path[at + len(marker):]
    package, _, rest = rel.partition("/")
    if package == "core":
        if rest == "protocol.py":
            return "core.protocol"
        return "core.arrays" if rest in _ARRAY_FILES else "other"
    if package in ("mem", "baseline", "noc", "workloads", "obs", "energy"):
        return package
    if rel == "sim/batch.py":
        return "sim.batch"
    if rel == "sim/simulator.py":
        return "sim.simulator"
    if rel == "common/stats.py":
        return "common.stats"
    return "other"


class Sampler:
    """Samples the main thread's innermost ``repro`` frame by layer.

    A sample with no ``repro`` frame on the stack (the benchmark's own
    code) is not the program's time and is dropped.  Worker processes
    are not sampled.  Setting ``paused`` excludes work
    the benchmark itself adds (re-draining a workload's stream).
    """

    def __init__(self, interval_s: float = 0.001) -> None:
        self.interval_s = interval_s
        self.counts: Counter = Counter()
        self.paused = False
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target = threading.main_thread().ident
        self._cache: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "Sampler":
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="perfbench-sampler")
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)

    def _layer(self, filename: str) -> Optional[str]:
        if filename not in self._cache:
            self._cache[filename] = layer_of(filename)
        return self._cache[filename]

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            if self.paused:
                continue
            frame = sys._current_frames().get(self._target)
            while frame is not None:
                layer = self._layer(frame.f_code.co_filename)
                if layer is not None:
                    self.counts[layer] += 1
                    break
                frame = frame.f_back

    def shares(self) -> Dict[str, float]:
        """``self_share.<layer>`` values; they sum to 1 (all ``other``
        when nothing was sampled)."""
        total = sum(self.counts.values())
        if not total:
            return {f"self_share.{name}": float(name == "other")
                    for name in SHARE_LAYERS}
        return {f"self_share.{name}": self.counts[name] / total
                for name in SHARE_LAYERS}


class LayerTimer:
    """Times calls into the simulation layers' public entry points.

    Patches are installed on enter and removed on exit.  A wrapped
    function re-entered from inside itself (``StatGroup.flatten``
    recurses) is timed once, at the outermost call.  The workload
    stream is timed by :meth:`drain`: ``Simulator.run`` notes each
    stream the driver consumes, and the caller drains them again after
    its own timed work.
    """

    def __init__(self, sampler: Optional[Sampler] = None) -> None:
        self.sampler = sampler
        self.seconds: Dict[str, float] = defaultdict(float)
        self._restore: List[Tuple[object, str, object]] = []
        self._streams: List[Tuple[object, int, int]] = []

    def _timed(self, name: str, original: Callable) -> Callable:
        depth = [0]

        def wrapper(*args: object, **kwargs: object) -> object:
            if depth[0]:
                return original(*args, **kwargs)
            depth[0] += 1
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - started
                depth[0] -= 1
        return wrapper

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Rebind ``original`` to ``wrapper`` wherever a loaded ``repro``
        module imported it by name."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _remember_stream(self, original: Callable) -> Callable:
        """``Simulator.run``: note the stream the driver consumes."""
        streams = self._streams

        def run(sim: object, workload: object, n_instructions: int,
                seed: int = 0, warmup: int = 0,
                batched: bool = False) -> object:
            streams.append((workload, warmup + n_instructions, seed))
            return original(sim, workload, n_instructions, seed=seed,
                            warmup=warmup, batched=batched)
        return run

    def drain(self) -> None:
        """Drain every stream noted since the last call, alone, into
        ``workloads.generate_s``.

        Call it after the timed work, so the second generation is in
        no span, wall time or sample of the program's.
        """
        if self.sampler is not None:
            self.sampler.paused = True
        try:
            for workload, total, seed in self._streams:
                generate = getattr(workload, "generate_fast",
                                   getattr(workload, "generate"))
                started = time.perf_counter()
                for _ in generate(total, seed):
                    pass
                self.seconds["workloads.generate_s"] += (
                    time.perf_counter() - started)
        finally:
            self._streams.clear()
            if self.sampler is not None:
                self.sampler.paused = False

    def __enter__(self) -> "LayerTimer":
        from repro.common.stats import StatGroup
        from repro.core.hierarchy import build_hierarchy
        from repro.experiments.records import record_from_outcome
        from repro.sim.perf import PerfModel
        from repro.sim.simulator import Simulator
        from repro.workloads.registry import make_workload

        self._patch_function(build_hierarchy, self._timed(
            "hierarchy.build_s", build_hierarchy))
        self._patch_function(make_workload, self._timed(
            "workloads.build_s", make_workload))
        self._patch_function(record_from_outcome, self._timed(
            "records.build_s", record_from_outcome))
        self._patch(PerfModel, "summarize", self._timed(
            "perf.summarize_s", PerfModel.summarize))
        self._patch(StatGroup, "flatten", self._timed(
            "stats.flatten_s", StatGroup.flatten))
        self._patch(Simulator, "run", self._remember_stream(Simulator.run))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        """Remove the patches and pause the sampler for a while: around
        a process pool, whose forked workers would otherwise inherit the
        patches, and whose waiting parent does no work of its own."""
        self.__exit__()
        if self.sampler is not None:
            self.sampler.paused = True
        try:
            yield
        finally:
            if self.sampler is not None:
                self.sampler.paused = False
            self.__enter__()

    def metrics(self) -> Dict[str, float]:
        return {name: self.seconds.get(name, 0.0) for name in (
            "workloads.build_s", "workloads.generate_s", "hierarchy.build_s",
            "perf.summarize_s", "records.build_s", "stats.flatten_s")}


def read_run_log(path: Path) -> Iterator[Dict[str, object]]:
    """The ``run.end`` events of a ``REPRO_LOG`` file."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return
    for line in lines:
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict) and event.get("event") == "run.end":
            yield event


def run_metrics(events: List[Dict[str, object]],
                instructions_per_run: int) -> Dict[str, float]:
    """``sim.run_s*`` and ``sim.ips.*`` from ``run.end`` events.

    Each run's host time is its logged ``elapsed_s`` (driver plus
    performance summary, hierarchy build excluded).  Instructions count
    the warm-up, as ``sim_ips`` does; every run of one benchmark
    workload has the same budget.
    """
    total = {"base": 0.0, "d2m": 0.0}
    by_workload: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    by_system: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for event in events:
        elapsed = float(event.get("elapsed_s", 0.0) or 0.0)
        config = str(event.get("config", ""))
        workload = str(event.get("workload", ""))
        total[family(config)] += elapsed
        for table, key in ((by_workload, workload), (by_system, config)):
            table[key][0] += instructions_per_run
            table[key][1] += elapsed
    out = {"sim.run_s": total["base"] + total["d2m"],
           "sim.run_s.base": total["base"], "sim.run_s.d2m": total["d2m"]}
    for name in PAPER_WORKLOADS:
        instr, secs = by_workload.get(name, (0.0, 0.0))
        out[f"sim.ips.{name}"] = instr / secs if secs else 0.0
    for name in SYSTEMS:
        instr, secs = by_system.get(name, (0.0, 0.0))
        out[f"sim.ips.{name}"] = instr / secs if secs else 0.0
    return out
