"""Self-test of the benchmark at tiny size (a few minutes on 2 cores).

Run from the repository root::

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -p no:cacheprovider \\
        perfbench/test_perfbench.py -q

For every workload it checks that the printed metric names and units
are exactly BENCHMARK.json's, that a corrupted golden is reported as a
failure, that stray ``REPRO_*`` variables change no metric name and no
golden, that a run leaves the working tree unchanged, and that the
traced run reports every per-layer metric with self-time shares that
sum to 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
STRAY_ENV = {"REPRO_BATCHED": "1", "REPRO_INSTRUCTIONS": "777",
             "REPRO_WARMUP": "5", "REPRO_WORKLOADS": "water"}


def _bench(workload: str, goldens: Path, trace: int = 0,
           extra: Tuple[str, ...] = (),
           env: Optional[Dict[str, str]] = None) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--size", "tiny", "--goldens", str(goldens), *extra]
    run_env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
    run_env.update(env or {})
    done = subprocess.run(command, cwd=str(ROOT), env=run_env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _units(kind: str) -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in SPEC[kind]}


def _tree() -> Dict[str, float]:
    """Every file under the checkout except git's own, with its mtime."""
    out = {}
    for path in ROOT.rglob("*"):
        if ".git" in path.relative_to(ROOT).parts or not path.is_file():
            continue
        out[str(path)] = path.stat().st_mtime
    return out


@pytest.fixture(scope="module")
def goldens(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """Tiny-size goldens for seed 1, written by the benchmark itself."""
    path = tmp_path_factory.mktemp("goldens") / "goldens.json"
    for workload in WORKLOADS:
        result = _bench(workload, path, extra=("--write-goldens",))
        assert result["correct"], result
    return path


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_names_units_and_isolation(workload: str,
                                              goldens: Path) -> None:
    before = _tree()
    result = _bench(workload, goldens, env=STRAY_ENV)
    assert _tree() == before, "the run changed the working tree"
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    printed = {name: value["unit"]
               for name, value in result["metrics"].items()}
    assert printed == _units("end_to_end")
    for name, value in result["metrics"].items():
        assert value["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_golden_is_a_failure(workload: str, goldens: Path,
                                       tmp_path: Path) -> None:
    data = json.loads(goldens.read_text())
    entries = data[workload]["tiny"]["1"]
    first = sorted(entries)[0]
    entries[first] = "0" * len(entries[first])
    corrupted = tmp_path / "goldens.json"
    corrupted.write_text(json.dumps(data))
    result = _bench(workload, corrupted)
    assert not result["correct"]
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload: str,
                                        goldens: Path) -> None:
    result = _bench(workload, goldens, trace=1)
    assert result["correct"], result
    metrics = result["metrics"]
    assert {name: value["unit"] for name, value in metrics.items()} == (
        _units("per_layer"))
    shares = [value["value"] for name, value in metrics.items()
              if name.startswith("self_share.")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert metrics[f"trace_overhead.{workload}"]["value"] != 0
    if workload == "simulate":
        assert metrics["sim.run_s"]["value"] > 0
        assert metrics["hierarchy.build_s"]["value"] > 0
        assert metrics["workloads.generate_s"]["value"] > 0
        assert metrics["records.build_s"]["value"] == 0  # builds none
    if workload == "reproduce":
        assert metrics["cache.warm_hits"]["value"] == 30
        assert metrics["cache.warm_misses"]["value"] == 0
        assert metrics["harness.ablation_md_scaling_s"]["value"] > 0
    if workload == "serve":
        assert metrics["serve.simulations"]["value"] > 0
        assert metrics["serve.duplicate_simulations"]["value"] == 0
        assert metrics["serve.validate_ms"]["value"] > 0


def test_missing_program_sources_exit_nonzero(tmp_path: Path) -> None:
    """Only BENCHMARK.json and perfbench/: no result, non-zero exit."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _served(kind: str) -> Tuple[int, int]:
    """Failed and attempted counts of serve's check on one fabricated
    session, every sample correct except as ``kind`` says."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import serve
    from perfbench.common import Goldens, Outcome
    from repro.experiments.runner import run_cache_key
    from repro.sim.runner import warmup_budget

    budget, seed = 200, 1
    plans = serve.plan_ops(seed, 10)
    hot = {f"{w}/{c}": "hot" for w in serve.PAPER_WORKLOADS
           for c in serve.HOT_SYSTEMS}
    reference = {(w, c, seed): "hot" for w in serve.PAPER_WORKLOADS
                 for c in serve.HOT_SYSTEMS}
    per_client = []
    for client, ops in enumerate(plans):
        samples = []
        for op in ops:
            key = run_cache_key(op.workload, op.config, budget, op.seed,
                                warmup_budget(budget))
            metrics = "hot" if op.kind == "hit" else f"fresh-{op.seed}"
            if op.kind == "miss" and kind == "wrong-key":
                key = "0" * len(key)
            if op.kind == "dup" and client == 1 and kind == "split-dup":
                metrics = "other"
            samples.append(serve.Sample(op.kind, ok=True, key=key,
                                        metrics_digest=metrics))
        per_client.append(samples)
    session = serve.Session(per_client, 1.0, 1.0, {}, {}, {}, hot)
    outcome = Outcome()
    serve._check(outcome, session, reference,
                 Goldens(ROOT / "missing.json", "serve", "tiny", seed),
                 plans, seed, budget)
    return outcome.failed, outcome.attempted


def test_serve_check_catches_wrong_key_and_split_duplicates() -> None:
    assert _served("none") == (0, 30)
    assert _served("wrong-key")[0] == 4   # every miss: two per client
    assert _served("split-dup")[0] == 1   # the second half of the pair
