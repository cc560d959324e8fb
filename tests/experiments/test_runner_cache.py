"""Per-run sweep cache: key sensitivity, hit/miss, recovery, parallelism."""

import json
from dataclasses import replace

import pytest

import repro.experiments.runner as runner
from repro.common.params import base_2l, d2m_fs, d2m_ns
from repro.experiments.runner import SweepError, get_matrix, run_cache_key


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FRESH", raising=False)
    monkeypatch.delenv("REPRO_WARMUP", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return tmp_path


def run_files(cache):
    return sorted((cache / "runs").glob("*.json"))


class TestCacheKey:
    BASE = dict(workload="water", config=d2m_ns(), instructions=1_000,
                seed=5, warmup=500)

    def key(self, **overrides):
        return run_cache_key(**{**self.BASE, **overrides})

    def test_stable(self):
        assert self.key() == self.key()

    @pytest.mark.parametrize("field,value", [
        ("workload", "lu"),
        pytest.param("config", d2m_fs(), id="config-D2M-FS"),
        # same name, other contents: each is a different record
        pytest.param("config", d2m_ns(2), id="config-nodes"),
        pytest.param("config", replace(d2m_ns(), policy=replace(
            d2m_ns().policy, bypass_low_reuse=True)), id="config-policy"),
        pytest.param("config", replace(d2m_ns().with_md_scale(2),
                                       name="D2M-NS"), id="config-md_scale"),
        ("instructions", 2_000),
        ("seed", 6),
        ("warmup", 100),
    ])
    def test_sensitive_to_every_input(self, field, value):
        assert self.key(**{field: value}) != self.key()

    def test_name_is_only_a_label(self):
        assert self.key(config=replace(d2m_ns(), name="other")) == self.key()

    def test_bare_name_is_the_paper_system(self):
        assert self.key(config="D2M-NS") == self.key()
        assert self.key(config="D2M-NS") != self.key(config=d2m_ns(4))

    def test_warmup_env_changes_selection(self, cache, monkeypatch):
        """REPRO_WARMUP is part of the key: no stale-matrix reuse."""
        get_matrix(workloads=["water"], configs=[base_2l(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1)
        assert len(run_files(cache)) == 1
        monkeypatch.setenv("REPRO_WARMUP", "100")
        get_matrix(workloads=["water"], configs=[base_2l(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1)
        assert len(run_files(cache)) == 2


class TestTelemetryCacheInterplay:
    def test_records_carry_hist_digests_by_default(self, cache):
        matrix = get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                            instructions=1_000, seed=5, quiet=True, jobs=1)
        record = matrix["water"]["D2M-FS"]
        assert record.hists
        assert "latency.L1" in record.hists

    def test_record_without_hists_is_a_miss_when_requested(self, cache):
        get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1,
                   telemetry=False)
        [path] = run_files(cache)
        assert json.loads(path.read_text())["hists"] == {}
        before = path.stat().st_mtime_ns
        matrix = get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                            instructions=1_000, seed=5, quiet=True, jobs=1)
        assert matrix["water"]["D2M-FS"].hists  # re-simulated with telemetry
        assert path.stat().st_mtime_ns != before

    def test_record_with_hists_serves_telemetry_off_sweeps(self, cache,
                                                           monkeypatch):
        get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1)

        def explode(spec):
            raise AssertionError("cache should have served this run")

        monkeypatch.setattr(runner, "run_spec", explode)
        matrix = get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                            instructions=1_000, seed=5, quiet=True, jobs=1,
                            telemetry=False)
        assert matrix["water"]["D2M-FS"].hists

    def test_profile_request_re_misses_unprofiled_records(self, cache):
        from repro.obs.profile import validate_profile

        get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1)
        [path] = run_files(cache)
        assert json.loads(path.read_text())["profile"] == {}
        before = path.stat().st_mtime_ns
        matrix = get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                            instructions=1_000, seed=5, quiet=True, jobs=1,
                            profile=True)
        record = matrix["water"]["D2M-FS"]
        assert record.profile and validate_profile(record.profile) == []
        assert path.stat().st_mtime_ns != before  # re-simulated, profiled
        # a profiled record then serves unprofiled sweeps from the cache
        after = path.stat().st_mtime_ns
        get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1)
        assert path.stat().st_mtime_ns == after

    def test_traced_sweep_stamps_runlog_and_specs(self, cache):
        from repro.experiments.runner import execute_plan, plan_matrix
        from repro.obs import runlog

        plan = plan_matrix(workloads=["water"], configs=[d2m_fs(2)],
                           instructions=1_000, seed=5)
        log_path = cache / "runlog.jsonl"
        runlog.configure(str(log_path))
        try:
            execute_plan(plan, quiet=True, jobs=1, trace="beef" * 4)
        finally:
            runlog.configure("")
        events = [json.loads(line)
                  for line in log_path.read_text().splitlines()]
        sweeps = [e for e in events
                  if e["event"] in ("sweep.start", "sweep.end")]
        assert len(sweeps) == 2
        assert all(e["trace"] == "beef" * 4 for e in sweeps)
        # the correlation id was stamped onto the specs that ran
        record = plan.matrix["water"]["D2M-FS"]
        assert record is not None

    def test_progress_jsonl_written(self, cache):
        get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1)
        events = [json.loads(line) for line in
                  (cache / "progress.jsonl").read_text().splitlines()]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "sweep.start"
        assert "run.done" in kinds
        assert kinds[-1] == "sweep.end"

    def test_heartbeat_dir_cleaned_up(self, cache, monkeypatch):
        import os
        monkeypatch.delenv("REPRO_PROGRESS_DIR", raising=False)
        get_matrix(workloads=["water"], configs=[d2m_fs(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1)
        assert not list(cache.glob("progress-*"))
        assert "REPRO_PROGRESS_DIR" not in os.environ


class TestPerRunCache:
    def count_runs(self, monkeypatch):
        """Count actual simulations through the in-process worker path."""
        calls = []
        real = runner.run_spec

        def counting(spec):
            calls.append((spec.workload, spec.config.name))
            return real(spec)

        monkeypatch.setattr(runner, "run_spec", counting)
        return calls

    def test_adding_a_workload_reuses_completed_runs(self, cache,
                                                     monkeypatch):
        configs = [base_2l(2), d2m_fs(2)]
        calls = self.count_runs(monkeypatch)
        get_matrix(workloads=["water"], configs=configs,
                   instructions=1_000, seed=5, quiet=True, jobs=1)
        assert len(calls) == 2
        matrix = get_matrix(workloads=["water", "lu"], configs=configs,
                            instructions=1_000, seed=5, quiet=True, jobs=1)
        # only the new workload's runs were simulated
        assert len(calls) == 4
        assert {wl for wl, _ in calls[2:]} == {"lu"}
        assert set(matrix) == {"water", "lu"}
        assert len(run_files(cache)) == 4

    def test_corrupted_entry_is_a_miss_not_a_crash(self, cache, monkeypatch):
        first = get_matrix(workloads=["water"], configs=[base_2l(2)],
                           instructions=1_000, seed=5, quiet=True, jobs=1)
        [path] = run_files(cache)
        path.write_text('{"workload": "water", "trunca')  # killed mid-write
        calls = self.count_runs(monkeypatch)
        again = get_matrix(workloads=["water"], configs=[base_2l(2)],
                           instructions=1_000, seed=5, quiet=True, jobs=1)
        assert len(calls) == 1  # re-simulated
        assert again["water"]["Base-2L"] == first["water"]["Base-2L"]
        json.loads(path.read_text())  # rewritten, valid again

    def test_fresh_env_forces_resimulation(self, cache, monkeypatch):
        get_matrix(workloads=["water"], configs=[base_2l(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1)
        monkeypatch.setenv("REPRO_FRESH", "1")
        calls = self.count_runs(monkeypatch)
        get_matrix(workloads=["water"], configs=[base_2l(2)],
                   instructions=1_000, seed=5, quiet=True, jobs=1)
        assert len(calls) == 1

    def test_failed_run_reported_after_sweep_and_rest_cached(
            self, cache, monkeypatch):
        real = runner._simulate_record

        def flaky(spec):
            if spec.config.name == "D2M-FS":
                raise RuntimeError("boom")
            return real(spec)

        monkeypatch.setattr(runner, "_simulate_record", flaky)
        with pytest.raises(SweepError) as excinfo:
            get_matrix(workloads=["water"], configs=[base_2l(2), d2m_fs(2)],
                       instructions=1_000, seed=5, quiet=True, jobs=1)
        assert "D2M-FS" in str(excinfo.value)
        # the run that succeeded was persisted; a retry redoes only the
        # failure
        assert len(run_files(cache)) == 1
        monkeypatch.setattr(runner, "_simulate_record", real)
        matrix = get_matrix(workloads=["water"],
                            configs=[base_2l(2), d2m_fs(2)],
                            instructions=1_000, seed=5, quiet=True, jobs=1)
        assert set(matrix["water"]) == {"Base-2L", "D2M-FS"}


class TestParallelSweep:
    def test_two_workers_match_serial_records(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FRESH", raising=False)
        monkeypatch.delenv("REPRO_WARMUP", raising=False)
        configs = [base_2l(2), d2m_fs(2)]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = get_matrix(workloads=["water", "lu"], configs=configs,
                            instructions=1_000, seed=5, quiet=True, jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        parallel = get_matrix(workloads=["water", "lu"], configs=configs,
                              instructions=1_000, seed=5, quiet=True, jobs=2)
        for workload in serial:
            for config in serial[workload]:
                assert (parallel[workload][config].to_json()
                        == serial[workload][config].to_json())

    def test_parallel_run_files_reload_identically(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_FRESH", raising=False)
        first = get_matrix(workloads=["water"],
                           configs=[base_2l(2), d2m_fs(2)],
                           instructions=1_000, seed=5, quiet=True, jobs=2)
        second = get_matrix(workloads=["water"],
                            configs=[base_2l(2), d2m_fs(2)],
                            instructions=1_000, seed=5, quiet=True, jobs=2)
        assert {cfg: rec.to_json() for cfg, rec in second["water"].items()} \
            == {cfg: rec.to_json() for cfg, rec in first["water"].items()}
