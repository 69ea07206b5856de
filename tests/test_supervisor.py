"""Tests for fault-tolerant sweep execution: supervision, recovery, resume.

Every scenario drives the real engine through the deterministic
fault-injection harness (:mod:`repro.sweep.faults`), so worker death, hangs
and flaky failures are reproduced on demand instead of hoped for.
"""

import collections
import json
import os
import select
import signal
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.sweep import ResultStore, SweepJob, run_sweep
from repro.sweep.faults import FaultSpec, injected
from repro.sweep.supervisor import (
    BACKOFF_ENV_VAR,
    RETRIES_ENV_VAR,
    TIMEOUT_ENV_VAR,
    JobFailure,
    RetryPolicy,
    SupervisedPool,
    SweepJobError,
)
from tests.conftest import SMALL_TILES, small_tile


def small_job(kernel="jacobi_2d", variant="saris", **kwargs):
    return SweepJob.make(kernel, variant, tile_shape=small_tile(kernel),
                         **kwargs)


def job_list(kernels=("jacobi_2d", "j2d5pt", "box2d1r", "j2d9pt")):
    return [small_job(kernel) for kernel in kernels]


def metrics_key(result):
    return (result.kernel, result.variant, result.cycles, result.fpu_util,
            result.ipc, result.correct, result.activity)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout_seconds is None

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV_VAR, "5")
        monkeypatch.setenv(BACKOFF_ENV_VAR, "0.01")
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "2.5")
        policy = RetryPolicy.resolve()
        assert policy.max_attempts == 5
        assert policy.backoff_seconds == 0.01
        assert policy.timeout_seconds == 2.5

    def test_timeout_shortcut_overrides(self):
        policy = RetryPolicy.resolve(RetryPolicy(timeout_seconds=9.0), 1.5)
        assert policy.timeout_seconds == 1.5

    def test_backoff_growth(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0)

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_sweep([small_job()], workers=1, on_error="ignore")


class TestSerialSupervision:
    def test_collect_keeps_healthy_jobs(self):
        jobs = job_list()
        with injected(FaultSpec(mode="raise", kernel="j2d5pt")):
            report = run_sweep(jobs, workers=1, on_error="collect",
                               retry=RetryPolicy(max_attempts=2,
                                                 backoff_seconds=0.001))
        assert [f.label for f in report.failures] == ["j2d5pt/saris"]
        failure = report.failures[0]
        assert failure.kind == "exception"
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 2
        assert "InjectedFault" in failure.traceback
        assert report.results[1] is None
        assert all(report.results[i] is not None for i in (0, 2, 3))
        assert not report.ok

    def test_flaky_succeeds_after_retries(self):
        jobs = job_list()
        with injected(FaultSpec(mode="flaky", kernel="j2d5pt", n=2)):
            report = run_sweep(jobs, workers=1, on_error="collect",
                               retry=RetryPolicy(max_attempts=3,
                                                 backoff_seconds=0.001))
        assert report.ok
        assert report.retried == {"j2d5pt/saris": 3}
        assert report.retries == 2
        assert all(result is not None for result in report.results)

    def test_raise_mode_reraises_original_exception(self):
        from repro.sweep.faults import InjectedFault

        with injected(FaultSpec(mode="raise", kernel="jacobi_2d")):
            with pytest.raises(InjectedFault):
                run_sweep([small_job()], workers=1,
                          retry=RetryPolicy(max_attempts=1))

    def test_segfault_mode_is_survivable_serially(self):
        # In-process the injected segfault degrades to an exception, so a
        # serial supervised sweep records a failure instead of dying.
        jobs = job_list(("jacobi_2d", "j2d5pt"))
        with injected(FaultSpec(mode="segfault", kernel="j2d5pt")):
            report = run_sweep(jobs, workers=1, on_error="collect",
                               retry=RetryPolicy(max_attempts=1))
        assert [f.label for f in report.failures] == ["j2d5pt/saris"]
        assert report.results[0] is not None

    def test_default_path_untouched_without_supervision_triggers(self):
        report = run_sweep([small_job()], workers=1)
        assert report.on_error == "raise"
        assert report.failures == [] and report.retries == 0


class TestParallelSupervision:
    def test_collect_parallel_in_band_failure(self):
        jobs = job_list()
        with injected(FaultSpec(mode="raise", kernel="j2d9pt")):
            report = run_sweep(jobs, workers=2, on_error="collect",
                               retry=RetryPolicy(max_attempts=2,
                                                 backoff_seconds=0.001))
        assert [f.label for f in report.failures] == ["j2d9pt/saris"]
        assert sum(r is not None for r in report.results) == len(jobs) - 1

    def test_raise_mode_parallel_raises_sweep_job_error(self):
        jobs = job_list(("jacobi_2d", "j2d5pt"))
        with injected(FaultSpec(mode="raise", kernel="j2d5pt")):
            with pytest.raises(SweepJobError, match="j2d5pt/saris") as exc:
                run_sweep(jobs, workers=2, on_error="raise",
                          retry=RetryPolicy(max_attempts=1))
        assert isinstance(exc.value.failure, JobFailure)

    def test_flaky_parallel_retries_to_success(self):
        jobs = job_list()
        with injected(FaultSpec(mode="flaky", kernel="box2d1r", n=1)):
            report = run_sweep(jobs, workers=2, on_error="collect",
                               retry=RetryPolicy(max_attempts=3,
                                                 backoff_seconds=0.001))
        assert report.ok
        assert report.retried.get("box2d1r/saris", 0) > 1

    def test_worker_segfault_recovers_and_degrades(self):
        # engine=native filter: the crash only fires while the native-first
        # selection is in effect, so the degraded forced-Python retry of the
        # same job runs clean — modeling a native-engine-only crash.
        jobs = job_list()
        with injected(FaultSpec(mode="segfault", kernel="box2d1r",
                                engine="native")):
            report = run_sweep(jobs, workers=2, on_error="collect",
                               retry=RetryPolicy(max_attempts=2,
                                                 backoff_seconds=0.001))
        assert report.ok
        assert report.degraded == ["box2d1r/saris"]
        assert report.pool_restarts >= 1
        assert all(result is not None for result in report.results)

    def test_worker_segfault_without_cure_records_crash(self):
        jobs = job_list()
        with injected(FaultSpec(mode="segfault", kernel="box2d1r")):
            report = run_sweep(jobs, workers=2, on_error="collect",
                               retry=RetryPolicy(max_attempts=2,
                                                 backoff_seconds=0.001))
        assert [f.label for f in report.failures] == ["box2d1r/saris"]
        assert report.failures[0].kind == "crash"
        assert report.failures[0].engine == "python"  # final degraded attempt
        # Siblings of the crashing job are never lost.
        assert sum(r is not None for r in report.results) == len(jobs) - 1

    def test_hang_hits_timeout_and_spares_siblings(self):
        jobs = job_list()
        with injected(FaultSpec(mode="hang", kernel="j2d9pt",
                                hang_seconds=30.0)):
            report = run_sweep(jobs, workers=2, on_error="collect",
                               retry=RetryPolicy(max_attempts=1,
                                                 timeout_seconds=1.0,
                                                 degrade_to_python=False))
        assert [f.label for f in report.failures] == ["j2d9pt/saris"]
        assert report.failures[0].kind == "timeout"
        assert report.timeouts >= 1
        assert sum(r is not None for r in report.results) == len(jobs) - 1

    def test_supervised_parallel_is_bit_identical_to_serial(self):
        jobs = job_list()
        serial = run_sweep(jobs, workers=1)
        supervised = run_sweep(jobs, workers=2, on_error="collect")
        assert [metrics_key(a) for a in serial.results] \
            == [metrics_key(b) for b in supervised.results]

    def test_env_knobs_activate_supervision(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV_VAR, "2")
        monkeypatch.setenv(BACKOFF_ENV_VAR, "0.001")
        with injected(FaultSpec(mode="flaky", kernel="jacobi_2d", n=1)):
            report = run_sweep([small_job()], workers=1)
        assert report.ok
        assert report.retried == {"jacobi_2d/saris": 2}


class TestExactAttribution:
    """A crash or a hang is charged to the job that caused it: only that
    job's worker is replaced and no other job runs twice."""

    @staticmethod
    def small_jobs():
        return [SweepJob.make(k, v, tile_shape=SMALL_TILES[k])
                for k in SMALL_TILES for v in ("saris", "base")]

    @staticmethod
    def count_executions(monkeypatch, tmp_path):
        """Log every execute_job call (forked workers inherit the patch)."""
        from repro.sweep import engine

        log = tmp_path / "executions.log"
        log.touch()
        original = engine.execute_job

        def logged(job, attempt=1):
            with open(log, "a") as fh:
                fh.write(job.label + "\n")
            return original(job, attempt=attempt)

        monkeypatch.setattr(engine, "execute_job", logged)
        return lambda: collections.Counter(log.read_text().split())

    def test_crash_reruns_only_the_culprit(self, monkeypatch, tmp_path):
        executions = self.count_executions(monkeypatch, tmp_path)
        jobs = self.small_jobs()
        with injected(FaultSpec(mode="segfault", kernel="box3d1r",
                                variant="saris", engine="native")):
            report = run_sweep(jobs, workers=2, on_error="collect",
                               retry=RetryPolicy(max_attempts=2,
                                                 backoff_seconds=0.001))
        assert report.ok
        assert report.degraded == ["box3d1r/saris"]
        assert report.pool_restarts == 2
        counts = executions()
        # Two native attempts crash, the degraded Python attempt succeeds.
        assert counts.pop("box3d1r/saris") == 3
        assert counts == {job.label: 1 for job in jobs
                          if job.label != "box3d1r/saris"}

    def test_timeout_fails_only_the_hung_job(self, monkeypatch, tmp_path):
        executions = self.count_executions(monkeypatch, tmp_path)
        jobs = self.small_jobs()
        with injected(FaultSpec(mode="hang", kernel="j2d9pt",
                                variant="saris", hang_seconds=30.0)):
            report = run_sweep(jobs, workers=2, on_error="collect",
                               retry=RetryPolicy(max_attempts=1,
                                                 timeout_seconds=1.0,
                                                 degrade_to_python=False))
        assert [(f.label, f.kind) for f in report.failures] \
            == [("j2d9pt/saris", "timeout")]
        assert report.timeouts == report.pool_restarts == 1
        assert executions() == {job.label: 1 for job in jobs}


class TestStats:
    def test_stats_carry_supervision_counters(self):
        jobs = job_list(("jacobi_2d", "j2d5pt"))
        with injected(FaultSpec(mode="raise", kernel="j2d5pt")):
            report = run_sweep(jobs, workers=1, on_error="collect",
                               retry=RetryPolicy(max_attempts=2,
                                                 backoff_seconds=0.001))
        stats = report.stats()
        assert stats["on_error"] == "collect"
        assert stats["retries"] == 1
        assert stats["failures"][0]["label"] == "j2d5pt/saris"
        assert stats["failures"][0]["error_type"] == "InjectedFault"
        json.dumps(stats)  # must stay JSON-serializable

    def test_duplicate_of_failed_job_stays_unfilled(self):
        job = small_job(kernel="j2d5pt")
        jobs = [job, small_job(), job]
        with injected(FaultSpec(mode="raise", kernel="j2d5pt")):
            report = run_sweep(jobs, workers=1, on_error="collect",
                               retry=RetryPolicy(max_attempts=1))
        assert report.results[0] is None and report.results[2] is None
        assert report.results[1] is not None


class TestResume:
    def test_partial_store_resumes_missing_hashes_only(self, tmp_path):
        jobs = job_list()
        baseline = run_sweep(jobs, workers=1)

        store = ResultStore(tmp_path)
        first = run_sweep(jobs[:2], workers=1, store=store)
        assert first.executed == 2

        resumed = run_sweep(jobs, workers=2, store=ResultStore(tmp_path),
                            on_error="collect")
        assert resumed.cache_hits == 2
        assert resumed.executed == 2
        assert [metrics_key(a) for a in baseline.results] \
            == [metrics_key(b) for b in resumed.results]

    def test_interrupt_flushes_completed_results_for_resume(self, tmp_path):
        jobs = job_list()
        store = ResultStore(tmp_path)
        seen = []

        def interrupt_after_two(done, total, job, source):
            seen.append(job.label)
            if len(seen) >= 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(jobs, workers=2, store=store, on_error="collect",
                      progress=interrupt_after_two)
        # Everything that finished before the interrupt is on disk...
        assert len(store) >= 2

        # ...so the resume pass only executes the remainder, and the merged
        # results are bit-identical to an uninterrupted serial run.
        resumed = run_sweep(jobs, workers=1, store=ResultStore(tmp_path))
        assert resumed.cache_hits >= 2
        assert resumed.cache_hits + resumed.executed == len(jobs)
        baseline = run_sweep(jobs, workers=1)
        assert [metrics_key(a) for a in baseline.results] \
            == [metrics_key(b) for b in resumed.results]

    def test_workers_are_joined_on_return_and_on_interrupt(self):
        import multiprocessing

        def interrupt(done, total, job, source):
            raise KeyboardInterrupt

        before = set(multiprocessing.active_children())
        run_sweep(job_list(), workers=2)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(job_list(), workers=2, progress=interrupt)
        assert set(multiprocessing.active_children()) <= before


class TestStreamingPool:
    """The long-lived pool behind sweeps, ``repro serve`` and ``repro
    worker``: submit from any thread, close at any time."""

    def test_concurrent_submitters_each_get_their_own_outcome(self):
        # More submitting threads and workers than cores and a tiny switch
        # interval: no job may be lost, duplicated or resolved to another
        # job's outcome.
        jobs = [SweepJob.make(k, v, tile_shape=SMALL_TILES[k])
                for k in SMALL_TILES for v in ("saris", "base")]
        futures, lock = {}, threading.Lock()
        pool = SupervisedPool(3, RetryPolicy())

        def submit(chunk):
            for job in chunk:
                future = pool.submit(job)
                with lock:
                    futures[future] = job

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submit, args=(jobs[i::4],))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            outcomes = {job.label: future.result(timeout=120)
                        for future, job in futures.items()}
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert sorted(outcomes) == sorted(job.label for job in jobs)
        for label, outcome in outcomes.items():
            assert outcome.failure is None
            assert f"{outcome.result.kernel}/{outcome.result.variant}" \
                == label

    def test_close_ends_a_running_job_and_cancels_the_rest(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        with injected(FaultSpec(mode="hang", kernel="jacobi_2d",
                                hang_seconds=60.0)):
            pool = SupervisedPool(1, RetryPolicy())
            futures = [pool.submit(small_job(kernel))
                       for kernel in ("jacobi_2d", "j2d5pt", "box2d1r")]
            time.sleep(0.5)  # the hang is running, one job waits behind it
            start = time.monotonic()
            pool.close()
        assert time.monotonic() - start < 5.0
        assert all(future.cancelled() for future in futures)
        assert set(multiprocessing.active_children()) <= before
        with pytest.raises(RuntimeError):
            pool.submit(small_job())


def _running(pid):
    """True while ``pid`` runs: a zombie has died, reaped or not."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux-only")
class TestOrphans:
    def test_workers_die_with_a_sigkilled_parent(self):
        # One worker hangs inside a job, the other idles in recv once its
        # job is done; the parent prints both pids and is then SIGKILLed.
        script = textwrap.dedent("""
            import multiprocessing
            from repro.sweep import SweepJob, run_sweep

            def report(done, total, job, source):
                print(*sorted(p.pid for p in
                              multiprocessing.active_children()),
                      flush=True)

            jobs = [SweepJob.make(kernel, "saris", tile_shape=(12, 12))
                    for kernel in ("j2d5pt", "jacobi_2d")]
            run_sweep(jobs, workers=2, on_error="collect", progress=report)
        """)
        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        env["REPRO_FAULT_INJECT"] = "mode=hang:kernel=j2d5pt:hang_seconds=60"
        parent = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE)
        pids = []
        try:
            assert select.select([parent.stdout], [], [], 60)[0]
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            parent.kill()
            parent.wait(10)
            deadline = time.monotonic() + 2.0
            while (any(_running(pid) for pid in pids)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
        finally:
            parent.kill()
            parent.stdout.close()
            for pid in pids:  # a failed run must not leave workers behind
                if _running(pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass


class TestStoreRobustness:
    def test_corrupt_entry_is_quarantined_once(self, tmp_path):
        job = small_job()
        store = ResultStore(tmp_path)
        path = store.save(job, run_sweep([job], workers=1).results[0])
        path.write_text('{"truncated": ')  # simulate a torn write

        fresh = ResultStore(tmp_path)
        assert fresh.load(job) is None
        assert fresh.quarantined == 1
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists() and not path.exists()
        # A second miss is a plain miss: the bad bytes were set aside.
        assert fresh.load(job) is None
        assert fresh.quarantined == 1

    def test_non_dict_payload_is_quarantined(self, tmp_path):
        job = small_job()
        store = ResultStore(tmp_path)
        path = store.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('[1, 2, 3]\n')
        assert store.load(job) is None
        assert store.quarantined == 1

    def test_missing_file_is_not_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load(small_job()) is None
        assert store.quarantined == 0

    def test_quarantine_count_reaches_sweep_report(self, tmp_path):
        job = small_job()
        store = ResultStore(tmp_path)
        path = store.save(job, run_sweep([job], workers=1).results[0])
        path.write_text("garbage")
        report = run_sweep([job], workers=1, store=ResultStore(tmp_path))
        assert report.quarantined == 1
        assert report.stats()["quarantined"] == 1
        assert report.results[0] is not None  # re-executed cleanly

    def test_stale_tmp_files_swept_at_construction(self, tmp_path):
        store = ResultStore(tmp_path)
        job = small_job()
        store.save(job, run_sweep([job], workers=1).results[0])
        stale = store.version_dir / "orphan.json.tmp12345"
        stale.write_text("partial")
        old = 10_000.0  # epoch-ish: far older than any live writer
        os.utime(stale, (old, old))
        fresh_tmp = store.version_dir / "live.json.tmp99999"
        fresh_tmp.write_text("in flight")

        ResultStore(tmp_path)
        assert not stale.exists()          # orphan reaped
        assert fresh_tmp.exists()          # live writer untouched
        assert len(ResultStore(tmp_path)) == 1

    def test_save_failure_leaves_no_tmp_litter(self, tmp_path, monkeypatch):
        job = small_job()
        result = run_sweep([job], workers=1).results[0]
        store = ResultStore(tmp_path)
        monkeypatch.setattr(os, "replace",
                            lambda *a, **k: (_ for _ in ()).throw(OSError()))
        with pytest.raises(OSError):
            store.save(job, result)
        assert list(store.root.glob("v*/*.tmp*")) == []


class TestProgressCallbackGuard:
    def test_raising_progress_warns_once_and_continues(self):
        jobs = job_list(("jacobi_2d", "j2d5pt"))
        calls = []

        def bad_progress(done, total, job, source):
            calls.append(job.label)
            raise RuntimeError("user callback bug")

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_sweep(jobs, workers=1, progress=bad_progress)
        assert all(result is not None for result in report.results)
        assert len(calls) == len(jobs)  # kept being invoked
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)
                   and "progress callback" in str(w.message)]
        assert len(runtime) == 1  # warned exactly once


class TestExperimentIntegration:
    def test_collect_omits_failed_records_and_exposes_failures(self):
        from repro.experiment import Experiment

        with injected(FaultSpec(mode="raise", kernel="j2d5pt")):
            results = (Experiment()
                       .kernels("jacobi_2d", "j2d5pt")
                       .variants("saris")
                       .tiles(SMALL_TILES["jacobi_2d"])
                       .run(workers=1, cache=False, on_error="collect",
                            retries=1))
        assert len(results) == 1
        assert results[0].kernel == "jacobi_2d"
        labels = [failure.label for failure in results.failures]
        assert labels == ["j2d5pt/saris@snitch-8"]

    def test_default_run_keeps_raise_contract(self):
        from repro.experiment import Experiment
        from repro.sweep.faults import InjectedFault

        with injected(FaultSpec(mode="raise", kernel="jacobi_2d")):
            with pytest.raises(InjectedFault):
                (Experiment().kernels("jacobi_2d").variants("saris")
                 .tiles(SMALL_TILES["jacobi_2d"])
                 .run(workers=1, cache=False, retries=1))


class TestCli:
    def test_resume_refuses_no_cache(self, capsys):
        from repro.cli import main

        rc = main(["reproduce", "--resume", "--no-cache", "--subset",
                   "listing1"])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err

    def test_reproduce_collect_reports_failures(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.cli import main
        from repro.sweep import faults

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv(faults.FAULT_ENV_VAR,
                           "mode=raise:kernel=jacobi_2d:variant=saris")
        out_path = tmp_path / "report.json"
        rc = main(["reproduce", "--subset", "fig3a", "--on-error", "collect",
                   "--retries", "1", "--workers", "1", "-q",
                   "-o", str(out_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAILED jobs" in captured.out
        assert "skipped" in captured.out  # fig3a placeholder
        payload = json.loads(out_path.read_text())
        assert payload["failures"][0]["label"] == "jacobi_2d/saris"
