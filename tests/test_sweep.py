"""Tests for the sweep engine: job hashing, the result store and fan-out."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.energy import estimate_power
from repro.scaleout import estimate_scaleout_pair
from repro.core.kernels import get_kernel
from repro.sweep import (
    ENGINE_VERSION,
    ResultStore,
    SweepJob,
    execute_job,
    resolve_workers,
    run_jobs,
    run_sweep,
)
from repro.sweep.artifacts import ablation_jobs, paper_jobs
from tests.conftest import small_tile

REPO_ROOT = Path(__file__).resolve().parent.parent


def metrics_key(result):
    """Every serializable metric of a result (the bit-identity surface)."""
    return (result.kernel, result.variant, result.tile_shape, result.cycles,
            result.total_flops, result.fpu_util, result.ipc,
            result.flops_per_cycle, result.correct, result.max_abs_error,
            result.runtime_imbalance, result.tcdm_conflict_rate,
            result.dma_utilization, result.tile_traffic_bytes,
            result.activity)


def small_job(kernel="jacobi_2d", variant="saris", **kwargs):
    return SweepJob.make(kernel, variant, tile_shape=small_tile(kernel),
                         **kwargs)


class TestSweepJobHash:
    def test_kwarg_order_is_irrelevant(self):
        a = SweepJob.make("jacobi_2d", "saris", max_block=4, use_frep=True)
        b = SweepJob.make("jacobi_2d", "saris", use_frep=True, max_block=4)
        assert a == b
        assert a.content_hash() == b.content_hash()

    def test_distinct_configs_get_distinct_hashes(self):
        hashes = {job.content_hash()
                  for job in paper_jobs() + list(ablation_jobs().values())}
        jobs = paper_jobs() + list(ablation_jobs().values())
        # frep_on duplicates the paper jacobi_2d/saris job by construction.
        assert len(hashes) == len(jobs) - 1

    def test_tile_shape_is_normalized(self):
        a = SweepJob.make("jacobi_2d", tile_shape=[12, 12])
        b = SweepJob.make("jacobi_2d", tile_shape=(12, 12))
        assert a == b and a.tile_shape == (12, 12)

    def test_seed_and_params_affect_hash(self):
        from repro.snitch.params import TimingParams

        base = SweepJob.make("jacobi_2d")
        assert SweepJob.make("jacobi_2d", seed=1).content_hash() != base.content_hash()
        custom = SweepJob.make("jacobi_2d",
                               params=TimingParams(fpu_latency=4))
        assert custom.content_hash() != base.content_hash()

    def test_hash_stable_across_processes(self):
        """Hashes must not depend on PYTHONHASHSEED or process state."""
        jobs = [SweepJob.make("jacobi_2d", "base"),
                SweepJob.make("star3d7pt", "saris", tile_shape=(8, 8, 8),
                              force_store_streamed=False, seed=3)]
        expected = [job.content_hash() for job in jobs]
        code = (
            "from repro.sweep import SweepJob\n"
            "jobs = [SweepJob.make('jacobi_2d', 'base'),\n"
            "        SweepJob.make('star3d7pt', 'saris', tile_shape=(8, 8, 8),\n"
            "                      force_store_streamed=False, seed=3)]\n"
            "print('\\n'.join(job.content_hash() for job in jobs))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "271828"
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == expected


class TestResultStore:
    def test_roundtrip_preserves_metrics(self, tmp_path):
        store = ResultStore(tmp_path)
        job = small_job()
        result = execute_job(job)
        path = store.save(job, result)
        assert path.exists() and len(store) == 1
        loaded = store.load(job)
        assert loaded is not None
        assert metrics_key(loaded) == metrics_key(result)
        assert loaded.cluster is None
        info = loaded.program_info[0]
        assert info["variant"] == "saris" and "stream_balance" in info
        # Entries are stamped with version + simulator-source fingerprint.
        from repro.sweep.store import engine_fingerprint
        assert store.version_dir.name == (
            f"v{ENGINE_VERSION}-{engine_fingerprint()}")

    def test_miss_for_unknown_job(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load(small_job()) is None

    def test_engine_version_bump_invalidates(self, tmp_path):
        store = ResultStore(tmp_path)
        job = small_job()
        store.save(job, execute_job(job))
        assert store.load(job) is not None
        bumped = ResultStore(tmp_path, engine_version=ENGINE_VERSION + 1)
        assert bumped.load(job) is None
        # The old version's entries survive untouched for rollback.
        assert store.load(job) is not None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = small_job()
        store.save(job, execute_job(job))
        store.path_for(job).write_text("{not json")
        assert store.load(job) is None

    def test_spec_mismatch_degrades_to_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        job = small_job()
        store.save(job, execute_job(job))
        payload = json.loads(store.path_for(job).read_text())
        payload["job"]["seed"] = 99
        store.path_for(job).write_text(json.dumps(payload))
        assert store.load(job) is None

    def test_clear_drops_version_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        job = small_job()
        store.save(job, execute_job(job))
        store.clear()
        assert len(store) == 0 and store.load(job) is None

    def test_save_after_clear_recreates_the_version_dir(self, tmp_path):
        store = ResultStore(tmp_path / "fresh")  # no directory yet
        job = small_job()
        result = execute_job(job)
        store.save(job, result)
        store.clear()
        assert not store.version_dir.exists()
        path = store.save(job, result)
        assert path.parent == store.version_dir and path.exists()
        assert metrics_key(store.load(job)) == metrics_key(result)
        assert not list(store.version_dir.glob("*.tmp*"))

    def test_concurrent_writers_one_key_never_corrupt(self, tmp_path):
        """Two threads hammering the same key must never produce a torn
        entry: every interleaved load is either a miss or a full,
        spec-matching result (the daemon's worker threads share one store)."""
        import threading

        job = small_job()
        result = execute_job(job)
        errors = []

        def hammer():
            store = ResultStore(tmp_path)  # own instance, same directory
            try:
                for _ in range(50):
                    store.save(job, result)
                    loaded = store.load(job)
                    if loaded is not None:
                        assert metrics_key(loaded) == metrics_key(result)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        store = ResultStore(tmp_path)
        loaded = store.load(job)
        assert loaded is not None
        assert metrics_key(loaded) == metrics_key(result)
        # No quarantined (corrupt) entries and no leaked tmp files.
        assert store.stats()["corrupt_files"] == 0
        assert not list(store.version_dir.glob("*.tmp*"))

    def test_multiprocess_publish_contention_never_corrupts(self, tmp_path):
        """The cross-*process* version of the hammer: fabric workers on one
        host share a store directory, so the flock/atomic-rename publish
        path must hold up across processes, not just threads."""
        job = small_job()
        result = execute_job(job)
        store = ResultStore(tmp_path)
        store.save(job, result)  # seed the payload the children republish
        child = (
            "import sys\n"
            "from repro.sweep import ResultStore, SweepJob\n"
            "store = ResultStore(sys.argv[1])\n"
            "job = SweepJob.make('jacobi_2d', 'saris',\n"
            "                    tile_shape=(int(sys.argv[2]),\n"
            "                                int(sys.argv[3])))\n"
            "result = store.load(job)\n"
            "assert result is not None, 'seed entry must be readable'\n"
            "want = result.metrics_hash()\n"
            "for _ in range(40):\n"
            "    store.save(job, result)\n"
            "    loaded = store.load(job)\n"
            "    assert loaded is not None, 'published entry went missing'\n"
            "    assert loaded.metrics_hash() == want, 'torn entry'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        procs = [subprocess.Popen(
            [sys.executable, "-c", child, str(tmp_path),
             str(job.tile_shape[0]), str(job.tile_shape[1])],
            cwd=str(REPO_ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
            for _ in range(3)]
        outputs = [proc.communicate(timeout=120)[0].decode("utf-8",
                                                           "replace")
                   for proc in procs]
        assert all(proc.returncode == 0 for proc in procs), outputs
        # The surviving entry is whole and spec-matching, with no leaks.
        fresh = ResultStore(tmp_path)
        loaded = fresh.load(job)
        assert loaded is not None
        assert metrics_key(loaded) == metrics_key(result)
        assert fresh.stats()["corrupt_files"] == 0
        assert not list(fresh.version_dir.glob("*.tmp*"))


class TestMachineAwareStore:
    """Cached results are keyed by machine: no cross-machine stale serving."""

    def test_distinct_machines_distinct_hashes_and_paths(self, tmp_path):
        store = ResultStore(tmp_path)
        wide = small_job(machine="snitch-8-wide")
        on4 = small_job(machine="snitch-4")
        assert wide.content_hash() != on4.content_hash()
        assert store.path_for(wide) != store.path_for(on4)
        assert "snitch-8-wide" in store.path_for(wide).name
        assert "snitch-4" in store.path_for(on4).name

    def test_default_machine_canonicalized_for_hash_and_path(self, tmp_path):
        """Explicitly requesting the stock preset (under any name) shares the
        machine-unset job's content hash and store entry, while the job still
        remembers which machine object was requested."""
        store = ResultStore(tmp_path)
        unset = small_job()
        explicit = small_job(machine="snitch-8")
        assert explicit.machine is not None  # name preserved for records
        assert explicit.machine.name == "snitch-8"
        assert explicit.content_hash() == unset.content_hash()
        assert store.path_for(explicit) == store.path_for(unset)

    def test_result_cached_for_one_machine_misses_for_another(self, tmp_path):
        store = ResultStore(tmp_path)
        on8 = small_job(machine="snitch-8")
        on4 = small_job(machine="snitch-4")
        store.save(on8, execute_job(on8))
        assert store.load(on8) is not None
        assert store.load(on4) is None

    def test_preset_parameter_change_misses_cache(self, tmp_path):
        from repro.machine import MachineSpec

        store = ResultStore(tmp_path)
        stock = small_job(machine="snitch-8")
        store.save(stock, execute_job(stock))
        tweaked_banks = small_job(machine=MachineSpec.create(
            "snitch-8", tcdm_banks=64))
        tweaked_timing = small_job(machine=MachineSpec.create(
            "snitch-8", fpu_latency=4))
        assert stock.content_hash() != tweaked_banks.content_hash()
        assert stock.content_hash() != tweaked_timing.content_hash()
        assert store.load(tweaked_banks) is None
        assert store.load(tweaked_timing) is None
        assert store.load(stock) is not None

    def test_machine_jobs_roundtrip_through_store(self, tmp_path):
        store = ResultStore(tmp_path)
        job = small_job(machine="snitch-4")
        result = execute_job(job)
        store.save(job, result)
        loaded = store.load(job)
        assert loaded is not None and metrics_key(loaded) == metrics_key(result)
        assert loaded.activity.num_cores == 4

    def test_replaced_default_preset_cannot_serve_stale_entries(self):
        """Replacing the snitch-8 preset changes what machine-unset jobs run
        on, so their content hash must change with it (the canonical form is
        pinned to the frozen paper parameters, not the live registry)."""
        from repro.machine import MachineSpec, get_machine, register_machine

        baseline = small_job().content_hash()
        original = get_machine("snitch-8")
        register_machine(MachineSpec.create("snitch-8", tcdm_banks=64),
                         replace=True)
        try:
            assert small_job().content_hash() != baseline
        finally:
            register_machine(original, replace=True)
        assert small_job().content_hash() == baseline

    def test_memoized_hash_follows_the_registries(self):
        """``content_hash`` is memoized per job object, yet the same object
        re-hashes when the default preset or its kernel is re-registered."""
        import pickle

        from repro.core.kernels import KERNEL_REGISTRY, register_kernel
        from repro.machine import MachineSpec, get_machine, register_machine

        job = small_job()
        baseline = job.content_hash()
        assert job.content_hash() == baseline
        assert "_hash_memo" not in pickle.loads(pickle.dumps(job)).__dict__
        original = get_machine("snitch-8")
        register_machine(MachineSpec.create("snitch-8", tcdm_banks=64),
                         replace=True)
        try:
            assert job.content_hash() != baseline
        finally:
            register_machine(original, replace=True)
        assert job.content_hash() == baseline

        stock = KERNEL_REGISTRY.get("jacobi_2d")

        def shifted():
            kernel = stock()
            kernel.coefficients = {name: value + 1.0 for name, value
                                   in kernel.coefficients.items()}
            return kernel

        register_kernel("jacobi_2d", replace=True)(shifted)
        try:
            assert job.content_hash() != baseline
        finally:
            register_kernel("jacobi_2d", replace=True)(stock)
        assert job.content_hash() == baseline

    def test_machine_label_and_spec(self):
        job = small_job(machine="snitch-16")
        assert "@snitch-16" in job.label
        assert job.spec()["machine"]["num_cores"] == 16
        assert small_job().spec()["machine"] is None


class TestResultJsonRoundTrip:
    def test_roundtrip_is_equal_including_tuples(self):
        """to_json_dict -> JSON -> from_json_dict is the identity on the
        serializable core (tuple-ness preserved where it matters)."""
        result = execute_job(small_job())
        payload = json.loads(json.dumps(result.to_json_dict()))
        restored = type(result).from_json_dict(payload)
        assert restored == result
        assert isinstance(restored.tile_shape, tuple)
        assert restored.tile_shape == result.tile_shape
        assert isinstance(restored.activity.core_cycles, tuple)
        assert restored.program_info == result.program_info

    def test_program_info_normalized_at_construction(self):
        """In-memory results already hold JSON-safe program_info, so fresh
        and store-loaded results compare equal field by field."""
        result = execute_job(small_job())
        info = result.program_info[0]
        for value in info.values():
            assert not isinstance(value, tuple)
        # Dict keys are strings exactly as JSON would store them.
        assert all(isinstance(key, str) for key in info["stream_lengths"])


class TestEngine:
    def test_parallel_matches_serial_full_table1(self):
        """The acceptance gate: every Table-1 kernel/variant, paper tiles."""
        jobs = paper_jobs()
        serial = run_sweep(jobs, workers=1, store=None)
        parallel = run_sweep(jobs, workers=2, store=None)
        assert not serial.parallel and parallel.parallel
        assert serial.executed == parallel.executed == len(jobs)
        for ser, par in zip(serial.results, parallel.results):
            assert metrics_key(ser) == metrics_key(par)
            assert ser.program_info == par.program_info

    def test_results_keep_input_order(self, tmp_path):
        jobs = [small_job("jacobi_2d", v) for v in ("base", "saris")]
        results = run_jobs(jobs, workers=2, store=None)
        assert [(r.kernel, r.variant) for r in results] == [
            ("jacobi_2d", "base"), ("jacobi_2d", "saris")]

    def test_cache_hits_skip_execution(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = [small_job("jacobi_2d", v) for v in ("base", "saris")]
        cold = run_sweep(jobs, workers=1, store=store)
        assert cold.executed == 2 and cold.cache_hits == 0
        warm = run_sweep(jobs, workers=1, store=store)
        assert warm.executed == 0 and warm.cache_hits == 2
        for a, b in zip(cold.results, warm.results):
            assert metrics_key(a) == metrics_key(b)

    def test_duplicate_jobs_simulated_once(self):
        job = small_job()
        report = run_sweep([job, job, job], workers=1, store=None)
        assert report.jobs == 3 and report.executed == 1
        assert (metrics_key(report.results[0]) == metrics_key(report.results[1])
                == metrics_key(report.results[2]))

    def test_progress_streams_every_job(self, tmp_path):
        store = ResultStore(tmp_path)
        jobs = [small_job("jacobi_2d", v) for v in ("base", "saris")]
        run_sweep(jobs, workers=1, store=store)
        events = []
        run_sweep(jobs, workers=1, store=store,
                  progress=lambda done, total, job, source:
                  events.append((done, total, source)))
        assert events == [(1, 2, "cache"), (2, 2, "cache")]

    def test_sweep_results_feed_energy_and_scaleout_models(self):
        """Serialized cores (no cluster detail) still drive Fig 4 and Fig 5."""
        jobs = [small_job("jacobi_2d", v) for v in ("base", "saris")]
        base, saris = run_jobs(jobs, workers=1, store=None)
        assert base.cluster is None and base.activity is not None
        assert estimate_power(saris).power_w > estimate_power(base).power_w
        pair = estimate_scaleout_pair(get_kernel("jacobi_2d"), base, saris)
        assert pair["speedup"] > 0

    def test_parallel_effective_reflects_cpu_count(self):
        jobs = [small_job("jacobi_2d", v) for v in ("base", "saris")]
        report = run_sweep(jobs, workers=2, store=None)
        assert report.parallel
        assert report.cpu_count == (os.cpu_count() or 1)
        assert report.parallel_effective == (report.cpu_count > 1)
        assert report.stats()["parallel_effective"] == report.parallel_effective
        serial = run_sweep(jobs, workers=1, store=None)
        assert not serial.parallel_effective


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert resolve_workers() == 5

    def test_malformed_env_var_names_itself(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "abc")
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
            resolve_workers()

    def test_clamped_to_job_count_and_floor(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert resolve_workers(16, num_jobs=3) == 3
        assert resolve_workers(0) == 1
