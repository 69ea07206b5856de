"""Native-engine defense-in-depth: handshake, watchdog, fault degradation.

Covers the guard layer added around the C engine: the load-time layout
check and build-failure reporting, the limits that keep a run on the
Python engine (integer ranges, bank geometry), negative start cycles, the
ABI handshake on every entry, the cycle-budget watchdog, the structured
:class:`~repro.snitch.native.NativeEngineError` surface, and the
supervised-sweep policy that routes those faults to one in-band
forced-Python retry — no pool respawn, no batch bisection.
"""

import ctypes
import json
import subprocess
import sys
import tempfile

import pytest

from repro.isa.assembler import assemble
from repro.runner import run_kernel
from repro.snitch import native
from repro.snitch.cluster import ClusterError, SnitchCluster
from repro.snitch.params import TimingParams
from repro.sweep import ResultStore, SweepJob, run_sweep
from repro.sweep.faults import FaultSpec, injected
from repro.sweep.supervisor import RetryPolicy
from tests.conftest import small_tile
from tests.test_imports import fresh_env

pytestmark = pytest.mark.skipif(
    not native.available(),
    reason=f"native engine unavailable: {native.disabled_reason()}")


_SPIN = """
    li x5, 1000000
loop:
    addi x5, x5, -1
    bne x5, x0, loop
"""


def _spin_cluster(num_cores=2):
    cluster = SnitchCluster(TimingParams(num_cores=num_cores))
    cluster.load_programs([assemble(_SPIN, name=f"spin{i}")
                           for i in range(num_cores)])
    return cluster


def _reload_engine(monkeypatch):
    """Forget the loaded engine for this test; the next call reloads it."""
    monkeypatch.setattr(native, "_ENGINE", None)
    monkeypatch.setattr(native, "_DISABLED_REASON", None)


class TestLoadTimeChecks:
    def test_healthy_layout_loads(self, monkeypatch):
        _reload_engine(monkeypatch)
        assert native.available()
        assert native.disabled_reason() is None
        layout, lib = native._ENGINE
        assert lib.nat_sizeof_cluster() == ctypes.sizeof(layout.NatCluster)
        assert native.execute(_spin_cluster(), max_cycles=10_000_000)

    def test_layout_disagreeing_with_library_is_refused(self, monkeypatch):
        real_layout = native._ctypes_layout

        def skewed(cdef):
            # One field more than the compiled library knows about.
            assert "int64_t watchdog;" in cdef
            return real_layout(cdef.replace("int64_t watchdog;",
                                            "int64_t watchdog, skew;"))

        monkeypatch.setattr(native, "_ctypes_layout", skewed)
        _reload_engine(monkeypatch)
        assert not native.available()
        assert "ABI mismatch" in native.disabled_reason()
        fallbacks = native.run_stats["fallback"]
        assert native.execute(_spin_cluster(), max_cycles=10_000) is None
        assert native.run_stats["fallback"] == fallbacks + 1

    @pytest.mark.skipif(native._find_compiler() is None,
                        reason="needs a C compiler")
    def test_compile_failure_reports_the_compiler_error(self, monkeypatch,
                                                        tmp_path):
        monkeypatch.setenv(native.CFLAGS_ENV_VAR, "-fno-such-flag")
        monkeypatch.setenv(native.NATIVE_DIR_ENV_VAR, str(tmp_path / "so"))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        _reload_engine(monkeypatch)
        assert not native.available()
        reason = native.disabled_reason()
        assert reason.startswith("C compiler failed: ")
        assert "-fno-such-flag" in reason
        assert "\n" not in reason

    @pytest.mark.skipif(native._find_compiler() is None,
                        reason="needs a C compiler")
    def test_build_info_asks_the_compiler_its_version_once(self,
                                                           monkeypatch):
        # A daemon's every `/v1/stats` calls build_info on its event loop.
        monkeypatch.setattr(native, "_CC_VERSION_CACHE", {}, raising=False)
        real_run = subprocess.run
        versions = []

        def run(args, *rest, **kwargs):
            if "--version" in args:
                versions.append(args)
            return real_run(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "run", run)
        first, second = native.build_info(), native.build_info()
        assert len(versions) == 1
        assert first["compiler_version"] == second["compiler_version"]
        assert first["compiler_version"]


_SHORT_SPIN = """
    li x5, 100
loop:
    addi x5, x5, -1
    bne x5, x0, loop
"""


def _outcome(params, max_cycles):
    """What one short spin run returns or raises, plus the final state."""
    cluster = SnitchCluster(params)
    cluster.load_programs([assemble(_SHORT_SPIN, name=f"short{i}")
                           for i in range(params.num_cores)])
    try:
        cluster.run(max_cycles=max_cycles)
        outcome = "ok"
    except ClusterError as exc:
        outcome = str(exc)
    return outcome, cluster.cycle, [core.int_retired for core in cluster.cores]


class TestIntegerLimits:
    """ctypes wraps an int that does not fit an ``int64_t`` field without an
    error, and the engine's cycle arithmetic is ``int64_t``: values beyond
    the engine's limits must run on the Python engine, never produce a
    native result the Python engine would not."""

    @pytest.mark.parametrize("overrides, max_cycles", [
        ({"branch_taken_penalty": 2**64 + 1}, 5_000),
        ({"branch_taken_penalty": 2**63 - 1}, 5_000),
        ({"icache_miss_penalty": 2**64 + 12}, 5_000),
        ({"div_latency": 2**64 + 8}, 5_000),
        ({"tcdm_bank_width": 2**64 + 8}, 5_000),
        ({"dma_row_setup_cycles": 2**64 + 2}, 5_000),
        ({}, 2**64 + 5),
        ({}, 2**63 - 1),
    ])
    def test_out_of_range_values_run_on_python(self, overrides, max_cycles):
        params = TimingParams(num_cores=2, **overrides)
        fallbacks = native.run_stats["fallback"]
        native_side = _outcome(params, max_cycles)
        assert native.run_stats["fallback"] == fallbacks + 1
        with native.forced_python():
            assert _outcome(params, max_cycles) == native_side

    def test_out_of_range_watchdog_runs_on_python(self):
        assert native.execute(_spin_cluster(), max_cycles=10_000,
                              watchdog=2**64) is None

    def test_limits_keep_native_runs(self):
        params = TimingParams(num_cores=2, branch_taken_penalty=1000)
        natives = native.run_stats["native"]
        assert _outcome(params, 1_000_000)[0] == "ok"
        assert native.run_stats["native"] == natives + 1


class TestBankGeometry:
    """The engine maps addresses to banks with a shift and a mask, so only
    power-of-two bank counts and widths run natively."""

    @pytest.mark.parametrize("overrides", [{"tcdm_banks": 24},
                                           {"tcdm_bank_width": 12}])
    def test_non_power_of_two_geometry_runs_on_python(self, overrides):
        params = TimingParams(num_cores=2, **overrides)
        fallbacks = native.run_stats["fallback"]
        native_side = _outcome(params, 5_000)
        assert native.run_stats["fallback"] == fallbacks + 1
        with native.forced_python():
            assert _outcome(params, 5_000) == native_side

    def test_engine_refuses_non_power_of_two_geometry(self, monkeypatch):
        # Past the eligibility check, the engine's own entry validation
        # still refuses a geometry it cannot map.
        monkeypatch.setattr(native, "_cluster_eligible",
                            lambda *args: True)
        cluster = SnitchCluster(TimingParams(num_cores=2, tcdm_banks=24))
        cluster.load_programs([assemble(_SHORT_SPIN, name=f"short{i}")
                               for i in range(2)])
        with pytest.raises(native.NativeEngineError) as exc_info:
            native.execute(cluster, max_cycles=5_000)
        assert exc_info.value.name == "handshake"


#: Runs jacobi_2d/saris from each start cycle in ``argv[1]`` on both
#: engines and prints what each left behind, as JSON.
_FROM_START_CYCLE = """
import json, sys
import numpy as np
from repro.core.kernels import get_kernel
from repro.core.layout import build_layout
from repro.runner import generate_programs
from repro.snitch import native
from repro.snitch.cluster import SnitchCluster
from repro.snitch.params import TimingParams

kernel, shape = get_kernel("jacobi_2d"), (12, 12)
grids = kernel.make_grids(shape, seed=0)
runs = []
for start in json.loads(sys.argv[1]):
    for engine in ("native", "python"):
        cluster = SnitchCluster(TimingParams())
        layout = build_layout(kernel, cluster.allocator, shape)
        generated = generate_programs(kernel, layout, cluster, "saris")
        for name in kernel.arrays:
            cluster.write_grid(layout.arrays[name], grids[name])
        cluster.tcdm.write_f64_array(layout.coeff_table,
                                     layout.coeff_table_values())
        for gen in generated:
            for addr, values in gen.data:
                if len(values):
                    cluster.tcdm.write_bytes(addr,
                                             np.asarray(values).tobytes())
        cluster.load_programs([gen.program for gen in generated])
        cluster.cycle = start
        natives = native.run_stats["native"]
        if engine == "python":
            with native.forced_python():
                cluster.run()
        else:
            cluster.run()
        runs.append({"start": start, "engine": engine,
                     "native_runs": native.run_stats["native"] - natives,
                     "cycle": cluster.cycle,
                     "finish": [core.finish_cycle for core in cluster.cores],
                     "conflicts": cluster.tcdm.conflicts})
print(json.dumps(runs))
"""


class TestNegativeStartCycle:
    """The engine rotates its cores by the floor modulo of the cycle, as the
    Python engine does; a truncating ``%`` indexed before the core array
    for negative start cycles."""

    def test_negative_start_cycles_match_python(self):
        starts = [-1, -3, -5, -1001]
        # A child process, so an engine crash fails this test instead of
        # killing the pytest process.
        proc = subprocess.run(
            [sys.executable, "-c", _FROM_START_CYCLE, json.dumps(starts)],
            capture_output=True, text=True, env=fresh_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs = json.loads(proc.stdout.strip().splitlines()[-1])
        assert [run["start"] for run in runs[::2]] == starts
        for native_run, python_run in zip(runs[::2], runs[1::2]):
            assert native_run["native_runs"] == 1
            assert python_run["native_runs"] == 0
            for key in ("cycle", "finish", "conflicts"):
                assert native_run[key] == python_run[key], (
                    native_run["start"], key)

    def test_finish_below_cycle_zero_is_kept(self):
        # An empty program finishes on its start cycle, here a negative one.
        def finish_cycle():
            cluster = SnitchCluster(TimingParams(num_cores=1))
            cluster.load_programs([assemble("", name="empty")])
            cluster.cycle = -5
            cluster.run()
            return cluster.cores[0].finish_cycle

        natives = native.run_stats["native"]
        assert finish_cycle() == -5
        assert native.run_stats["native"] == natives + 1
        with native.forced_python():
            assert finish_cycle() == -5


class TestHandshake:
    def test_abi_mismatch_refused(self, monkeypatch):
        # An out-of-date caller stamping the wrong ABI version must be
        # refused before the engine touches any struct field.
        monkeypatch.setattr(native, "_ABI_VERSION", 999)
        with pytest.raises(native.NativeEngineError) as exc_info:
            native.execute(_spin_cluster(), max_cycles=10_000)
        assert exc_info.value.name == "handshake"
        assert exc_info.value.code == 5

    def test_magic_mismatch_refused(self, monkeypatch):
        monkeypatch.setattr(native, "_MAGIC", 0xDEADBEEF)
        with pytest.raises(native.NativeEngineError) as exc_info:
            native.execute(_spin_cluster(), max_cycles=10_000)
        assert exc_info.value.name == "handshake"

    def test_healthy_handshake_runs(self):
        cluster = _spin_cluster()
        final = native.execute(cluster, max_cycles=10_000_000)
        assert final is not None
        assert all(core.finished for core in cluster.cores)


class TestWatchdog:
    def test_explicit_watchdog_fires_with_attribution(self):
        with pytest.raises(native.NativeEngineError) as exc_info:
            native.execute(_spin_cluster(), max_cycles=10_000_000,
                           watchdog=500)
        err = exc_info.value
        assert err.name == "watchdog"
        assert err.code == 8
        assert err.hart >= 0  # which core the engine was stepping
        assert "watchdog" in str(err)

    def test_env_watchdog_fires_through_cluster_run(self, monkeypatch):
        monkeypatch.setenv(native.WATCHDOG_ENV_VAR, "500")
        cluster = _spin_cluster()
        with pytest.raises(native.NativeEngineError) as exc_info:
            cluster.run(max_cycles=10_000_000)
        assert exc_info.value.name == "watchdog"

    def test_generous_watchdog_never_fires(self):
        cluster = _spin_cluster()
        final = native.execute(cluster, max_cycles=10_000_000,
                               watchdog=50_000_000)
        assert final is not None
        assert all(core.finished for core in cluster.cores)

    def test_malformed_env_value_means_off(self, monkeypatch):
        monkeypatch.setenv(native.WATCHDOG_ENV_VAR, "soon")
        cluster = _spin_cluster()
        assert native.execute(cluster, max_cycles=10_000_000) is not None


class TestErrorSurface:
    def test_attributes_and_message(self):
        err = native.NativeEngineError(7, "bounds", hart=3, pc=41,
                                       addr=0x1000_0000)
        assert (err.code, err.name, err.hart, err.pc) == (7, "bounds", 3, 41)
        message = str(err)
        assert "bounds" in message and "core 3" in message
        assert "0x10000000" in message

    def test_unattributable_fault_omits_location(self):
        err = native.NativeEngineError(5, "handshake")
        assert "core" not in str(err)
        assert err.hart == -1

    def test_taxonomy_is_complete(self):
        assert set(native.ERROR_NAMES.values()) == {
            "max_cycles", "mem_range", "ssr_misuse", "internal",
            "handshake", "decode", "bounds", "watchdog"}


def small_job(kernel="jacobi_2d", variant="saris", **kwargs):
    return SweepJob.make(kernel, variant, tile_shape=small_tile(kernel),
                         **kwargs)


class TestSupervisedDegradation:
    """NativeEngineError → a counted native fault → one forced-Python
    retry, with zero worker replacements."""

    def test_injected_oob_fault_degrades_serially(self):
        jobs = [small_job("jacobi_2d"), small_job("j2d5pt")]
        with injected(FaultSpec(mode="native", kernel="j2d5pt",
                                engine="native")):
            report = run_sweep(jobs, workers=1, on_error="collect",
                               retry=RetryPolicy(backoff_seconds=0.0))
        assert not report.failures
        assert report.degraded == ["j2d5pt/saris"]
        assert report.native_faults >= 1
        assert report.pool_restarts == 0
        assert report.results[1].engine == "python"
        assert report.results[0].engine == "native"

    def test_injected_oob_fault_degrades_in_parallel_pool(self):
        jobs = [small_job(k) for k in ("jacobi_2d", "j2d5pt", "box2d1r",
                                       "j2d9pt")]
        with injected(FaultSpec(mode="native", kernel="box2d1r",
                                engine="native")):
            report = run_sweep(jobs, workers=2, on_error="collect",
                               retry=RetryPolicy(backoff_seconds=0.0))
        assert not report.failures
        assert report.degraded == ["box2d1r/saris"]
        assert report.native_faults >= 1
        assert report.pool_restarts == 0  # in-band, not a worker death

    def test_real_watchdog_fault_degrades(self, monkeypatch):
        # An actual runaway (modelled by a watchdog ceiling below the job's
        # runtime) must surface through the same native_fault path: the
        # Python engine has no watchdog, so the degraded retry completes.
        monkeypatch.setenv(native.WATCHDOG_ENV_VAR, "200")
        report = run_sweep([small_job("jacobi_2d")], workers=1,
                           on_error="collect",
                           retry=RetryPolicy(backoff_seconds=0.0))
        assert not report.failures
        assert report.degraded == ["jacobi_2d/saris"]
        assert report.native_faults == 1
        assert report.pool_restarts == 0
        assert report.results[0].engine == "python"

    def test_stats_carry_native_fault_counter(self):
        with injected(FaultSpec(mode="native", kernel="jacobi_2d",
                                engine="native")):
            report = run_sweep([small_job("jacobi_2d")], workers=1,
                               on_error="collect",
                               retry=RetryPolicy(backoff_seconds=0.0))
        stats = report.stats()
        assert stats["native_faults"] == 1
        assert stats["pool_restarts"] == 0


class TestDegradedIdentity:
    """Satellite: a degraded (forced-Python) run is metrically identical to
    the native run — ``engine`` is provenance, not identity."""

    def test_metrics_hash_ignores_engine_field(self):
        tile = small_tile("jacobi_2d")
        native_result = run_kernel("jacobi_2d", "saris", tile_shape=tile)
        with native.forced_python():
            python_result = run_kernel("jacobi_2d", "saris", tile_shape=tile)
        assert native_result.engine == "native"
        assert python_result.engine == "python"
        assert native_result.metrics_hash() == python_result.metrics_hash()

    def test_metrics_hash_sensitive_to_metrics(self):
        tile = small_tile("jacobi_2d")
        a = run_kernel("jacobi_2d", "saris", tile_shape=tile)
        b = run_kernel("jacobi_2d", "base", tile_shape=tile)
        assert a.metrics_hash() != b.metrics_hash()

    def test_hash_survives_store_roundtrip(self, tmp_path):
        job = small_job("jacobi_2d")
        store = ResultStore(tmp_path)
        report = run_sweep([job], workers=1, store=store)
        fresh = report.results[0]
        loaded = store.load(job)
        assert loaded is not None
        assert loaded.metrics_hash() == fresh.metrics_hash()

    def test_degraded_sweep_result_hashes_like_clean_run(self):
        job = small_job("jacobi_2d")
        clean = run_sweep([job], workers=1).results[0]
        with injected(FaultSpec(mode="native", kernel="jacobi_2d",
                                engine="native")):
            degraded = run_sweep([job], workers=1, on_error="collect",
                                 retry=RetryPolicy(backoff_seconds=0.0))
        assert degraded.degraded == ["jacobi_2d/saris"]
        assert (degraded.results[0].metrics_hash()
                == clean.metrics_hash())


class TestConcurrentLanes:
    """``repro serve`` and ``repro worker --jobs N`` run jobs on threads."""

    def test_fallback_run_beside_a_native_lane_reads_python(self):
        # ``KernelRunResult.engine`` names the engine that carried that
        # run, not whichever engine last ran in the process.
        import threading
        from dataclasses import replace

        lane_engines = []
        started, stop = threading.Event(), threading.Event()

        def native_lane():
            while not stop.is_set():
                lane_engines.append(run_kernel(
                    "jacobi_2d", "saris",
                    tile_shape=small_tile("jacobi_2d")).engine)
                started.set()

        # A 24-bank TCDM is not native-eligible: the Python engine.
        params = replace(TimingParams(), tcdm_banks=24)
        lane = threading.Thread(target=native_lane)
        lane.start()
        try:
            assert started.wait(60)
            runs_before = len(lane_engines)
            engines = [run_kernel("jacobi_2d", "saris", params=params,
                                  tile_shape=(26, 26)).engine
                       for _ in range(4)]
            runs_during = len(lane_engines) - runs_before
        finally:
            stop.set()
            lane.join(60)
        assert not lane.is_alive()
        assert runs_during > 0, "the native lane must overlap the runs"
        assert set(lane_engines) == {"native"}
        assert engines == ["python"] * 4

    def test_lanes_fill_the_shared_memos_safely(self, monkeypatch):
        import sys
        import threading

        from repro.core import kernels

        cases = [("jacobi_2d", "saris", TimingParams()),
                 ("j2d5pt", "base", TimingParams()),
                 ("jacobi_2d", "base", TimingParams(fpu_latency=4)),
                 ("box3d1r", "saris", TimingParams(fpu_latency=4))]
        expected = [run_kernel(name, variant, params=params,
                               tile_shape=small_tile(name)).metrics_hash()
                    for name, variant, params in cases]
        # Empty kernel and record-template memos: the lanes race to fill them.
        monkeypatch.setattr(native, "_TEMPLATES", {})
        monkeypatch.setattr(kernels, "_REGISTERED_KERNELS", {})
        runs, errors = [], []

        def lane(offset):
            try:
                for step in range(6):
                    index = (offset + step) % len(cases)
                    name, variant, params = cases[index]
                    result = run_kernel(name, variant, params=params,
                                        tile_shape=small_tile(name))
                    runs.append((index, result.metrics_hash(), result.engine))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            lanes = [threading.Thread(target=lane, args=(offset,))
                     for offset in range(4)]
            for thread in lanes:
                thread.start()
            for thread in lanes:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in lanes)
        assert errors == []
        assert len(runs) == 24
        assert all(digest == expected[index] and engine == "native"
                   for index, digest, engine in runs)
