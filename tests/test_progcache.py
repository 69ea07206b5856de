"""Cross-job compile cache: persistence, stability and invalidation."""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core import progcache
from repro.core.kernels import get_kernel
from repro.core.layout import build_layout
from repro.core.variants import register_variant, unregister_variant
from repro.fingerprint import callable_fingerprint, source_fingerprint
from repro.runner import _CODEGEN_CACHE, generate_programs, run_kernel
from repro.snitch.cluster import SnitchCluster


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point every persistent cache at a scratch directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CODEGEN_CACHE", raising=False)
    _CODEGEN_CACHE.clear()
    yield tmp_path
    _CODEGEN_CACHE.clear()


class TestKeyStability:
    def test_key_hash_stable_across_processes(self):
        """Content hashes must not depend on PYTHONHASHSEED."""
        key = (("kernel", 1, (2, 3)), "saris", "abc123", (64, 64))
        expected = progcache.key_hash(key)
        code = (
            "from repro.core import progcache\n"
            f"print(progcache.key_hash({key!r}))\n"
        )
        for seed in ("0", "12345"):
            env = dict(os.environ,
                       PYTHONPATH="src" + os.pathsep
                       + os.environ.get("PYTHONPATH", ""),
                       PYTHONHASHSEED=seed)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            assert out.stdout.strip() == expected

    def test_source_fingerprint_covers_native_engine(self):
        with_c = source_fingerprint(("snitch",))
        assert len(with_c) == 12
        # the .c source participates: the store fingerprint must change if
        # engine.c changes, which source_fingerprint guarantees by sweeping
        # both suffixes; sanity-check the file is actually seen.
        from repro.fingerprint import _PACKAGE_ROOT

        assert (_PACKAGE_ROOT / "snitch" / "native" / "engine.c").exists()


class TestPersistence:
    def test_disk_hit_is_bit_identical_to_cold(self, isolated_cache):
        cold = run_kernel("jacobi_2d", variant="saris", tile_shape=(12, 12))
        assert len(list(progcache.cache_dir().glob("*.pkl"))) == 1
        # Drop the in-memory layer: the next run must hit the disk entry.
        _CODEGEN_CACHE.clear()
        warm = run_kernel("jacobi_2d", variant="saris", tile_shape=(12, 12))
        assert warm.cycles == cold.cycles
        assert warm.activity == cold.activity
        assert warm.program_info == cold.program_info

    @pytest.mark.parametrize("variant", ["base", "saris"])
    def test_loaded_program_set_equals_fresh_one(self, isolated_cache,
                                                 variant):
        kernel = get_kernel("jacobi_2d")  # two core shapes
        cluster = SnitchCluster()
        layout = build_layout(kernel, cluster.allocator)
        fresh = generate_programs(kernel, layout, cluster, variant)
        progcache.save("set", ("set", variant), (layout, fresh))
        loaded_layout, loaded = progcache.load("set", ("set", variant))

        def state(generated):
            return [(gen.source, gen.program.name, gen.program.labels,
                     gen.program.instructions, gen.info,
                     [(addr, values.dtype, values.tobytes())
                      for addr, values in gen.data])
                    for gen in generated]

        def distinct(generated):
            return len({id(inst) for gen in generated
                        for inst in gen.program.instructions})

        assert loaded_layout == layout
        assert state(loaded) == state(fresh)
        # Cores of one shape still share their unslotted instructions.
        assert distinct(loaded) == distinct(fresh) < sum(
            len(gen.program) for gen in fresh)

    def test_entries_shared_across_processes(self, isolated_cache):
        run_kernel("jacobi_2d", variant="saris", tile_shape=(12, 12))
        entries = list(progcache.cache_dir().glob("*.pkl"))
        assert len(entries) == 1
        code = (
            "from repro.runner import run_kernel\n"
            "from repro.core import progcache\n"
            "import repro.core.codegen_base as cb\n"
            "def boom(*a, **k):\n"
            "    raise AssertionError('codegen ran despite warm disk cache')\n"
            "cb.generate_base_program = boom\n"
            "result = run_kernel('jacobi_2d', variant='saris', "
            "tile_shape=(12, 12))\n"
            "print(result.cycles)\n"
        )
        env = dict(os.environ,
                   PYTHONPATH="src" + os.pathsep
                   + os.environ.get("PYTHONPATH", ""),
                   REPRO_CACHE_DIR=str(isolated_cache))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert int(out.stdout.strip()) > 0

    def test_env_var_disables_persistence(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", "0")
        run_kernel("jacobi_2d", variant="saris", tile_shape=(12, 12))
        assert not progcache.cache_dir().exists()

    def test_corrupt_entry_degrades_to_miss(self, isolated_cache):
        run_kernel("jacobi_2d", variant="saris", tile_shape=(12, 12))
        (entry,) = progcache.cache_dir().glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        _CODEGEN_CACHE.clear()
        result = run_kernel("jacobi_2d", variant="saris", tile_shape=(12, 12))
        assert result.correct


class TestInvalidation:
    def test_variant_source_change_invalidates(self, isolated_cache):
        """Re-registering a variant with different source misses cleanly."""

        def backend_v1(kernel, layout, geometry, cluster, **kwargs):
            from repro.core.codegen_base import generate_base_program
            generated = generate_base_program(kernel, layout, geometry,
                                              **kwargs)
            generated.info["plugin_version"] = 1
            return generated

        def backend_v2(kernel, layout, geometry, cluster, **kwargs):
            from repro.core.codegen_base import generate_base_program
            generated = generate_base_program(kernel, layout, geometry,
                                              **kwargs)
            generated.info["plugin_version"] = 2
            return generated

        assert callable_fingerprint(backend_v1) != \
            callable_fingerprint(backend_v2)
        register_variant("cachetest", description="v1")(backend_v1)
        try:
            first = run_kernel("jacobi_2d", variant="cachetest",
                               tile_shape=(12, 12))
            assert first.program_info[0]["plugin_version"] == 1
            unregister_variant("cachetest")
            register_variant("cachetest", description="v2")(backend_v2)
            _CODEGEN_CACHE.clear()
            second = run_kernel("jacobi_2d", variant="cachetest",
                                tile_shape=(12, 12))
            # Served freshly from the v2 backend, not the stale v1 entry.
            assert second.program_info[0]["plugin_version"] == 2
            assert len(list(progcache.cache_dir().glob("*.pkl"))) == 2
        finally:
            unregister_variant("cachetest")

    def test_kernel_content_change_invalidates(self, isolated_cache):
        """Two same-name kernels with different content get distinct entries."""
        from repro.core.kernels import get_kernel

        kernel = get_kernel("jacobi_2d")
        run_kernel(kernel, variant="saris", tile_shape=(12, 12))
        before = len(list(progcache.cache_dir().glob("*.pkl")))
        # Same name, different stencil content (coefficient tweak).
        import dataclasses

        coefficients = dict(kernel.coefficients)
        first_coeff = next(iter(coefficients))
        coefficients[first_coeff] *= 2.0
        modified = dataclasses.replace(kernel, coefficients=coefficients)
        _CODEGEN_CACHE.clear()
        run_kernel(modified, variant="saris", tile_shape=(12, 12),
                   check=False)
        after = len(list(progcache.cache_dir().glob("*.pkl")))
        assert after == before + 1

    def test_codegen_source_fingerprint_partitions_cache(self, isolated_cache,
                                                         monkeypatch):
        run_kernel("jacobi_2d", variant="saris", tile_shape=(12, 12))
        assert progcache.cache_dir().name == progcache.codegen_fingerprint()
        monkeypatch.setattr(progcache, "codegen_fingerprint",
                            lambda: "deadbeefcafe")
        assert not list(progcache.cache_dir().glob("*.pkl"))


class TestConcurrentSaves:
    def test_threads_saving_one_key_never_publish_partial_entries(
            self, isolated_cache):
        """Two threads of one process compiling the same program (``repro
        serve --workers N`` lanes, ``repro worker --jobs N``) save one key
        at once.  While a valid entry exists, every load must hit."""
        key = ("stress", 1)
        value = [float(i) for i in range(20_000)]  # a multi-write pickle
        assert progcache.save("stress", key, value) is not None
        stop = threading.Event()

        def saver():
            while not stop.is_set():
                progcache.save("stress", key, value)

        savers = [threading.Thread(target=saver) for _ in range(2)]
        loads = misses = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in savers:
                thread.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                loads += 1
                misses += progcache.load("stress", key) is None
        finally:
            stop.set()
            for thread in savers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in savers)
        assert loads > 50
        assert misses == 0, f"{misses} of {loads} loads missed"
        assert not list(progcache.cache_dir().glob("*.tmp*"))
