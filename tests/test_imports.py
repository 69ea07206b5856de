"""Cold-path import hygiene, checked in fresh interpreters.

A fresh process pays only for what it uses: the package top levels
resolve their public names on first use, the CLI imports per subcommand,
and the native engine binds through the standard library's ctypes, so
neither NumPy nor a C parser loads on the way to a ready engine.  The
fabric coordinator and the service client never load the simulator at
all; a supervised pool loads it in its parent, before the first fork.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.snitch import native

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules the cold path must not load.
HEAVY = ("numpy", "cffi", "pycparser")

#: The simulator, which neither the fabric coordinator nor the client
#: needs (a trailing ``_`` matches every module with that prefix).
SIMULATOR = ("numpy", "repro.runner", "repro.snitch.cluster",
             "repro.core.codegen_")

#: Every name ``import repro`` used to bind eagerly.
PUBLIC_NAMES = (
    "TABLE1_KERNELS", "all_kernels", "get_kernel", "kernel_names",
    "register_kernel", "StencilKernel", "paper_variants", "register_variant",
    "variant_names", "Experiment", "ExperimentRecord", "ResultSet",
    "MachineSpec", "default_machine", "get_machine", "machine_names",
    "register_machine", "KernelRunResult", "VariantComparison",
    "compare_variants", "run_kernel", "TimingParams", "ResultStore",
    "SweepJob", "run_jobs", "run_sweep", "__version__",
)


def fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, env=fresh_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_after(code: str, modules=SIMULATOR) -> list:
    """Which of ``modules`` (names, or prefixes ending in ``_``) a new
    interpreter has loaded after running ``code``."""
    return run_fresh(code + textwrap.dedent(f"""
        import json as _json, sys as _sys
        print(_json.dumps(sorted(
            name for name in _sys.modules for module in {tuple(modules)!r}
            if name == module
            or (module.endswith("_") and name.startswith(module)))))
        """))


def imported_by(*args: str) -> set:
    """Top-level packages a new interpreter imports while running ``args``
    (read from its ``-X importtime`` report)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=fresh_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip().split(".")[0]
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("args", [
    ("-c", "import repro"),
    ("-c", "import repro.cli"),
    ("-c", "from repro.snitch import native; native.available()"),
    ("-m", "repro.cli", "worker", "--help"),
], ids=["import-repro", "import-cli", "native-load", "worker-help"])
def test_cold_path_skips_heavy_modules(args):
    assert imported_by(*args) & set(HEAVY) == set()


class TestLazyPackage:
    def test_every_public_name_resolves_and_is_listed(self):
        result = run_fresh(f"""
            import json, repro
            names = {PUBLIC_NAMES!r}
            star = {{}}
            exec("from repro import *", star)
            print(json.dumps({{
                "unlisted": [n for n in names if n not in dir(repro)],
                "unresolved": [n for n in names
                               if getattr(repro, n, None) is None],
                "star": [n for n in names if n not in star],
            }}))
            """)
        assert result == {"unlisted": [], "unresolved": [], "star": []}

    def test_lazy_names_are_the_real_objects(self):
        import repro
        from repro.runner import run_kernel
        from repro.sweep.engine import run_sweep

        assert repro.run_kernel is run_kernel
        assert repro.run_sweep is run_sweep
        assert "jacobi_2d" in repro.KERNEL_NAMES

    def test_unknown_name_raises_attribute_error(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_name


@pytest.mark.skipif(not native.available(),
                    reason=f"native engine unavailable: "
                           f"{native.disabled_reason()}")
def test_engine_loads_without_cffi():
    result = run_fresh("""
        import json, sys
        sys.modules["cffi"] = None  # any `import cffi` now fails
        from repro.snitch import native
        print(json.dumps([native.available(), native.disabled_reason()]))
        """)
    assert result == [True, None]


class TestServiceWithoutSimulator:
    def test_coordinator_modules_load_no_simulator(self):
        assert loaded_after("import repro.service.server, "
                            "repro.service.fabric, repro.doctor\n") == []

    def test_client_loads_neither_the_daemon_nor_numpy(self):
        assert loaded_after("import repro.service.client\n",
                            ("asyncio", "numpy", "repro.service.queue")) == []

    def test_fabric_round_trip_never_loads_numpy(self):
        """Submits (a job list, an Experiment with an inline machine), a
        lease, a canned upload and a malformed one, over real HTTP to an
        in-process fabric daemon."""
        from repro.sweep import SweepJob, execute_job
        from repro.sweep.store import encode_result
        from tests.conftest import small_tile

        canned = execute_job(SweepJob.make(
            "jacobi_2d", "base", tile_shape=small_tile("jacobi_2d")))
        # Python literals of the uploaded texts.
        canned_text = json.dumps(encode_result(canned))
        malformed_text = json.dumps(json.dumps({"kernel": "j2d5pt"}))
        result = run_fresh(f"""
            import asyncio, json, sys, threading
            from repro.service.client import ServiceClient, ServiceError
            from repro.service.fabric import FabricCoordinator
            from repro.service.queue import JobQueue
            from repro.service.server import ReproService

            loop = asyncio.new_event_loop()
            threading.Thread(target=loop.run_forever, daemon=True).start()

            async def boot():
                queue = JobQueue(dispatch="fabric")
                service = ReproService(queue, port=0,
                                       fabric=FabricCoordinator(queue))
                return await service.start()

            service = asyncio.run_coroutine_threadsafe(boot(), loop).result(30)
            client = ServiceClient(service.url)
            client.submit({{"jobs": [{{"kernel": "jacobi_2d",
                                       "variant": "base",
                                       "tile_shape": [12, 12]}}]}})
            machine = {{"name": "tiny", "num_cores": 4, "tcdm_banks": 16}}
            client.submit({{"experiment": {{
                "kernels": ["j2d5pt"], "variants": ["base", "saris"],
                "machines": [machine], "tiles": [[12, 12]]}}}})
            grants = client.lease("w1", capacity=2)["grants"]
            first, second = grants
            client.complete(first["lease"], {{
                "ok": True, "hash": first["hash"],
                "result": {canned_text}}})
            try:
                client.complete(second["lease"], {{
                    "ok": True, "hash": second["hash"],
                    "result": {malformed_text}}})
                status = None
            except ServiceError as exc:
                status = exc.status
            served = client.job(first["hash"])["result"]
            states = [client.job(g["hash"])["state"] for g in grants]
            client.close()
            asyncio.run_coroutine_threadsafe(service.close(), loop).result(30)
            print(json.dumps({{
                "grants": len(grants),
                "malformed": status,
                "states": states,
                "served": served,
                "numpy": "numpy" in sys.modules,
            }}))
            """)
        assert result == {"grants": 2, "malformed": 400,
                          "states": ["done", "running"],
                          "served": canned.to_json_dict(), "numpy": False}

    @pytest.mark.skipif(not (native.available()
                             and Path("/proc/self/maps").exists()),
                        reason="needs the native engine and /proc")
    def test_coordinator_stats_never_map_the_engine(self, tmp_path):
        """A ``repro serve --fabric`` process answers ``/v1/stats``
        without loading the native engine it never runs."""
        from repro.service.client import ServiceClient

        with subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--fabric",
                 "--port", "0", "--cache-dir", str(tmp_path)],
                stdout=subprocess.PIPE, text=True, env=fresh_env()) as proc:
            try:
                banner = proc.stdout.readline()
                url = re.search(r"listening on (\S+)", banner).group(1)
                client = ServiceClient(url)
                stats = client.stats()
                client.close()
                maps = Path(f"/proc/{proc.pid}/maps").read_text()
            finally:
                proc.terminate()
                proc.wait(30)
        assert re.findall(r"/engine-[^/\s]*\.so$", maps, re.M) == []
        assert sorted(stats) == ["fabric", "metrics", "queue", "store",
                                 "version"]


def test_supervised_pool_loads_the_simulator_before_forking():
    assert loaded_after("import repro.sweep.supervisor\n") == []
    assert loaded_after(
        "from repro.sweep.supervisor import RetryPolicy, SupervisedPool\n"
        "SupervisedPool(1, RetryPolicy()).close()\n",
        ("numpy", "repro.runner", "repro.snitch.cluster")) == [
            "numpy", "repro.runner", "repro.snitch.cluster"]
