"""Cold-path import hygiene, checked in fresh interpreters.

A fresh process pays only for what it uses: the package top levels
resolve their public names on first use, the CLI imports per subcommand,
and the native engine binds through the standard library's ctypes, so
neither NumPy nor a C parser loads on the way to a ready engine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.snitch import native

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules the cold path must not load.
HEAVY = ("numpy", "cffi", "pycparser")

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
