"""Golden-numbers regression for the fast simulation engine.

``golden_cycles.json`` was recorded from the original tick-everything
interpreter (the seed simulator) for all ten Table-1 kernels in both
variants at the paper tile sizes, *before* the engine was re-architected
around quiescence-aware scheduling, precomputed stream sequences and
compiled instruction handlers.  Every cycle count, per-core stall breakdown,
FPU issue/stall statistic and TCDM conflict statistic must match the seed
exactly — the fast engine is an optimization, not a model change.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest

from repro import run_kernel
from repro.core.kernels import TABLE1_KERNELS
from repro.snitch import native
from repro.snitch.cluster import SnitchCluster
from repro.snitch.trace import FPU_COUNTERS

GOLDEN_PATH = Path(__file__).parent / "golden_cycles.json"

with GOLDEN_PATH.open() as fh:
    GOLDEN = json.load(fh)


def _snapshot(cluster_result) -> dict:
    """The observable statistics of one run, in golden-file form."""
    return {
        "cycles": cluster_result.cycles,
        "tcdm_requests": cluster_result.tcdm_requests,
        "tcdm_conflicts": cluster_result.tcdm_conflicts,
        "icache_hits": cluster_result.icache_hits,
        "icache_misses": cluster_result.icache_misses,
        "dma_bytes": cluster_result.dma_bytes,
        "dma_busy_cycles": cluster_result.dma_busy_cycles,
        "cores": [
            {
                "hart_id": core.hart_id,
                "cycles": core.cycles,
                "int_retired": core.int_retired,
                "fp_issued": core.fp_issued,
                "fp_compute": core.fp_compute,
                "flops": core.flops,
                "stalls": core.stalls,
                "fpu_stalls": core.fpu_stalls,
            }
            for core in cluster_result.cores
        ],
    }


#: Machines beyond the paper cluster with recorded goldens, and the kernel
#: subset they were recorded for (all Table-1 kernels would triple the suite's
#: runtime for little extra signal; the subset spans 2D/3D/indirect-heavy).
MACHINE_GOLDEN_KERNELS = ("jacobi_2d", "j2d5pt", "box3d1r", "ac_iso_cd")
MACHINE_GOLDEN_MACHINES = ("snitch-4", "snitch-16")


def test_golden_file_covers_table1():
    expected = {f"{name}/{variant}"
                for name in TABLE1_KERNELS
                for variant in ("base", "saris")}
    expected |= {f"{machine}:{name}/{variant}"
                 for machine in MACHINE_GOLDEN_MACHINES
                 for name in MACHINE_GOLDEN_KERNELS
                 for variant in ("base", "saris")}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("variant", ["base", "saris"])
@pytest.mark.parametrize("name", sorted(TABLE1_KERNELS))
def test_bit_identical_to_seed_simulator(name, variant):
    result = run_kernel(name, variant=variant)
    assert result.correct
    got = _snapshot(result.cluster)
    expected = GOLDEN[f"{name}/{variant}"]
    # Compare piecewise for a readable failure before the full comparison.
    assert got["cycles"] == expected["cycles"], "total cycle count drifted"
    assert got["tcdm_conflicts"] == expected["tcdm_conflicts"], \
        "TCDM conflict statistics drifted"
    assert got["tcdm_requests"] == expected["tcdm_requests"], \
        "TCDM request statistics drifted"
    for got_core, exp_core in zip(got["cores"], expected["cores"]):
        assert got_core["stalls"] == exp_core["stalls"], \
            f"hart {exp_core['hart_id']}: integer stall breakdown drifted"
        assert got_core["fpu_stalls"] == exp_core["fpu_stalls"], \
            f"hart {exp_core['hart_id']}: FPU stall breakdown drifted"
    assert got == expected


@pytest.mark.parametrize("variant", ["base", "saris"])
@pytest.mark.parametrize("name", MACHINE_GOLDEN_KERNELS)
@pytest.mark.parametrize("machine", MACHINE_GOLDEN_MACHINES)
def test_bit_identical_on_registered_machines(machine, name, variant):
    """The engine is golden-verified on non-paper presets too (snitch-4/16)."""
    result = run_kernel(name, variant=variant, machine=machine)
    assert result.correct
    got = _snapshot(result.cluster)
    expected = GOLDEN[f"{machine}:{name}/{variant}"]
    assert got["cycles"] == expected["cycles"], "total cycle count drifted"
    assert got == expected


@pytest.mark.parametrize("engine", ["native", "python"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_fpu_cycle_classes_cover_every_core_cycle(monkeypatch, case, engine):
    """Every ``FpuStats`` slot but ``flops`` is a cycle class, and on every
    core the classes sum to ``CoreStats.cycles`` plus one.  The extra cycle
    is the finish cycle: the FPU issue slot runs on it, and counts
    ``idle_empty``, before the integer slot marks the core finished, while
    ``cycles`` is ``finish_cycle - start``."""
    if engine == "native" and not native.available():
        pytest.skip(f"native engine unavailable: {native.disabled_reason()}")
    machine, _, kernel_variant = case.rpartition(":")
    name, variant = kernel_variant.split("/")
    clusters = []
    real_run = SnitchCluster.run

    def keeping_run(cluster, *args, **kwargs):
        clusters.append(cluster)
        return real_run(cluster, *args, **kwargs)

    monkeypatch.setattr(SnitchCluster, "run", keeping_run)
    with (native.forced_python() if engine == "python"
          else contextlib.nullcontext()):
        result = run_kernel(name, variant=variant, machine=machine or None)
    if not machine:
        # The presets' runs may take the Python engine either way: on
        # snitch-16, box3d1r needs the icache LRU model.
        assert result.engine == engine
    (cluster,) = clusters
    classes = [counter for counter in FPU_COUNTERS if counter != "flops"]
    # A native run leaves the counters in the engine's records; reading
    # ``cluster.cores`` builds the cores from them.
    for stats, core in zip(result.cluster.cores, cluster.cores):
        fpu = core.fpu.stats
        counted = {counter: getattr(fpu, counter) for counter in classes}
        assert sum(counted.values()) == stats.cycles + 1, \
            (stats.hart_id, stats.cycles, counted)
