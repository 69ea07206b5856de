"""Simulation-speed benchmark: Table-1 sweep timing plus sweep-engine suite.

This harness measures how fast the *simulator itself* runs and writes the
result to ``BENCH_simspeed.json`` so future changes have a performance
trajectory to regress against.  Measurements taken:

* ``table1_sweep`` — wall seconds and simulated cycles per second for the
  exact in-process sweep every figure/table benchmark consumes (all ten
  Table-1 kernels, both variants, paper tile sizes).  The first repetition
  is cold *for this process* (warm only through whatever the persistent
  compile cache already holds), later ones are fully warm.
* ``engines`` — the same sweep under the native symmetry-folded engine vs
  the Python reference engine (``folded`` vs ``unfolded``), both warm, so
  the fold speedup is tracked explicitly.
* ``machines`` — per-preset timing (snitch-4/8/16) of a representative
  kernel pair, recording how simulation cost grows with core count.
* ``suite`` — the full ``repro reproduce`` job list (Table-1 plus ablations)
  through the sweep engine three ways: serial, process-pool parallel, and a
  warm re-run served entirely from a fresh on-disk result store.  The serial
  and parallel metrics are verified bit-identical as part of the run, and
  the parallel leg records the honest ``parallel_effective`` flag.
* ``scaleout`` — a warm 2-cluster direct scaleout simulation
  (:mod:`repro.scaleout.sim`) of a representative kernel pair on
  ``manticore-2``, recording simulated **cluster**-cycles per second so the
  multi-cluster path has its own throughput trajectory.

``--quick`` runs the ``table1_sweep`` repetitions (cold + warm) plus the
small ``scaleout`` leg, which is what the CI perf-smoke job compares
against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_simspeed.py [-o OUT] [-r REPS] [--quick]
    PYTHONPATH=src python -m repro.cli bench-speed [--quick]

Reference points: the seed (pre-fast-engine) simulator ran the Table-1 sweep
in ~12.7 s on the machine that recorded ``tests/golden_cycles.json``; PR 1
brought that to ~3 s single-process; the native symmetry-folded engine plus
the cross-job compile cache bring it to ~0.5 s process-cold / ~0.25 s warm.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro import compare_variants
from repro.core.kernels import TABLE1_KERNELS
from repro.snitch import native
from repro.sweep import ResultStore, run_sweep
from repro.sweep.engine import resolve_workers
from repro.sweep.artifacts import ablation_jobs, paper_jobs

#: Worker count for the parallel leg of the suite benchmark when none is
#: requested: resolved from the CPU count, so a single-CPU container
#: automatically measures the (honest) serial fallback instead of a
#: process-pool slowdown.
DEFAULT_SUITE_WORKERS = None

#: Kernel pair used for the per-machine scaling measurement: one
#: indirection-heavy 3D kernel and one small 2D kernel.
MACHINE_SCALING_KERNELS = ("ac_iso_cd", "jacobi_2d")

#: Machine presets measured by the scaling leg.
MACHINE_SCALING_PRESETS = ("snitch-4", "snitch-8", "snitch-16")

#: Kernel pair and topology of the direct-scaleout throughput leg.
SCALEOUT_KERNELS = ("jacobi_2d", "j3d27pt")
SCALEOUT_MACHINE = "manticore-2"


def run_sweep_timing() -> Dict[str, object]:
    """Run the Table-1 base+SARIS sweep once; return timing and cycle totals."""
    per_kernel: Dict[str, Dict[str, object]] = {}
    total_cycles = 0
    start = time.perf_counter()
    for name in TABLE1_KERNELS:
        kernel_start = time.perf_counter()
        pair = compare_variants(name)
        cycles = pair.base.cycles + pair.saris.cycles
        total_cycles += cycles
        per_kernel[name] = {
            "wall_seconds": round(time.perf_counter() - kernel_start, 4),
            "base_cycles": pair.base.cycles,
            "saris_cycles": pair.saris.cycles,
            "speedup": round(pair.speedup, 3),
        }
    wall = time.perf_counter() - start
    return {
        "wall_seconds": round(wall, 3),
        "simulated_cycles": total_cycles,
        "cycles_per_second": round(total_cycles / wall, 1),
        "kernels": per_kernel,
    }


#: Backward-compatible alias (the pre-package harness exported ``run_sweep``).
run_table1_sweep = run_sweep_timing


def _metrics_key(result) -> tuple:
    """The full metric surface compared between serial and parallel runs."""
    return (result.kernel, result.variant, result.tile_shape, result.cycles,
            result.total_flops, result.fpu_util, result.ipc,
            result.flops_per_cycle, result.correct, result.max_abs_error,
            result.runtime_imbalance, result.tcdm_conflict_rate,
            result.dma_utilization, result.tile_traffic_bytes, result.activity)


def run_suite_benchmark(
        workers: Optional[int] = DEFAULT_SUITE_WORKERS) -> Dict[str, object]:
    """Time the full reproduce job list serial vs parallel vs warm cache.

    The serial leg runs first in this process; the parallel leg's forked
    workers therefore inherit the warmed codegen caches, making the
    comparison one of steady-state simulation fan-out (the regime of pytest
    sessions and long-running services).  The warm leg re-runs the sweep
    against the store populated by the parallel leg.  With ``workers=None``
    the pool size is resolved from the CPU count, so single-CPU machines
    measure the serial fallback and say so via ``parallel_effective``.
    """
    jobs = list(paper_jobs()) + list(ablation_jobs().values())
    workers = resolve_workers(workers, len(jobs))
    with tempfile.TemporaryDirectory(prefix="repro-suite-") as cache_dir:
        store = ResultStore(cache_dir)
        serial = run_sweep(jobs, workers=1, store=None)
        parallel = run_sweep(jobs, workers=workers, store=store)
        warm = run_sweep(jobs, workers=1, store=store)
        bit_identical = all(
            _metrics_key(a) == _metrics_key(b)
            for a, b in zip(serial.results, parallel.results))
        warm_identical = all(
            _metrics_key(a)[:4] == _metrics_key(b)[:4]
            for a, b in zip(serial.results, warm.results))
    serial_wall = serial.wall_seconds
    return {
        "jobs": len(jobs),
        "executed": serial.executed,
        "cpu_count": os.cpu_count(),
        "parallel_workers": workers,
        "parallel_effective": parallel.parallel_effective,
        "serial_wall_seconds": round(serial_wall, 3),
        "parallel_wall_seconds": round(parallel.wall_seconds, 3),
        "warm_cache_wall_seconds": round(warm.wall_seconds, 3),
        "parallel_speedup": round(serial_wall / parallel.wall_seconds, 2)
        if parallel.wall_seconds else 0.0,
        "warm_cache_speedup": round(serial_wall / warm.wall_seconds, 2)
        if warm.wall_seconds else 0.0,
        "warm_cache_hits": warm.cache_hits,
        "bit_identical": bit_identical and warm_identical,
    }


def run_engine_comparison() -> Dict[str, object]:
    """Warm Table-1 sweep under the folded (native) vs unfolded engine.

    Both legs run with warm codegen caches, so the ratio isolates the
    execution-engine speedup itself.  On machines without a C compiler both
    legs run the Python engine and the ratio reports ~1.0.
    """
    folded = run_sweep_timing()
    with native.forced_python():
        unfolded = run_sweep_timing()
    fold_speedup = (unfolded["wall_seconds"] / folded["wall_seconds"]
                    if folded["wall_seconds"] else 0.0)
    return {
        "native_available": native.available(),
        "folded_warm": {key: folded[key] for key in
                        ("wall_seconds", "cycles_per_second")},
        "unfolded_warm": {key: unfolded[key] for key in
                          ("wall_seconds", "cycles_per_second")},
        "fold_speedup": round(fold_speedup, 2),
    }


def run_machine_scaling() -> Dict[str, object]:
    """Per-preset simulation cost: how wall time grows with core count.

    Each preset is warmed up (codegen + decode + stream caches) before the
    timed pass, so the numbers isolate steady-state *simulation* cost.
    ``cost_per_core_cycle_ns`` is the comparable figure across presets: with
    the symmetry fold (shared decoded programs, SoA state, one busy-mask
    pass for the whole cluster) it stays roughly flat as the cluster grows,
    which is what makes total cost growth sub-linear in core count relative
    to the unfolded engine's per-core Python overhead.
    """
    out: Dict[str, object] = {}
    baseline = None
    for preset in MACHINE_SCALING_PRESETS:
        for kernel in MACHINE_SCALING_KERNELS:  # warm-up pass, untimed
            compare_variants(kernel, machine=preset)
        start = time.perf_counter()
        cycles = 0
        core_cycles = 0
        cores = 0
        for kernel in MACHINE_SCALING_KERNELS:
            pair = compare_variants(kernel, machine=preset)
            cycles += pair.base.cycles + pair.saris.cycles
            for result in (pair.base, pair.saris):
                cores = result.activity.num_cores
                core_cycles += sum(result.activity.core_cycles)
        wall = time.perf_counter() - start
        entry = {
            "cores": cores,
            "wall_seconds": round(wall, 4),
            "simulated_cycles": cycles,
            "simulated_core_cycles": core_cycles,
            "cycles_per_second": round(cycles / wall, 1) if wall else 0.0,
            "cost_per_core_cycle_ns":
                round(wall / core_cycles * 1e9, 1) if core_cycles else 0.0,
        }
        if baseline is None:
            baseline = entry
        else:
            entry["wall_growth"] = round(
                wall / baseline["wall_seconds"], 2)
            entry["core_growth"] = round(cores / baseline["cores"], 2)
        out[preset] = entry
    return out


def run_scaleout_benchmark() -> Dict[str, object]:
    """Warm direct-scaleout throughput on the CI-sized 2-cluster topology.

    Times :func:`repro.scaleout.sim.direct_scaleout_table` for a
    representative kernel pair (both paper variants, one cluster simulation
    per cluster of the topology, shared-HBM timeline assembly included) and
    records simulated *cluster*-cycles per second — the figure
    ``benchmarks/perf_smoke.py`` guards so multi-cluster throughput cannot
    silently rot.  A first untimed pass warms codegen and decode caches.
    """
    from repro.machine import get_machine
    from repro.scaleout.sim import direct_scaleout_table

    machine = get_machine(SCALEOUT_MACHINE)
    direct_scaleout_table(SCALEOUT_KERNELS, machine=machine)  # warm-up
    start = time.perf_counter()
    table = direct_scaleout_table(SCALEOUT_KERNELS, machine=machine)
    wall = time.perf_counter() - start
    cluster_cycles = sum(tile.cycles
                         for entry in table.values()
                         for side in ("base", "saris")
                         for tile in entry[side].tile_results)
    return {
        "machine": SCALEOUT_MACHINE,
        "clusters": machine.num_clusters,
        "kernels": list(SCALEOUT_KERNELS),
        "wall_seconds": round(wall, 4),
        "simulated_cluster_cycles": cluster_cycles,
        "cluster_cycles_per_second": round(cluster_cycles / wall, 1)
        if wall else 0.0,
    }


def run_benchmark(repetitions: int = 2,
                  output: Optional[str] = "BENCH_simspeed.json",
                  suite_workers: Optional[int] = DEFAULT_SUITE_WORKERS,
                  include_suite: bool = True,
                  include_engines: bool = True,
                  include_machines: bool = True,
                  include_scaleout: bool = True,
                  quick: bool = False) -> Dict[str, object]:
    """Time ``repetitions`` sweeps (and the engine suite); write the report.

    ``quick`` limits the run to the Table-1 sweep repetitions plus the small
    direct-scaleout leg (the CI perf-smoke payload) and marks the report
    accordingly.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if quick:
        include_suite = include_engines = include_machines = False
    runs_before = dict(native.run_stats)
    sweeps: List[Dict[str, object]] = []
    for _ in range(repetitions):
        sweeps.append(run_sweep_timing())
    # Which engine *actually ran* the sweeps (not merely which is loadable):
    # a sweep that fell back even once is not honestly "folded-native".
    native_runs = native.run_stats["native"] - runs_before["native"]
    fallback_runs = native.run_stats["fallback"] - runs_before["fallback"]
    engine = ("folded-native" if native_runs and not fallback_runs
              else "python")
    best = min(sweeps, key=lambda sweep: sweep["wall_seconds"])
    report = {
        "benchmark": "table1_sweep",
        "description": "Full Table-1 base+SARIS sweep at paper tile sizes",
        "python": platform.python_version(),
        "engine": engine,
        "engine_runs": {"native": native_runs, "fallback": fallback_runs},
        "quick": quick,
        "repetitions": repetitions,
        "cold_wall_seconds": sweeps[0]["wall_seconds"],
        "best_wall_seconds": best["wall_seconds"],
        "simulated_cycles": best["simulated_cycles"],
        "best_cycles_per_second": best["cycles_per_second"],
        "sweeps": sweeps,
    }
    if include_engines:
        report["engines"] = run_engine_comparison()
    if include_machines:
        report["machines"] = run_machine_scaling()
    if include_suite:
        report["suite"] = run_suite_benchmark(workers=suite_workers)
    if include_scaleout:
        report["scaleout"] = run_scaleout_benchmark()
    if output:
        with open(output, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return report


def print_report(report: Dict[str, object]) -> None:
    """Human-readable summary of a benchmark report."""
    print(f"Table-1 sweep ({report['repetitions']} repetitions, "
          f"python {report['python']}):")
    for idx, sweep in enumerate(report["sweeps"]):
        label = "cold" if idx == 0 else "warm"
        print(f"  sweep {idx} ({label}): {sweep['wall_seconds']:.2f} s wall, "
              f"{sweep['cycles_per_second']:,.0f} simulated cycles/s")
    print(f"  best: {report['best_wall_seconds']:.2f} s "
          f"({report['best_cycles_per_second']:,.0f} cycles/s) for "
          f"{report['simulated_cycles']:,} simulated cycles "
          f"[engine: {report.get('engine', '?')}]")
    engines = report.get("engines")
    if engines:
        folded = engines["folded_warm"]
        unfolded = engines["unfolded_warm"]
        print(f"Engines (warm): folded {folded['wall_seconds']:.2f} s vs "
              f"unfolded {unfolded['wall_seconds']:.2f} s "
              f"({engines['fold_speedup']:.2f}x fold speedup)")
    machines = report.get("machines")
    if machines:
        print("Machine scaling:")
        for preset, entry in machines.items():
            growth = (f", {entry['wall_growth']:.2f}x wall for "
                      f"{entry['core_growth']:.2f}x cores"
                      if "wall_growth" in entry else "")
            print(f"  {preset}: {entry['wall_seconds']:.2f} s, "
                  f"{entry['cycles_per_second']:,.0f} cycles/s{growth}")
    scaleout = report.get("scaleout")
    if scaleout:
        print(f"Direct scaleout ({scaleout['machine']}, "
              f"{scaleout['clusters']} clusters, warm): "
              f"{scaleout['wall_seconds']:.2f} s, "
              f"{scaleout['cluster_cycles_per_second']:,.0f} "
              f"cluster-cycles/s")
    suite = report.get("suite")
    if suite:
        print(f"Reproduce suite ({suite['jobs']} jobs, "
              f"{suite['cpu_count']} CPU(s) available):")
        print(f"  serial:             {suite['serial_wall_seconds']:.2f} s")
        effective = "" if suite.get("parallel_effective", True) else \
            " [not effective: single CPU]"
        print(f"  parallel ({suite['parallel_workers']} workers): "
              f"{suite['parallel_wall_seconds']:.2f} s "
              f"({suite['parallel_speedup']:.2f}x){effective}")
        print(f"  warm cache:         {suite['warm_cache_wall_seconds']:.2f} s "
              f"({suite['warm_cache_speedup']:.2f}x, "
              f"{suite['warm_cache_hits']} hits)")
        print(f"  serial/parallel metrics bit-identical: "
              f"{suite['bit_identical']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_simspeed.json",
                        help="JSON report path (default: %(default)s)")
    parser.add_argument("-r", "--repetitions", type=int, default=2,
                        help="number of sweep repetitions (default: %(default)s)")
    parser.add_argument("--suite-workers", type=int,
                        default=DEFAULT_SUITE_WORKERS,
                        help="workers for the parallel suite leg "
                             "(default: CPU count)")
    parser.add_argument("--no-suite", action="store_true",
                        help="skip the sweep-engine suite benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="Table-1 sweep repetitions only (CI perf smoke)")
    args = parser.parse_args(argv)
    report = run_benchmark(repetitions=args.repetitions, output=args.output,
                           suite_workers=args.suite_workers,
                           include_suite=not args.no_suite,
                           quick=args.quick)
    print_report(report)
    print(f"report written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
