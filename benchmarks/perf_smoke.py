"""CI perf smoke: run the quick simspeed benchmark and flag regressions.

Two checks, from robust to advisory:

1. **Engine check (hardware-independent).** The native symmetry-folded
   engine must be active (``engine == "folded-native"``) — the realistic
   catastrophic regression is the C engine silently failing to build and
   every job falling back to the Python reference engine.  Additionally the
   folded engine must beat the in-process Python engine by at least
   ``--min-fold-speedup`` (default 3x; the recorded figure is >20x), which
   needs no cross-machine baseline at all.
2. **Throughput floor vs the committed baseline.** The fresh best
   simulated-cycles-per-second figure must not regress more than
   ``--tolerance`` (default 25%, the value documented in
   ``.github/workflows/ci.yml``) below the committed
   ``BENCH_simspeed.json``.  This is deliberately generous because hosted
   runners and the container class that recorded the baseline are different
   hardware; check 1 is the authoritative guard, this one catches
   order-of-magnitude rot on comparable machines.

The same floor is applied to the ``scaleout`` leg's simulated
cluster-cycles-per-second (the direct 2-cluster simulation of
``repro.scaleout.sim``), so multi-cluster throughput is guarded alongside
the single-cluster sweep.

A third **telemetry-overhead** leg times warm ``run_kernel`` batches with
telemetry enabled vs ``REPRO_OBS``-disabled (min-of-batches on both sides,
interleaved, so scheduler noise largely cancels) and fails when the
instrumented path is more than ``--obs-overhead-tolerance`` (default 3%)
slower — the observability layer must stay effectively free.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [--baseline BENCH_simspeed.json]

The default baseline is the repository's ``BENCH_simspeed.json``, wherever
the script is run from; an explicit ``--baseline`` path is taken as given.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

#: The committed baseline, found from this file rather than the current
#: directory, so the script runs from anywhere.
DEFAULT_BASELINE = (Path(__file__).resolve().parent.parent
                    / "BENCH_simspeed.json")


def measure_obs_overhead(rounds: int = 40) -> float:
    """Fractional slowdown of telemetry-on vs telemetry-off run_kernel.

    Warm paper-size runs, modes alternated within each round so every
    pair shares the same scheduler/frequency conditions; the estimate is
    the **median of the paired per-round deltas** over the median off
    time.  Pairing cancels slow drift and the median kills the heavy
    jitter tail of shared CI containers — min-vs-min comparisons swing
    by ±10% on such machines, paired medians stay within ~1%.  The
    kernel is the longest-running warm paper-tile workload so the
    constant per-run instrumentation cost (a handful of spans and
    counters, tens of microseconds) is measured against a realistic
    denominator.  Restores the process-wide toggle before returning.
    """
    from repro import obs, run_kernel

    kernel = "j3d27pt"  # ~15-20ms warm: the longest quick-bench workload
    before = obs.enabled()

    def one_run() -> float:
        start = time.perf_counter()
        run_kernel(kernel, variant="base")
        return time.perf_counter() - start

    try:
        for value in (False, True):  # warm caches in both modes
            obs.set_enabled(value)
            run_kernel(kernel, variant="base")
        deltas, offs = [], []
        for i in range(rounds):
            # Alternate which mode goes first so drift within a pair
            # biases neither side.
            order = (False, True) if i % 2 == 0 else (True, False)
            seconds = {}
            for value in order:
                obs.set_enabled(value)
                seconds[value] = one_run()
            deltas.append(seconds[True] - seconds[False])
            offs.append(seconds[False])
    finally:
        obs.set_enabled(before)
    deltas.sort()
    offs.sort()
    median_delta = deltas[len(deltas) // 2]
    median_off = offs[len(offs) // 2]
    return median_delta / median_off


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed benchmark report to compare against "
                             "(default: BENCH_simspeed.json at the "
                             "repository root)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional regression (default: 0.25)")
    parser.add_argument("--min-fold-speedup", type=float, default=3.0,
                        help="minimum folded-vs-Python in-run speedup "
                             "(default: 3.0; 0 disables)")
    parser.add_argument("--allow-python-engine", action="store_true",
                        help="do not fail when the native engine is "
                             "unavailable (environments without a C "
                             "compiler)")
    parser.add_argument("--obs-overhead-tolerance", type=float,
                        default=0.03,
                        help="maximum fractional telemetry overhead "
                             "(default: 0.03; 0 disables the check)")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    committed = float(baseline["best_cycles_per_second"])

    from repro.bench import run_benchmark, run_sweep_timing
    from repro.snitch import native

    failures = []

    # Three repetitions (one process-cold, two warm): the comparison uses the
    # best, which tames the run-to-run noise of a shared/1-CPU container.
    with tempfile.TemporaryDirectory(prefix="perf-smoke-") as scratch_dir:
        report = run_benchmark(repetitions=3, quick=True,
                               output=str(Path(scratch_dir) / "quick.json"))
    fresh = float(report["best_cycles_per_second"])

    skip_floor = False
    if report.get("engine") != "folded-native":
        message = (f"native engine inactive "
                   f"({native.disabled_reason() or 'fell back'})")
        if args.allow_python_engine:
            # The committed baseline was recorded with the folded engine; a
            # Python-engine run cannot meaningfully meet its floor.
            print(f"perf-smoke: WARNING: {message}; skipping baseline floor")
            skip_floor = True
        else:
            failures.append(message)
    elif args.min_fold_speedup > 0:
        with native.forced_python():
            unfolded = run_sweep_timing()
        fold_speedup = (unfolded["wall_seconds"]
                        / report["best_wall_seconds"])
        print(f"perf-smoke: fold speedup {fold_speedup:.1f}x "
              f"(floor {args.min_fold_speedup:.1f}x)")
        if fold_speedup < args.min_fold_speedup:
            failures.append(
                f"fold speedup {fold_speedup:.1f}x below "
                f"{args.min_fold_speedup:.1f}x")

    floor = committed * (1.0 - args.tolerance)
    if fresh < floor and not skip_floor:
        failures.append(
            f"fresh {fresh:,.0f} cycles/s below floor {floor:,.0f}")
    print(f"perf-smoke: fresh {fresh:,.0f} cycles/s vs committed "
          f"{committed:,.0f} cycles/s (floor {floor:,.0f}, "
          f"tolerance {args.tolerance:.0%})")

    # Multi-cluster throughput: the quick report carries a warm direct
    # 2-cluster scaleout leg; hold it to the same relative floor.
    committed_scaleout = baseline.get("scaleout", {}).get(
        "cluster_cycles_per_second")
    fresh_scaleout = report.get("scaleout", {}).get(
        "cluster_cycles_per_second")
    if committed_scaleout and fresh_scaleout:
        scaleout_floor = float(committed_scaleout) * (1.0 - args.tolerance)
        if fresh_scaleout < scaleout_floor and not skip_floor:
            failures.append(
                f"scaleout {fresh_scaleout:,.0f} cluster-cycles/s below "
                f"floor {scaleout_floor:,.0f}")
        print(f"perf-smoke: scaleout {fresh_scaleout:,.0f} cluster-cycles/s "
              f"vs committed {committed_scaleout:,.0f} "
              f"(floor {scaleout_floor:,.0f})")
    print(f"  engine: {report.get('engine')}  cold "
          f"{report['cold_wall_seconds']:.2f} s, best "
          f"{report['best_wall_seconds']:.2f} s")

    if args.obs_overhead_tolerance > 0:
        overhead = measure_obs_overhead()
        print(f"perf-smoke: telemetry overhead {overhead:+.1%} "
              f"(ceiling {args.obs_overhead_tolerance:.0%})")
        if overhead > args.obs_overhead_tolerance:
            failures.append(
                f"telemetry overhead {overhead:+.1%} above "
                f"{args.obs_overhead_tolerance:.0%}")

    if failures:
        for failure in failures:
            print(f"perf-smoke: REGRESSION: {failure}")
        return 1
    print("perf-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
