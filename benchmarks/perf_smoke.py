"""CI perf smoke: time the simulator in this process and gate the result.

:func:`measure` runs four legs:

* **Table-1:** three serial base+SARIS sweeps over the ten Table-1 kernels
  at paper tile sizes.  The first is cold for this process (the persistent
  compile cache may still serve codegen); the best one is compared.
* **Fold speedup:** one more sweep on the forced Python reference engine,
  against the best native sweep.
* **Scaleout:** one untimed warm-up and one timed pass of the direct
  2-cluster simulation (``manticore-2``) of ``jacobi_2d`` and ``j3d27pt``.
  Both run in this process (``workers=1``): a pool would fork fresh workers
  for the timed pass that the warm-up never reached.
* **Telemetry:** warm ``run_kernel`` with telemetry on against off.

:func:`check` holds them to five gates:

1. the native engine carried every Table-1 and scaleout run.  The realistic
   catastrophic regression is the C engine silently failing to build and
   every job falling back to the Python engine;
2. the best native sweep beats the Python engine at least
   ``FOLD_SPEEDUP_FLOOR`` times, which needs no cross-machine baseline;
3. Table-1 simulated cycles/s, and
4. scaleout simulated cluster-cycles/s, each at least ``THROUGHPUT_FLOOR``
   of the committed ``BENCH_simspeed.json``.  This is deliberately
   generous: hosted runners and the container that recorded the baseline
   are different hardware, so it catches order-of-magnitude rot, and gates
   1 and 2 are the host-independent guard;
5. telemetry slows warm runs by at most ``OBS_OVERHEAD_CEILING``.

A gated key missing from either report fails its gate.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

#: The committed baseline, found from this file rather than the current
#: directory, so the script runs from anywhere.
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"

#: Table-1 sweeps per run; the first is process-cold.
TABLE1_SWEEPS = 3

#: Kernel pair and topology of the direct-scaleout leg.
SCALEOUT_KERNELS = ("jacobi_2d", "j3d27pt")
SCALEOUT_MACHINE = "manticore-2"

FOLD_SPEEDUP_FLOOR = 3.0
THROUGHPUT_FLOOR = 0.75
OBS_OVERHEAD_CEILING = 0.03

#: Dotted keys read from both the committed baseline and the fresh report.
THROUGHPUT_KEYS = ("best_cycles_per_second",
                   "scaleout.cluster_cycles_per_second")


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


def measure() -> dict:
    """Run every leg once in this process and return the fresh report."""
    from repro import compare_variants
    from repro.core.kernels import TABLE1_KERNELS
    from repro.scaleout.sim import direct_scaleout_table
    from repro.snitch import native

    def table1_sweep():
        start = time.perf_counter()
        pairs = [compare_variants(name) for name in TABLE1_KERNELS]
        wall = time.perf_counter() - start
        return wall, [run for pair in pairs for run in (pair.base, pair.saris)]

    def scaleout_pass():
        return direct_scaleout_table(SCALEOUT_KERNELS,
                                     machine=SCALEOUT_MACHINE, workers=1)

    sweeps = [table1_sweep() for _ in range(TABLE1_SWEEPS)]
    best_wall, best_runs = min(sweeps, key=lambda sweep: sweep[0])

    scaleout_pass()  # warm-up, untimed
    start = time.perf_counter()
    table = scaleout_pass()
    scaleout_wall = time.perf_counter() - start
    tiles = [tile for entry in table.values() for side in ("base", "saris")
             for tile in entry[side].tile_results]

    with native.forced_python():
        python_wall, _ = table1_sweep()

    engines = Counter(run.engine for _, runs in sweeps for run in runs)
    engines.update(tile.engine for tile in tiles)
    return {
        "engines": dict(engines),
        "best_cycles_per_second":
            sum(run.cycles for run in best_runs) / best_wall,
        "fold_speedup": python_wall / best_wall,
        "scaleout": {"cluster_cycles_per_second":
                     sum(tile.cycles for tile in tiles) / scaleout_wall},
        "obs_overhead": measure_obs_overhead(),
    }


def _lookup(report: dict, key: str):
    """``report["a"]["b"]`` for ``key == "a.b"``; None if a part is missing."""
    value = report
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def check(baseline: dict, fresh: dict) -> list[str]:
    """The gate: one message per failed check, empty when all five pass."""
    failures = []

    def read(report: dict, name: str, key: str):
        value = _lookup(report, key)
        if value is None:
            failures.append(f"{name} report has no {key}")
        return value

    engines = read(fresh, "fresh", "engines")
    if engines is not None and set(engines) != {"native"}:
        failures.append(f"native engine did not carry every run: {engines}")
    fold = read(fresh, "fresh", "fold_speedup")
    if fold is not None and fold < FOLD_SPEEDUP_FLOOR:
        failures.append(f"fold speedup {fold:.2f}x below "
                        f"{FOLD_SPEEDUP_FLOOR:.1f}x")
    for key in THROUGHPUT_KEYS:
        committed = read(baseline, "baseline", key)
        value = read(fresh, "fresh", key)
        if committed is not None and value is not None:
            floor = committed * THROUGHPUT_FLOOR
            if value < floor:
                failures.append(
                    f"{key} {value:,.0f} below floor {floor:,.0f} "
                    f"({THROUGHPUT_FLOOR:.0%} of committed {committed:,.0f})")
    overhead = read(fresh, "fresh", "obs_overhead")
    if overhead is not None and overhead > OBS_OVERHEAD_CEILING:
        failures.append(f"telemetry overhead {overhead:+.2%} above "
                        f"{OBS_OVERHEAD_CEILING:.0%}")
    return failures


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    baseline = json.loads(BASELINE.read_text())
    fresh = measure()

    print(f"perf-smoke: engines {fresh['engines']}")
    print(f"perf-smoke: fold speedup {fresh['fold_speedup']:.1f}x "
          f"(floor {FOLD_SPEEDUP_FLOOR:.1f}x)")
    for key in THROUGHPUT_KEYS:
        committed = _lookup(baseline, key)
        committed = "missing" if committed is None else f"{committed:,.0f}"
        print(f"perf-smoke: {key} {_lookup(fresh, key):,.0f} vs committed "
              f"{committed} (floor {THROUGHPUT_FLOOR:.0%})")
    print(f"perf-smoke: telemetry overhead {fresh['obs_overhead']:+.1%} "
          f"(ceiling {OBS_OVERHEAD_CEILING:.0%})")

    failures = check(baseline, fresh)
    for failure in failures:
        print(f"perf-smoke: REGRESSION: {failure}")
    if failures:
        return 1
    print("perf-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
