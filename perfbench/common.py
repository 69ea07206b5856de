"""Helpers shared by ``run.py`` and the processes it measures.

Nothing here imports ``repro`` at module level: ``run.py`` has to be able to
start (and refuse to run) in a directory that holds no program at all, and
the measured processes import ``repro`` themselves, inside their timed
set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Job seeds are ``workload_seed * SEED_STRIDE + k`` with ``k`` unique within
#: a run, so two workload seeds never share a job seed (disjoint job hashes)
#: while the simulated cycles stay the same (cycles do not depend on data).
SEED_STRIDE = 1_000_000

#: Each set-up instance of a run draws its ``k`` from its own block.
INSTANCE_STRIDE = 100_000

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: Where a traced ``sut.py cli`` process writes its spans when it exits.
SPANS_ENV_VAR = "PERFBENCH_SPANS"


class SeedStream:
    """Deterministic, never-repeating job seeds for one set-up instance."""

    def __init__(self, workload_seed: int, instance: int) -> None:
        self.workload_seed = int(workload_seed)
        self.next_k = int(instance) * INSTANCE_STRIDE

    def take(self) -> int:
        seed = self.workload_seed * SEED_STRIDE + self.next_k
        self.next_k += 1
        return seed


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile that still has
    :data:`TAIL_BEYOND` samples beyond it (the value with exactly that many
    samples above it).  When that value is not above the median, no tail
    percentile qualifies and the maximum is returned with percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    rank = n - TAIL_BEYOND - 1
    if rank < n // 2 + 1:
        return float(ordered[-1]), 100.0, n
    return float(ordered[rank]), 100.0 * (rank + 1) / n, n


# ---------------------------------------------------------------------------
# Process accounting (Linux /proc)
# ---------------------------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def count_programs(cache_root: Path) -> int:
    """Compiled programs persisted in a codegen cache root."""
    return sum(1 for _ in (Path(cache_root) / "codegen").glob("*/*.pkl"))


# ---------------------------------------------------------------------------
# Simulated-statistics digest and the paper-accuracy metrics
# ---------------------------------------------------------------------------

def digest(metrics_hashes: Iterable[str]) -> str:
    """Order-free digest of a set of result ``metrics_hash`` values."""
    joined = "\n".join(sorted(metrics_hashes))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def paper_errors(results: Dict[Tuple[str, str], object]) -> Dict[str, float]:
    """The four accuracy metrics, computed by the program's own
    ``build_fig3a``/``3b``/``4``/``5`` and ``PAPER_REFERENCE``.

    ``results`` maps ``(kernel, variant)`` to a ``KernelRunResult`` for every
    Table-1 kernel and paper variant.
    """
    from repro.core.kernels import TABLE1_KERNELS
    from repro.core.variants import paper_variants
    from repro.sweep.artifacts import (
        PAPER_REFERENCE,
        build_fig3a,
        build_fig3b,
        build_fig4,
        build_fig5,
        pair_up,
    )

    runs = pair_up([results[(kernel, variant)] for kernel in TABLE1_KERNELS
                    for variant in paper_variants()])
    speedups = build_fig3a(runs)["data"]["speedups"]
    util = build_fig3b(runs)["data"]["geomean"]
    gain = build_fig4(runs)["data"]["geomean"]["gain"]
    scaleout = build_fig5(runs)["data"]["aggregates"]["speedup"]
    ref = PAPER_REFERENCE
    return {
        "speedup_err": mean(abs(speedups[k] / ref["speedup"][k] - 1.0)
                            for k in TABLE1_KERNELS),
        "fpu_util_err": mean((
            abs(util["base_util"] - ref["base_fpu_util_geomean"]),
            abs(util["saris_util"] - ref["saris_fpu_util_geomean"]))),
        "energy_gain_err": abs(gain / ref["energy_gain_geomean"] - 1.0),
        "scaleout_speedup_err": abs(scaleout
                                    / ref["scaleout_speedup_geomean"] - 1.0),
    }


# ---------------------------------------------------------------------------
# Layer attribution
# ---------------------------------------------------------------------------

#: Span names whose layer is not their first dotted component
#: (``store.load`` -> ``store``, ``artifacts.fig3a`` -> ``artifacts``).
LAYER_OF = {
    "run_sweep": "sweep",
    "simulate": "engine",
    "job": "runner",
    "setup": "runner",
    "verify": "runner",
    "other": "runner",
}

#: ``phase_seconds`` keys that partition a ``run_kernel`` call.
TOP_PHASES = ("codegen", "setup", "simulate", "verify", "other")


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Seconds of self time per layer for spans of single-threaded trees.

    A span's self time is its duration minus its children's.  A parallel
    ``run_sweep`` (attrs ``parallel`` and ``workers``) waited for jobs that
    ran in pool processes, whose phases come back in ``attrs["phases"]``:
    each phase is charged ``seconds / workers`` of the wait (one wall second
    carries ``workers`` process seconds) and what is left stays with the
    sweep layer as pool overhead.
    """
    children: Dict[str, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent:
            children[parent] = children.get(parent, 0.0) + float(span["dur"])
    layers: Dict[str, float] = {}
    for span in spans:
        own = max(0.0, float(span["dur"]) - children.get(span["span"], 0.0))
        attrs = span.get("attrs") or {}
        if span["name"] == "run_sweep" and attrs.get("parallel"):
            workers = max(1, int(attrs.get("workers", 1)))
            phases = {k: float(v) / workers
                      for k, v in (attrs.get("phases") or {}).items()
                      if k in TOP_PHASES}
            charged = sum(phases.values())
            scale = min(1.0, own / charged) if charged > 0 else 0.0
            for phase, seconds in phases.items():
                layer = layer_of(phase)
                layers[layer] = layers.get(layer, 0.0) + seconds * scale
            own -= charged * scale
        layer = layer_of(span["name"])
        layers[layer] = layers.get(layer, 0.0) + own
    return layers


def interval_layers(window: Tuple[float, float],
                    intervals: Sequence[Tuple[float, float, int, str]]
                    ) -> Dict[str, float]:
    """Charge every instant of ``window`` to the highest-priority interval
    covering it; ``(start, end, priority, layer)``.  Uncovered time is
    returned under ``other``."""
    lo, hi = window
    cuts = sorted({lo, hi} | {min(max(t, lo), hi)
                              for start, end, _, _ in intervals
                              for t in (start, end)})
    layers: Dict[str, float] = {}
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        mid = (a + b) / 2.0
        best: Optional[Tuple[int, str]] = None
        for start, end, priority, layer in intervals:
            if start <= mid < end and (best is None or priority > best[0]):
                best = (priority, layer)
        name = best[1] if best is not None else "other"
        layers[name] = layers.get(name, 0.0) + (b - a)
    return layers


def add_layers(total: Dict[str, float], part: Dict[str, float]) -> None:
    for layer, seconds in part.items():
        total[layer] = total.get(layer, 0.0) + seconds


def layer_table(layers: Dict[str, float], wall: float) -> List[str]:
    """Printable self-time table; the unattributed rest of ``wall`` is
    reported as ``other``."""
    layers = dict(layers)
    attributed = sum(v for k, v in layers.items() if k != "other")
    layers["other"] = max(0.0, wall - attributed)
    lines = [f"{'layer':<12} {'self s':>10} {'share':>7}"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = seconds / wall if wall > 0 else 0.0
        lines.append(f"{layer:<12} {seconds:>10.3f} {share:>7.1%}")
    covered = attributed / wall if wall > 0 else 0.0
    lines.append(f"{'(layers)':<12} {attributed:>10.3f} {covered:>7.1%}")
    return lines


def write_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
