"""Direct multi-cluster (Manticore) simulation of the scaleout workload.

``repro.scaleout.manticore`` *projects* Section 3.3's Manticore numbers
analytically from one cluster's measurements.  This module instead
**simulates** a multi-cluster topology directly:

1. **Per-cluster compute** — every cluster of the topology runs its tiles on
   the existing single-cluster engine (native symmetry fold included), as
   ordinary :class:`~repro.sweep.job.SweepJob`\\ s fanned across worker
   processes by the sweep engine.  Each cluster gets its own input seed;
   results merge deterministically (the sweep engine returns results in job
   order regardless of worker count), so the assembled timeline is bit-stable
   for any ``workers`` setting.
2. **Shared memory system** — the clusters' double-buffered DMA traffic
   (tile in / interior write-back, with the per-transfer efficiencies of the
   cluster DMA timing model) flows through the
   :class:`~repro.snitch.hbm.SharedHbm` contention model: per-group device
   bandwidth, fair sharing among the group's active transfers,
   **epoch-granular** arbitration (event-driven processor sharing — see the
   module docstring of :mod:`repro.snitch.hbm` for why nothing finer is
   observable).
3. **Cluster timeline** — per cluster, a double-buffered pipeline: DMA-in of
   tile *i+1* overlaps compute of tile *i*; the write-back of tile *i* and
   the prefetch of tile *i+2* enter the cluster's (serial) DMA queue when
   compute *i* finishes.  The makespan over all clusters is the direct
   analogue of the analytical model's effective time.

With a **one-cluster topology and an unconstrained HBM device** the whole
construction collapses onto the single-cluster model: the tile simulations
are byte-for-byte the ordinary ``run_kernel`` results (golden-backed), and
every DMA transfer runs at exactly the cluster DMA engine's isolated speed.
The tests pin both properties.

The analytical estimate remains available as a *cross-check*:
:func:`direct_scaleout_pair` reports both sides plus their per-kernel
deltas, and :data:`ANALYTICAL_TOLERANCE` documents how far apart the two
models are allowed to drift (the direct model overlaps transfers with
compute and resolves contention exactly, so it is systematically — and
boundedly — more optimistic than the max(compute, memory) projection).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.kernels import get_kernel
from repro.core.stencil import StencilKernel
from repro.core.variants import paper_variants
from repro.machine import MachineSpec, resolve_machine
from repro.runner import KernelRunResult, tile_transfer_model
from repro.scaleout.manticore import (
    ManticoreConfig,
    _tiles_in_grid,
    estimate_scaleout_pair,
    scaleout_grid_shape,
)
from repro.snitch.hbm import HbmRequest, SharedHbm
from repro.sweep.engine import ProgressFn, run_sweep
from repro.sweep.job import SweepJob
from repro.sweep.store import ResultStore

#: Documented agreement bounds between the direct simulation and the
#: analytical projection on the paper kernels (relative for speedup/CMTR,
#: absolute for FPU utilization).  The two models answer the same question
#: with different simplifications — the analytical side serializes compute
#: and memory into max(compute, memory) and inflates compute by the per-core
#: imbalance, the direct side overlaps transfers with compute and resolves
#: HBM contention exactly — so deltas of this order are expected, not a bug;
#: tests/test_scaleout_sim.py enforces the bound on ``manticore-2``.
ANALYTICAL_TOLERANCE = {
    "speedup_rel": 0.20,   # measured |delta| <= 0.12 on manticore-2
    "fpu_util_abs": 0.20,  # measured |delta| <= 0.15 on manticore-2
}

#: Default number of tiles each cluster runs: enough for the double-buffered
#: steady state to dominate the prologue (first tile-in) and epilogue (last
#: write-back) without inflating CI time.
DEFAULT_TILES_PER_CLUSTER = 4

#: The documented arbitration granularity of the shared-HBM model.
HBM_GRANULARITY = "epoch"

MachineLike = Union[str, MachineSpec, None]


class ScaleoutSimError(RuntimeError):
    """Raised for inconsistent direct-simulation requests."""


# ---------------------------------------------------------------------------
# Per-tile workload description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TileWorkload:
    """One tile's compute and memory demand as seen by the timeline."""

    compute_cycles: int
    flops: int
    fpu_util: float
    in_bytes: int
    in_efficiency: float
    out_bytes: int
    out_efficiency: float


# ---------------------------------------------------------------------------
# Cluster timeline + shared-HBM event loop
# ---------------------------------------------------------------------------

@dataclass
class ClusterTimeline:
    """Double-buffered pipeline state of one cluster in the event loop."""

    index: int
    group: int
    seed: int
    tiles: List[TileWorkload]
    # resolved times (cycles, float)
    in_done: List[Optional[float]] = field(default_factory=list)
    out_done: List[Optional[float]] = field(default_factory=list)
    compute_end: List[Optional[float]] = field(default_factory=list)
    queue: "deque[Tuple[str, int]]" = field(default_factory=deque)
    in_flight: Optional[HbmRequest] = None
    in_flight_op: Optional[Tuple[str, int]] = None
    next_compute: int = 0
    dma_service_cycles: float = 0.0

    def __post_init__(self) -> None:
        n = len(self.tiles)
        self.in_done = [None] * n
        self.out_done = [None] * n
        self.compute_end = [None] * n
        # Double-buffer prologue: prefetch the first two input tiles.
        for tile in range(min(2, n)):
            self.queue.append(("in", tile))

    @property
    def compute_busy_cycles(self) -> float:
        return float(sum(t.compute_cycles for t in self.tiles))

    @property
    def done(self) -> bool:
        return (self.next_compute >= len(self.tiles) and not self.queue
                and self.in_flight is None)

    @property
    def makespan(self) -> float:
        times = [t for t in (self.compute_end[-1], self.out_done[-1])
                 if t is not None]
        return max(times) if times else 0.0

    def request_for(self, kind: str, tile: int) -> HbmRequest:
        work = self.tiles[tile]
        if kind == "in":
            payload, eff = work.in_bytes, work.in_efficiency
        else:
            payload, eff = work.out_bytes, work.out_efficiency
        return HbmRequest(cluster=self.index, group=self.group,
                          payload_bytes=payload, efficiency=eff,
                          label=f"c{self.index}/{kind}[{tile}]")


def run_timeline(clusters: Sequence[ClusterTimeline], hbm: SharedHbm) -> float:
    """Drive the cluster pipelines through the shared HBM; returns makespan.

    Deterministic: clusters issue in index order, completions resolve in the
    shared model's (finish, group, submission) order, and simultaneous
    events break ties on a monotonic sequence number.
    """
    # (time, seq, cluster index, ops-to-enqueue) — compute-completion events.
    events: List[Tuple[float, int, int, List[Tuple[str, int]]]] = []
    seq = 0

    def schedule_compute(cl: ClusterTimeline) -> None:
        """Resolve every compute whose dependencies are now known."""
        nonlocal seq
        while cl.next_compute < len(cl.tiles):
            tile = cl.next_compute
            if cl.in_done[tile] is None:
                return
            prev_end = cl.compute_end[tile - 1] if tile else 0.0
            if tile and prev_end is None:
                return
            start = max(cl.in_done[tile], prev_end)
            end = start + cl.tiles[tile].compute_cycles
            cl.compute_end[tile] = end
            ops: List[Tuple[str, int]] = [("out", tile)]
            if tile + 2 < len(cl.tiles):
                ops.append(("in", tile + 2))
            heapq.heappush(events, (end, seq, cl.index, ops))
            seq += 1
            cl.next_compute += 1

    def issue_ready(time: float) -> None:
        for cl in clusters:
            if cl.in_flight is None and cl.queue:
                kind, tile = cl.queue.popleft()
                request = cl.request_for(kind, tile)
                hbm.submit(request, time)
                cl.in_flight = request
                cl.in_flight_op = (kind, tile)

    issue_ready(0.0)
    while True:
        completion = hbm.next_completion()
        event_time = events[0][0] if events else None
        if completion is None and event_time is None:
            break
        if event_time is None or (completion is not None
                                  and completion <= event_time):
            step_to = completion
        else:
            step_to = event_time
        for request in hbm.advance(step_to):
            cl = clusters[request.cluster]
            kind, tile = cl.in_flight_op
            cl.in_flight = None
            cl.in_flight_op = None
            cl.dma_service_cycles += request.service_cycles
            if kind == "in":
                cl.in_done[tile] = request.finish_cycle
                schedule_compute(cl)
            else:
                cl.out_done[tile] = request.finish_cycle
        while events and events[0][0] <= step_to + 1e-12:
            _, _, index, ops = heapq.heappop(events)
            clusters[index].queue.extend(ops)
        issue_ready(step_to)
    if any(not cl.done for cl in clusters):
        raise ScaleoutSimError("timeline ended with unfinished clusters "
                               "(internal scheduling bug)")
    return max(cl.makespan for cl in clusters)


# ---------------------------------------------------------------------------
# Direct simulation results
# ---------------------------------------------------------------------------

@dataclass
class DirectScaleoutResult:
    """Direct-simulation outcome for one (kernel, variant) on one topology."""

    kernel: str
    variant: str
    machine: str
    groups: int
    clusters_per_group: int
    tiles_per_cluster: int
    #: Makespan of the simulated steady-state window, in cycles.
    cycles: float
    effective_cycles_per_tile: float
    compute_cycles_per_tile: float
    dma_service_cycles_per_tile: float
    fpu_util: float
    gflops: float
    fraction_of_peak: float
    cmtr: float
    memory_bound: bool
    total_flops: int
    #: Tiles the full paper grid decomposes into, per cluster (for scaling
    #: the window makespan up to a whole-grid estimate).
    grid_tiles_per_cluster: int
    hbm: Dict[str, object]
    granularity: str = HBM_GRANULARITY
    per_cluster: List[Dict[str, object]] = field(default_factory=list)
    #: The single-cluster engine results the timeline was assembled from
    #: (one per cluster, in cluster order) — full-fidelity, golden-backed.
    tile_results: List[KernelRunResult] = field(default_factory=list,
                                                repr=False)

    @property
    def projected_grid_cycles(self) -> float:
        """Whole-grid runtime estimate: per-tile effective time x tiles."""
        return self.effective_cycles_per_tile * self.grid_tiles_per_cluster

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "machine": self.machine,
            "groups": self.groups,
            "clusters_per_group": self.clusters_per_group,
            "tiles_per_cluster": self.tiles_per_cluster,
            "granularity": self.granularity,
            "cycles": self.cycles,
            "effective_cycles_per_tile": self.effective_cycles_per_tile,
            "compute_cycles_per_tile": self.compute_cycles_per_tile,
            "dma_service_cycles_per_tile": self.dma_service_cycles_per_tile,
            "fpu_util": self.fpu_util,
            "gflops": self.gflops,
            "fraction_of_peak": self.fraction_of_peak,
            "cmtr": self.cmtr,
            "memory_bound": self.memory_bound,
            "total_flops": self.total_flops,
            "grid_tiles_per_cluster": self.grid_tiles_per_cluster,
            "hbm": dict(self.hbm),
            "per_cluster": [dict(entry) for entry in self.per_cluster],
        }


def scaleout_jobs(kernel: Union[str, StencilKernel], variant: str,
                  machine: MachineSpec, seed: int = 0,
                  tile_shape: Optional[Tuple[int, ...]] = None
                  ) -> List[SweepJob]:
    """One single-cluster job per cluster of the topology.

    Cluster *c* simulates with seed ``seed + c`` on the topology's
    :meth:`~repro.machine.MachineSpec.cluster_spec`, so for the stock
    cluster shape the jobs share result-store entries with ordinary
    single-cluster sweeps (and cluster 0 with the paper sweep itself).
    """
    cluster_machine = machine.cluster_spec()
    return [SweepJob.make(kernel, variant, seed=seed + index,
                          tile_shape=tile_shape, machine=cluster_machine)
            for index in range(machine.num_clusters)]


def _assemble(kernel: StencilKernel, variant: str, machine: MachineSpec,
              results: Sequence[KernelRunResult], tiles_per_cluster: int,
              seed: int,
              grid_shape: Optional[Tuple[int, ...]] = None
              ) -> DirectScaleoutResult:
    """Build the timeline from per-cluster engine results and run it."""
    if len(results) != machine.num_clusters:
        raise ScaleoutSimError(
            f"{machine.name}: expected {machine.num_clusters} cluster "
            f"results, got {len(results)}")
    if tiles_per_cluster < 1:
        raise ScaleoutSimError("tiles_per_cluster must be >= 1")
    params = machine.cluster_spec().timing_params()
    clusters: List[ClusterTimeline] = []
    for index, result in enumerate(results):
        in_bytes, in_eff, out_bytes, out_eff = tile_transfer_model(
            kernel, result.tile_shape, params)
        work = TileWorkload(compute_cycles=result.cycles,
                            flops=result.total_flops,
                            fpu_util=result.fpu_util,
                            in_bytes=in_bytes, in_efficiency=in_eff,
                            out_bytes=out_bytes, out_efficiency=out_eff)
        clusters.append(ClusterTimeline(
            index=index, group=index // machine.clusters_per_group,
            seed=seed + index, tiles=[work] * tiles_per_cluster))

    device_bytes_per_cycle = (math.inf if math.isinf(machine.hbm_device_gbs)
                              else machine.hbm_device_gbs / machine.clock_ghz)
    hbm = SharedHbm(num_groups=machine.groups,
                    device_bytes_per_cycle=device_bytes_per_cycle,
                    port_bytes_per_cycle=params.dma_bus_bytes)
    makespan = run_timeline(clusters, hbm)

    tiles_total = machine.num_clusters * tiles_per_cluster
    total_flops = sum(t.flops for cl in clusters for t in cl.tiles)
    total_compute = sum(cl.compute_busy_cycles for cl in clusters)
    total_service = sum(cl.dma_service_cycles for cl in clusters)
    fpu_util = float(np.mean([
        np.mean([t.fpu_util for t in cl.tiles])
        * (cl.compute_busy_cycles / makespan if makespan else 0.0)
        for cl in clusters]))
    gflops = (total_flops / makespan * machine.clock_ghz) if makespan else 0.0
    peak = machine.peak_system_gflops
    cmtr = total_compute / total_service if total_service else math.inf
    grid = tuple(grid_shape or scaleout_grid_shape(kernel))
    tile_shape = tuple(results[0].tile_shape)
    grid_tiles = int(np.ceil(_tiles_in_grid(kernel, grid, tile_shape)
                             / machine.num_clusters))
    per_cluster = [{
        "cluster": cl.index,
        "group": cl.group,
        "seed": cl.seed,
        "compute_cycles": cl.compute_busy_cycles,
        "dma_service_cycles": round(cl.dma_service_cycles, 3),
        "makespan_cycles": round(cl.makespan, 3),
        "stall_cycles": round(cl.makespan - cl.compute_busy_cycles, 3),
    } for cl in clusters]
    return DirectScaleoutResult(
        kernel=kernel.name,
        variant=variant,
        machine=machine.name,
        groups=machine.groups,
        clusters_per_group=machine.clusters_per_group,
        tiles_per_cluster=tiles_per_cluster,
        cycles=makespan,
        effective_cycles_per_tile=makespan / tiles_per_cluster,
        compute_cycles_per_tile=total_compute / tiles_total,
        dma_service_cycles_per_tile=total_service / tiles_total,
        fpu_util=fpu_util,
        gflops=gflops,
        fraction_of_peak=gflops / peak if peak else 0.0,
        cmtr=cmtr,
        memory_bound=total_service > total_compute,
        total_flops=total_flops,
        grid_tiles_per_cluster=grid_tiles,
        hbm=hbm.stats(),
        per_cluster=per_cluster,
        # ``phase_seconds`` is wall-clock diagnostics; the merged artifact
        # promises bit-stability for any worker count, so it is dropped
        # here exactly as ``metrics_hash`` excludes it.
        tile_results=[replace(r, phase_seconds={}) for r in results],
    )


def simulate_scaleout(kernel: Union[str, StencilKernel],
                      variant: str = "saris",
                      machine: MachineLike = "manticore-2",
                      tiles_per_cluster: int = DEFAULT_TILES_PER_CLUSTER,
                      seed: int = 0,
                      tile_shape: Optional[Tuple[int, ...]] = None,
                      grid_shape: Optional[Tuple[int, ...]] = None,
                      workers: Optional[int] = None,
                      store: Optional[ResultStore] = None,
                      progress: Optional[ProgressFn] = None
                      ) -> DirectScaleoutResult:
    """Directly simulate one kernel variant on a multi-cluster topology.

    Phase 1 fans the per-cluster tile simulations across worker processes
    through the sweep engine (``workers`` / ``store`` behave exactly as in
    :func:`repro.sweep.engine.run_sweep`); phase 2 assembles the
    deterministic double-buffered timeline through the shared-HBM model.
    The result is bit-stable for any worker count.
    """
    kernel = kernel if isinstance(kernel, StencilKernel) else get_kernel(kernel)
    machine_spec = resolve_machine(machine)
    jobs = scaleout_jobs(kernel, variant, machine_spec, seed=seed,
                         tile_shape=tile_shape)
    report = run_sweep(jobs, workers=workers, store=store, progress=progress)
    return _assemble(kernel, variant, machine_spec, report.results,
                     tiles_per_cluster, seed, grid_shape=grid_shape)


# ---------------------------------------------------------------------------
# Direct vs analytical cross-check
# ---------------------------------------------------------------------------

def _pair_entry(kernel: StencilKernel, machine: MachineSpec,
                base_results: Sequence[KernelRunResult],
                saris_results: Sequence[KernelRunResult],
                tiles_per_cluster: int, seed: int,
                grid_shape: Optional[Tuple[int, ...]]) -> Dict[str, object]:
    """Assemble one Figure-5-style row: direct sim + analytical cross-check."""
    base_variant, saris_variant = paper_variants()
    base = _assemble(kernel, base_variant, machine, base_results,
                     tiles_per_cluster, seed, grid_shape=grid_shape)
    saris = _assemble(kernel, saris_variant, machine, saris_results,
                      tiles_per_cluster, seed, grid_shape=grid_shape)
    speedup = base.cycles / saris.cycles if saris.cycles else 0.0

    config = ManticoreConfig.from_machine(machine)
    analytical = estimate_scaleout_pair(kernel, base_results[0],
                                        saris_results[0], config=config,
                                        grid_shape=grid_shape)
    ana_speedup = analytical["speedup"]
    return {
        "kernel": kernel.name,
        "base": base,
        "saris": saris,
        "speedup": speedup,
        "cmtr": saris.cmtr,
        "memory_bound": saris.memory_bound,
        "analytical": analytical,
        "speedup_delta": ((speedup - ana_speedup) / ana_speedup
                          if ana_speedup else 0.0),
        "fpu_util_delta": saris.fpu_util - analytical["saris"].fpu_util,
    }


def direct_scaleout_pair(kernel: Union[str, StencilKernel],
                         machine: MachineLike = "manticore-2",
                         tiles_per_cluster: int = DEFAULT_TILES_PER_CLUSTER,
                         seed: int = 0,
                         grid_shape: Optional[Tuple[int, ...]] = None,
                         workers: Optional[int] = None,
                         store: Optional[ResultStore] = None,
                         progress: Optional[ProgressFn] = None
                         ) -> Dict[str, object]:
    """Direct base-vs-SARIS scaleout of one kernel plus the analytical
    cross-check (per-kernel deltas included)."""
    table = direct_scaleout_table([kernel], machine=machine,
                                  tiles_per_cluster=tiles_per_cluster,
                                  seed=seed, grid_shape=grid_shape,
                                  workers=workers, store=store,
                                  progress=progress)
    return next(iter(table.values()))


def direct_scaleout_jobs(kernels: Sequence[Union[str, StencilKernel]],
                         machine: MachineLike = "manticore-2",
                         seed: int = 0) -> List[SweepJob]:
    """Every per-cluster tile job behind :func:`direct_scaleout_table`.

    Per kernel, the base clusters then the SARIS clusters — the order
    :func:`assemble_direct_scaleout_table` reads the results back in.
    """
    machine_spec = resolve_machine(machine)
    return [job for kernel in kernels for variant in paper_variants()
            for job in scaleout_jobs(kernel, variant, machine_spec,
                                     seed=seed)]


def assemble_direct_scaleout_table(
        kernels: Sequence[Union[str, StencilKernel]],
        machine: MachineLike, results: Sequence[KernelRunResult],
        tiles_per_cluster: int = DEFAULT_TILES_PER_CLUSTER, seed: int = 0,
        grid_shape: Optional[Tuple[int, ...]] = None
        ) -> Dict[str, Dict[str, object]]:
    """Direct-vs-analytical rows from the results of
    :func:`direct_scaleout_jobs` (same kernels, machine and seed)."""
    machine_spec = resolve_machine(machine)
    per_cluster = machine_spec.num_clusters
    table: Dict[str, Dict[str, object]] = {}
    for position, kernel in enumerate(kernels):
        kernel = (kernel if isinstance(kernel, StencilKernel)
                  else get_kernel(kernel))
        cursor = 2 * per_cluster * position
        table[kernel.name] = _pair_entry(
            kernel, machine_spec, results[cursor:cursor + per_cluster],
            results[cursor + per_cluster:cursor + 2 * per_cluster],
            tiles_per_cluster, seed, grid_shape)
    return table


def direct_scaleout_table(kernels: Sequence[Union[str, StencilKernel]],
                          machine: MachineLike = "manticore-2",
                          tiles_per_cluster: int = DEFAULT_TILES_PER_CLUSTER,
                          seed: int = 0,
                          grid_shape: Optional[Tuple[int, ...]] = None,
                          workers: Optional[int] = None,
                          store: Optional[ResultStore] = None,
                          progress: Optional[ProgressFn] = None
                          ) -> Dict[str, Dict[str, object]]:
    """Direct-vs-analytical rows for several kernels in **one** sweep pass.

    All per-cluster tile simulations of every kernel and both paper variants
    are collected into a single deduplicated job list and fanned out
    together, exactly like the artifact pipeline does for the single-cluster
    tables.
    """
    jobs = direct_scaleout_jobs(kernels, machine, seed=seed)
    report = run_sweep(jobs, workers=workers, store=store, progress=progress)
    return assemble_direct_scaleout_table(kernels, machine, report.results,
                                          tiles_per_cluster, seed, grid_shape)
