"""High-level API: compile, simulate and verify stencil kernels on the cluster.

This is the main entry point of the library::

    from repro import run_kernel, compare_variants

    result = run_kernel("jacobi_2d", variant="saris")
    print(result.cycles, result.fpu_util, result.correct)

    comparison = compare_variants("j3d27pt")
    print(comparison.speedup)

``run_kernel`` builds the TCDM layout, generates one program per cluster core
(baseline RV32G or SARIS), writes grids / coefficient tables / index arrays
into the simulated TCDM, runs the cycle-approximate cluster simulation and
checks the produced output grid against the NumPy reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core import progcache
from repro.core.codegen_common import GeneratedProgram, planning_scope
from repro.core.kernels import kernel_fingerprint, registered_kernel
from repro.fingerprint import callable_fingerprint
from repro.core.layout import TileLayout, build_layout
from repro.core.parallel import cluster_geometry, default_interleave
from repro.core.reference import reference_time_step
from repro.core.stencil import StencilKernel
from repro.core.variants import get_variant, variant_names
from repro.machine import MachineSpec, resolve_machine
from repro.registry import RegistryError
from repro.result import KernelRunResult, _json_safe  # noqa: F401 - re-exported
from repro.snitch.cluster import SnitchCluster
from repro.snitch.dma import DmaEngine, DmaTransfer
from repro.snitch.params import TimingParams

#: Accepted by ``machine=`` parameters: a preset name, a spec, or None
#: (the default ``snitch-8`` preset).
MachineLike = Union[str, MachineSpec, None]


def __getattr__(name: str):
    # The legacy ``runner.VARIANTS`` tuple tracks the live variant registry
    # (PEP 562) instead of freezing a copy; prefer
    # :func:`repro.core.variants.variant_names`.
    if name == "VARIANTS":
        return variant_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class RunnerError(RuntimeError):
    """Raised when a kernel run cannot be set up or produces invalid results."""


@dataclass
class VariantComparison:
    """Base vs SARIS comparison for one kernel (one tile, one cluster)."""

    kernel: str
    base: KernelRunResult
    saris: KernelRunResult

    @property
    def speedup(self) -> float:
        """Execution speedup of the SARIS variant over the baseline."""
        if self.saris.cycles == 0:
            return 0.0
        return self.base.cycles / self.saris.cycles


def _resolve_kernel(kernel: Union[str, StencilKernel]) -> StencilKernel:
    if isinstance(kernel, StencilKernel):
        return kernel
    return registered_kernel(kernel)


def _params_key(params: TimingParams) -> tuple:
    """Memo-key form of ``params``: its field values in declaration order.

    Equal to ``dataclasses.astuple(params)`` (every field is a scalar)
    without its recursive deep copy.
    """
    return tuple(getattr(params, f.name) for f in fields(params))


#: Memoized transfer model per (kernel fingerprint, tile shape, timing
#: params).  The model is pure — it only derives transfer efficiencies
#: from shapes and the timing model — but was recomputed on every
#: ``run_kernel`` call.
_TRANSFER_CACHE: Dict[tuple, Tuple[int, float, int, float]] = {}


def tile_transfer_model(kernel: StencilKernel, tile_shape: Tuple[int, ...],
                        params: Optional[TimingParams] = None
                        ) -> Tuple[int, float, int, float]:
    """Per-tile DMA demand: (in bytes, in efficiency, out bytes, out
    efficiency).

    The one model of a tile's main-memory traffic.  The tiles are moved
    with 2D/3D strided transfers whose contiguous rows are one tile row
    long; short rows (3D tiles) achieve lower utilization.  Input tiles
    move in full (halo included), one transfer per input array; the
    write-back moves only the interior rows, each one interior-row long.
    :func:`tile_traffic_bytes` and :func:`measure_dma_utilization` fold it
    for the analytical scale-out model; the direct one
    (:mod:`repro.scaleout.sim`) services each direction on its own.
    """
    params = params or TimingParams()
    tile_shape = tuple(tile_shape)
    key = (kernel_fingerprint(kernel), tile_shape, _params_key(params))
    cached = _TRANSFER_CACHE.get(key)
    if cached is not None:
        return cached
    engine = DmaEngine([], params)
    in_eff = engine.transfer_utilization(DmaTransfer(
        src=0, dst=0, inner_bytes=tile_shape[-1] * 8,
        outer_reps=int(np.prod(tile_shape[:-1]))))
    halo = 2 * kernel.radius
    interior_rows = 1
    for dim in tile_shape[:-1]:
        interior_rows *= max(dim - halo, 1)
    out_eff = engine.transfer_utilization(DmaTransfer(
        src=0, dst=0, inner_bytes=max(tile_shape[-1] - halo, 1) * 8,
        outer_reps=interior_rows))
    model = (len(kernel.inputs) * int(np.prod(tile_shape)) * 8, in_eff,
             kernel.interior_points(tile_shape) * 8, out_eff)
    if len(_TRANSFER_CACHE) >= _CODEGEN_CACHE_LIMIT:
        _TRANSFER_CACHE.pop(next(iter(_TRANSFER_CACHE)))
    _TRANSFER_CACHE[key] = model
    return model


def tile_traffic_bytes(kernel: StencilKernel, tile_shape: Tuple[int, ...]) -> int:
    """Main-memory traffic per tile: full input tiles in, interior points out."""
    in_bytes, _in_eff, out_bytes, _out_eff = tile_transfer_model(kernel,
                                                                 tile_shape)
    return in_bytes + out_bytes


def measure_dma_utilization(kernel: StencilKernel, tile_shape: Tuple[int, ...],
                            params: Optional[TimingParams] = None) -> float:
    """Mean DMA bandwidth utilization for this kernel's double-buffer
    transfers: one per input array plus the write-back, each at its
    efficiency in :func:`tile_transfer_model`.  It feeds the memory-time
    side of the scale-out model."""
    _in_bytes, in_eff, _out_bytes, out_eff = tile_transfer_model(
        kernel, tile_shape, params)
    return float(np.mean([in_eff] * len(kernel.inputs) + [out_eff]))


#: Memoized (layout, generated programs) per compilation request, so repeated
#: runs — `compare_variants` sweeps, benchmark sessions, parameter studies —
#: stop re-running codegen.  Keyed on kernel *content* (not object identity:
#: `get_kernel` builds a fresh instance per call), variant name *and backend
#: source*, tile shape, the full timing-parameter tuple and the codegen
#: kwargs.  Safe to share because a fresh cluster's allocator is
#: deterministic, and neither layouts, programs nor their static data are
#: mutated by simulation.  A second, persistent layer in
#: :mod:`repro.core.progcache` shares the same entries across processes and
#: interpreter restarts (the cross-job compile cache).
_CODEGEN_CACHE: Dict[tuple, Tuple[TileLayout, List[GeneratedProgram]]] = {}
_CODEGEN_CACHE_LIMIT = 256


def _interleave_for(cluster: SnitchCluster,
                    machine: Optional[MachineSpec]) -> Tuple[int, int]:
    """Lane arrangement for a run: the machine's, if it matches the cluster.

    When explicit ``params`` disagree with the machine's core count (legacy
    callers passing ``TimingParams(num_cores=...)`` directly), the lanes are
    derived from the actual core count instead.
    """
    if machine is not None and machine.num_cores == cluster.params.num_cores:
        return machine.x_interleave, machine.y_interleave
    return default_interleave(cluster.params.num_cores)


def _generate_programs_cached(kernel: StencilKernel, cluster: SnitchCluster,
                              variant: str, shape: Tuple[int, ...],
                              params: TimingParams,
                              machine: Optional[MachineSpec],
                              codegen_kwargs: Dict[str, object]):
    """Layout + codegen for one run, memoized across identical requests.

    On a cache hit the cluster's allocator is left untouched; the cached
    layout and index arrays refer to the same deterministic addresses a fresh
    compilation would have produced.  The machine only enters the key through
    its lane arrangement — all its other knobs are already in ``params`` —
    so e.g. the default preset and a bare ``run_kernel`` call share entries.

    Misses consult the persistent cross-job compile cache
    (:mod:`repro.core.progcache`) before re-running codegen, so the cost of
    layout + lowering + scheduling + register allocation + assembly is paid
    once per unique program content across jobs, worker processes and
    interpreter restarts.  The key includes the variant backend's *source*
    fingerprint, so replacing a registered variant (or editing a plug-in
    generator out of tree) can never be served stale programs.
    """
    try:
        backend_print = callable_fingerprint(get_variant(variant).generate)
    except RegistryError as exc:
        raise RunnerError(str(exc)) from None
    key = (kernel_fingerprint(kernel), variant, backend_print, shape,
           _params_key(params), _interleave_for(cluster, machine),
           tuple(sorted((name, repr(value))
                        for name, value in codegen_kwargs.items())))
    cached = _CODEGEN_CACHE.get(key)
    if cached is None:
        cached = progcache.load(f"{kernel.name}-{variant}", key)
        if cached is None:
            layout = build_layout(kernel, cluster.allocator, shape)
            generated = generate_programs(kernel, layout, cluster, variant,
                                          machine=machine, **codegen_kwargs)
            cached = (layout, generated)
            progcache.save(f"{kernel.name}-{variant}", key, cached)
        if len(_CODEGEN_CACHE) >= _CODEGEN_CACHE_LIMIT:
            _CODEGEN_CACHE.pop(next(iter(_CODEGEN_CACHE)))
        _CODEGEN_CACHE[key] = cached
    return cached


def generate_programs(kernel: StencilKernel, layout: TileLayout, cluster: SnitchCluster,
                      variant: str, machine: Optional[MachineSpec] = None,
                      **codegen_kwargs) -> List[GeneratedProgram]:
    """Generate one program per cluster core for the requested variant.

    Dispatches through the variant registry
    (:mod:`repro.core.variants`), so registered third-party backends work
    everywhere built-ins do.  The per-core calls share one
    :func:`~repro.core.codegen_common.planning_scope`: the cores run one
    SPMD program, so each distinct plan is computed once per call.
    """
    try:
        spec = get_variant(variant)
    except RegistryError as exc:
        raise RunnerError(str(exc)) from None
    x_interleave, y_interleave = _interleave_for(cluster, machine)
    geometries = cluster_geometry(kernel, layout.tile_shape,
                                  num_cores=cluster.params.num_cores,
                                  x_interleave=x_interleave,
                                  y_interleave=y_interleave)
    with planning_scope():
        return [spec.generate(kernel, layout, geometry, cluster,
                              **codegen_kwargs)
                for geometry in geometries]


def run_kernel(kernel: Union[str, StencilKernel], variant: str = "saris",
               tile_shape: Optional[Tuple[int, ...]] = None,
               params: Optional[TimingParams] = None, seed: int = 0,
               check: bool = True, max_cycles: int = 5_000_000,
               grids: Optional[Dict[str, np.ndarray]] = None,
               machine: MachineLike = None,
               **codegen_kwargs) -> KernelRunResult:
    """Compile and simulate one time iteration of ``kernel`` on the cluster.

    Parameters
    ----------
    kernel:
        Kernel name (see :func:`repro.core.kernels.kernel_names`) or a
        :class:`StencilKernel` instance.
    variant:
        A registered codegen variant — ``"base"`` for the optimized RV32G
        baseline, ``"saris"`` for the stream-register accelerated variant,
        or any backend added via
        :func:`repro.core.variants.register_variant`.
    tile_shape:
        Tile shape including halo; defaults to the paper's 64x64 / 16x16x16.
    machine:
        Machine configuration: a preset name (``repro machines`` lists
        them), a :class:`~repro.machine.MachineSpec`, or ``None`` for the
        paper's ``snitch-8`` cluster.
    params:
        Explicit cluster timing parameters; overrides the machine's timing
        model when given (the machine then only contributes its lane
        arrangement, and only if its core count still matches).
    seed / grids:
        Either a seed for random input grids or explicit input grids.
    check:
        Verify the simulated output grid against the NumPy reference.
    codegen_kwargs:
        Forwarded to the code generator (e.g. ``use_frep=False`` or
        ``force_store_streamed=...`` for ablations).
    """
    kernel = _resolve_kernel(kernel)
    machine_spec = resolve_machine(machine)
    params = params or machine_spec.timing_params()
    shape = tuple(tile_shape or kernel.default_tile)
    cluster = SnitchCluster(params)
    with obs.phase_accumulator() as phases:
        run_start = time.perf_counter()
        with obs.span("codegen", kernel=kernel.name, variant=variant):
            layout, generated = _generate_programs_cached(
                kernel, cluster, variant, shape, params, machine_spec,
                codegen_kwargs)
        with obs.span("setup", kernel=kernel.name):
            if grids is None:
                grids = kernel.make_grids(shape, seed=seed)
            else:
                grids = {name: np.asarray(g, dtype=np.float64)
                         for name, g in grids.items()}
                for name in kernel.inputs:
                    if name not in grids:
                        raise RunnerError(f"missing input grid {name!r}")
                grids.setdefault(kernel.output,
                                 np.zeros(shape, dtype=np.float64))

            for name in kernel.arrays:
                cluster.write_grid(layout.arrays[name], grids[name])
            cluster.tcdm.write_f64_array(layout.coeff_table,
                                         layout.coeff_table_values())

            for gen in generated:
                for addr, values in gen.data:
                    arr = np.asarray(values)
                    if arr.size:
                        cluster.tcdm.write_bytes(addr, arr.tobytes())

            cluster.load_programs([gen.program for gen in generated])
        with obs.span("simulate", kernel=kernel.name, variant=variant):
            result = cluster.run(max_cycles=max_cycles)

        correct = True
        max_err = 0.0
        with obs.span("verify", kernel=kernel.name):
            if check:
                simulated = cluster.read_grid(layout.arrays[kernel.output], shape)
                expected = reference_time_step(kernel, grids)
                max_err = (float(np.max(np.abs(simulated - expected)))
                           if simulated.size else 0.0)
                scale = float(np.max(np.abs(expected))) or 1.0
                correct = bool(np.allclose(simulated, expected,
                                           rtol=1e-9, atol=1e-9 * scale))
                if not correct:
                    raise RunnerError(
                        f"{kernel.name} ({variant}): simulated output deviates "
                        f"from the NumPy reference (max abs error {max_err:.3e})"
                    )
        if phases:
            # "other" closes the books: top-level (undotted) phases sum to
            # the run's wall time exactly.  Dotted sub-phases are nested
            # inside a top-level phase and excluded from the sum.
            top = sum(v for k, v in phases.items() if "." not in k)
            phases["other"] = max(0.0, time.perf_counter() - run_start - top)

    return KernelRunResult(
        kernel=kernel.name,
        variant=variant,
        tile_shape=shape,
        cycles=result.cycles,
        total_flops=result.total_flops,
        fpu_util=result.mean_fpu_util,
        ipc=result.mean_ipc,
        flops_per_cycle=result.flops_per_cycle,
        correct=correct,
        max_abs_error=max_err,
        runtime_imbalance=result.runtime_imbalance,
        tcdm_conflict_rate=result.tcdm_conflict_rate,
        dma_utilization=measure_dma_utilization(kernel, shape, params),
        tile_traffic_bytes=tile_traffic_bytes(kernel, shape),
        cluster=result,
        activity=result.activity(),
        program_info=[gen.info for gen in generated],
        engine=cluster.engine,
        phase_seconds={k: round(v, 6) for k, v in phases.items()},
    )


def compare_variants(kernel: Union[str, StencilKernel],
                     tile_shape: Optional[Tuple[int, ...]] = None,
                     params: Optional[TimingParams] = None, seed: int = 0,
                     check: bool = True,
                     base_kwargs: Optional[Dict[str, object]] = None,
                     saris_kwargs: Optional[Dict[str, object]] = None,
                     machine: MachineLike = None) -> VariantComparison:
    """Run both paper variants of ``kernel`` and return the paired results."""
    kernel = _resolve_kernel(kernel)
    base = run_kernel(kernel, variant="base", tile_shape=tile_shape, params=params,
                      seed=seed, check=check, machine=machine,
                      **(base_kwargs or {}))
    saris = run_kernel(kernel, variant="saris", tile_shape=tile_shape, params=params,
                       seed=seed, check=check, machine=machine,
                       **(saris_kwargs or {}))
    return VariantComparison(kernel=kernel.name, base=base, saris=saris)
