"""Fluent experiment API: declarative sweeps over kernels x variants x machines.

The paper's headline artifacts all have the shape "kernel x codegen variant x
machine configuration -> metrics".  :class:`Experiment` expresses that shape
directly — a fluent builder that lowers its cross product onto the parallel
sweep engine (deduplicated :class:`~repro.sweep.job.SweepJob` lists, the
persistent result store, supervised worker processes) and returns a
:class:`ResultSet` with ``filter`` / ``group_by`` / ``table`` / ``to_json``
for analysis::

    from repro import Experiment

    results = (Experiment()
               .kernels("jacobi_2d", "j3d27pt")
               .variants("base", "saris")
               .machines("snitch-8", "snitch-16")
               .run(workers=4))
    print(results.table())
    for machine, group in results.group_by("machine").items():
        print(machine, group.pluck("cycles"))

Everything is a registered name (or the corresponding object), so
``@register_kernel`` stencils, ``@register_variant`` backends and
``register_machine`` presets compose without touching the library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.core.kernels import get_kernel
from repro.core.stencil import StencilKernel
from repro.core.variants import get_variant, paper_variants
from repro.machine import DEFAULT_MACHINE_NAME, MachineSpec, resolve_machine
from repro.sweep.job import DEFAULT_MAX_CYCLES, SweepJob
from repro.sweep.store import ResultStore

if TYPE_CHECKING:
    from repro.sweep.engine import ProgressFn, SweepReport

#: Default columns of :meth:`ResultSet.table`.
TABLE_COLUMNS = ("kernel", "variant", "machine", "cycles", "fpu_util", "ipc",
                 "flops_per_cycle", "correct")


class ExperimentError(ValueError):
    """Raised for inconsistent experiment definitions."""


@dataclass(frozen=True)
class ExperimentRecord:
    """One (job, result) pair of a finished experiment."""

    job: SweepJob
    result: "KernelRunResult"  # noqa: F821  (repro.runner; avoids import cycle)

    @property
    def kernel(self) -> str:
        return self.result.kernel

    @property
    def variant(self) -> str:
        return self.result.variant

    @property
    def machine(self) -> str:
        """Machine preset name the job ran on (default machine when unset)."""
        return (self.job.machine.name if self.job.machine is not None
                else DEFAULT_MACHINE_NAME)

    @property
    def seed(self) -> int:
        return self.job.seed

    @property
    def tile_shape(self) -> Tuple[int, ...]:
        return self.result.tile_shape

    def timing_params(self):
        """The :class:`TimingParams` this record simulated with."""
        if self.job.params is not None:
            return self.job.params
        return resolve_machine(self.job.machine).timing_params()

    def power(self):
        """Machine-aware power/energy estimate (right core count and clock)."""
        from repro.energy import estimate_power

        return estimate_power(self.result, params=self.timing_params())

    def value(self, field: str):
        """Look up ``field`` on the record, its result, or its job."""
        for source in (self, self.result, self.job):
            if hasattr(source, field):
                return getattr(source, field)
        raise AttributeError(f"experiment records have no field {field!r}")

    def to_json_dict(self) -> Dict[str, object]:
        """Flat JSON payload: identity plus every headline metric."""
        payload = {
            "kernel": self.kernel,
            "variant": self.variant,
            "machine": self.machine,
            "seed": self.seed,
            "tile_shape": list(self.tile_shape),
            "codegen_kwargs": {name: repr(value)
                               for name, value in self.job.codegen_kwargs},
        }
        for metric in ("cycles", "total_flops", "fpu_util", "ipc",
                       "flops_per_cycle", "flops_fraction_of_peak", "correct",
                       "max_abs_error", "runtime_imbalance",
                       "tcdm_conflict_rate", "dma_utilization",
                       "tile_traffic_bytes"):
            payload[metric] = getattr(self.result, metric)
        return payload


class ResultSet:
    """An ordered collection of experiment records with fluent analysis."""

    def __init__(self, records: Sequence[ExperimentRecord],
                 report: Optional[SweepReport] = None) -> None:
        self.records = list(records)
        #: Sweep execution statistics (cache hits, workers, wall time), when
        #: the set came from :meth:`Experiment.run`.
        self.report = report

    @property
    def failures(self):
        """Structured :class:`~repro.sweep.supervisor.JobFailure` records of
        jobs that failed under ``on_error="collect"`` (empty otherwise)."""
        return list(self.report.failures) if self.report is not None else []

    # -- container protocol -------------------------------------------------------

    def __iter__(self) -> Iterator[ExperimentRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ResultSet(self.records[index], report=self.report)
        return self.records[index]

    def __repr__(self) -> str:
        return f"ResultSet({len(self.records)} records)"

    # -- fluent analysis ----------------------------------------------------------

    def filter(self, predicate: Optional[Callable[[ExperimentRecord], bool]] = None,
               **fields) -> "ResultSet":
        """Records matching a predicate and/or field equalities.

        ``results.filter(variant="saris", machine="snitch-16")`` or
        ``results.filter(lambda r: r.result.cycles < 5000)``.
        """
        selected = []
        for record in self.records:
            if predicate is not None and not predicate(record):
                continue
            if all(record.value(name) == want for name, want in fields.items()):
                selected.append(record)
        return ResultSet(selected, report=self.report)

    def group_by(self, key: Union[str, Callable[[ExperimentRecord], object]]
                 ) -> Dict[object, "ResultSet"]:
        """Partition into sub-sets keyed by a field name or callable."""
        lookup = key if callable(key) else (lambda r: r.value(key))
        groups: Dict[object, List[ExperimentRecord]] = {}
        for record in self.records:
            groups.setdefault(lookup(record), []).append(record)
        return {value: ResultSet(records, report=self.report)
                for value, records in groups.items()}

    def pluck(self, field: str) -> List[object]:
        """The values of one field across all records, in order."""
        return [record.value(field) for record in self.records]

    def only(self) -> ExperimentRecord:
        """The single record of this set (raises unless exactly one)."""
        if len(self.records) != 1:
            raise ExperimentError(
                f"expected exactly one record, have {len(self.records)}")
        return self.records[0]

    def speedup(self, over: str = "base", of: str = "saris") -> float:
        """Cycle speedup of one variant over another within this set."""
        slow = self.filter(variant=over).only().result.cycles
        fast = self.filter(variant=of).only().result.cycles
        return slow / fast if fast else 0.0

    def scaleout(self, machine: Union[str, MachineSpec, None] = None,
                 direct: bool = False, tiles_per_cluster: Optional[int] = None,
                 workers: Optional[int] = None, cache: bool = True,
                 cache_dir: Optional[str] = None) -> Dict[str, Dict[str, object]]:
        """Scale this set's base/SARIS pairs out to a Manticore topology.

        With ``direct=False`` (default) the *analytical* model projects each
        kernel from the set's own single-cluster records (both paper
        variants must be present per kernel).  With ``direct=True`` the
        multi-cluster topology is *simulated* directly
        (:func:`repro.scaleout.sim.direct_scaleout_table`: per-cluster
        engine runs through the sweep engine + the shared-HBM contention
        model), reusing the persistent result store; each returned entry
        then carries the analytical estimate and per-kernel deltas as a
        cross-check.  ``machine`` defaults to ``manticore-32`` (analytical)
        / ``manticore-2`` (direct).  Returns ``{kernel: row}`` in record
        order.
        """
        from repro.core.variants import paper_variants as _paper_variants
        from repro.scaleout import (ManticoreConfig, direct_scaleout_table,
                                    estimate_scaleout_pair)
        from repro.scaleout.sim import DEFAULT_TILES_PER_CLUSTER

        kernels = list(dict.fromkeys(self.pluck("kernel")))
        if not kernels:
            raise ExperimentError("scaleout needs at least one record")
        if direct:
            machine_spec = resolve_machine(machine or "manticore-2")
            store = ResultStore(cache_dir) if cache else None
            return direct_scaleout_table(
                kernels, machine=machine_spec,
                tiles_per_cluster=tiles_per_cluster or DEFAULT_TILES_PER_CLUSTER,
                workers=workers, store=store)
        machine_spec = resolve_machine(machine or "manticore-32")
        config = (ManticoreConfig.from_machine(machine_spec)
                  if machine_spec.is_multi_cluster
                  else ManticoreConfig(
                      cores_per_cluster=machine_spec.num_cores,
                      clock_ghz=machine_spec.clock_ghz,
                      hbm_device_gbs=machine_spec.hbm_device_gbs))
        base_variant, saris_variant = _paper_variants()
        table: Dict[str, Dict[str, object]] = {}
        for kernel in kernels:
            group = self.filter(kernel=kernel)
            base = group.filter(variant=base_variant).only().result
            saris = group.filter(variant=saris_variant).only().result
            table[kernel] = estimate_scaleout_pair(get_kernel(kernel), base,
                                                   saris, config=config)
        return table

    # -- presentation -------------------------------------------------------------

    def table(self, columns: Sequence[str] = TABLE_COLUMNS,
              title: Optional[str] = None) -> str:
        """Render the set as an aligned text table."""
        from repro.analysis import format_table

        rows = []
        for record in self.records:
            row = []
            for column in columns:
                value = record.value(column)
                if isinstance(value, float):
                    value = f"{value:.3f}"
                row.append(value)
            rows.append(row)
        return format_table(list(columns), rows, title=title)

    def to_json(self, indent: Optional[int] = None) -> str:
        """The whole set as a JSON array string (see :meth:`to_json_dicts`)."""
        return json.dumps(self.to_json_dicts(), indent=indent, sort_keys=True)

    def to_json_dicts(self) -> List[Dict[str, object]]:
        """One flat JSON-safe dictionary per record."""
        return [record.to_json_dict() for record in self.records]


class Experiment:
    """Fluent builder for a kernels x variants x machines x seeds sweep.

    Axes left unset fall back to sensible defaults: the paper's comparison
    variants (``base``/``saris``), the default ``snitch-8`` machine, the
    kernels' paper tile shapes and seed 0.  ``kernels(...)`` is the only
    mandatory axis.
    """

    def __init__(self) -> None:
        self._kernels: List[Union[str, StencilKernel]] = []
        self._variants: List[str] = []
        self._machines: List[MachineSpec] = []
        self._tile_shapes: List[Optional[Tuple[int, ...]]] = []
        self._seeds: List[int] = []
        self._codegen_kwargs: Dict[str, object] = {}
        self._check: bool = True
        self._max_cycles: int = DEFAULT_MAX_CYCLES

    # -- axes ---------------------------------------------------------------------

    def kernels(self, *kernels: Union[str, StencilKernel]) -> "Experiment":
        """Add kernels by registered name or registered kernel object.

        Jobs carry only the kernel *name* (they must hash and pickle), so a
        :class:`StencilKernel` object is accepted only when a kernel of that
        name is registered — register custom stencils with
        :func:`repro.core.kernels.register_kernel` first (for one-off
        unregistered kernels, use :func:`repro.runner.run_kernel` directly).
        """
        from repro.core.kernels import kernel_fingerprint

        for kernel in kernels:
            name = kernel if isinstance(kernel, str) else kernel.name
            try:
                registered = get_kernel(name)  # fail fast on unknown names
            except KeyError:
                if isinstance(kernel, str):
                    raise
                raise ExperimentError(
                    f"kernel object {name!r} is not registered; experiments "
                    f"execute by name — register it with @register_kernel "
                    f"(or run it directly via run_kernel)") from None
            if not isinstance(kernel, str) and (
                    kernel_fingerprint(kernel)
                    != kernel_fingerprint(registered)):
                raise ExperimentError(
                    f"kernel object {name!r} differs from the registered "
                    f"kernel of that name; sweeping it would silently run "
                    f"the registered definition — register the object under "
                    f"its own name (or replace the registration)")
            self._kernels.append(kernel)
        return self

    def variants(self, *names: str) -> "Experiment":
        """Add registered codegen variants (default: ``base`` and ``saris``)."""
        for name in names:
            get_variant(name)  # fail fast on unknown names
            self._variants.append(name)
        return self

    def machines(self, *machines: Union[str, MachineSpec]) -> "Experiment":
        """Add machine configurations by preset name or spec (default: ``snitch-8``)."""
        self._machines.extend(resolve_machine(machine) for machine in machines)
        return self

    def tiles(self, *tile_shapes: Sequence[int]) -> "Experiment":
        """Add tile shapes (default: each kernel's paper tile)."""
        self._tile_shapes.extend(tuple(int(t) for t in shape)
                                 for shape in tile_shapes)
        return self

    def seeds(self, *seeds: int) -> "Experiment":
        """Add input seeds (default: 0)."""
        self._seeds.extend(int(seed) for seed in seeds)
        return self

    def codegen(self, **kwargs) -> "Experiment":
        """Set codegen keyword arguments applied to every job."""
        self._codegen_kwargs.update(kwargs)
        return self

    def options(self, check: Optional[bool] = None,
                max_cycles: Optional[int] = None) -> "Experiment":
        """Tweak per-job simulation options."""
        if check is not None:
            self._check = bool(check)
        if max_cycles is not None:
            self._max_cycles = int(max_cycles)
        return self

    # -- lowering and execution ---------------------------------------------------

    def jobs(self) -> List[SweepJob]:
        """Lower the cross product to normalized sweep jobs (duplicates kept
        in order; the engine dedupes identical jobs at execution time)."""
        if not self._kernels:
            raise ExperimentError(
                "an Experiment needs at least one kernel; add some with "
                ".kernels(...)")
        variants = self._variants or list(paper_variants())
        machines = self._machines or [resolve_machine(None)]
        tile_shapes = self._tile_shapes or [None]
        seeds = self._seeds or [0]
        jobs = []
        for kernel in self._kernels:
            for variant in variants:
                for machine in machines:
                    for tile_shape in tile_shapes:
                        for seed in seeds:
                            jobs.append(SweepJob.make(
                                kernel, variant, tile_shape=tile_shape,
                                seed=seed, check=self._check,
                                max_cycles=self._max_cycles, machine=machine,
                                **self._codegen_kwargs))
        return jobs

    def run(self, workers: Optional[int] = None, cache: bool = True,
            cache_dir: Optional[str] = None,
            progress: Optional[ProgressFn] = None, on_error: str = "raise",
            timeout: Optional[float] = None,
            retries: Optional[int] = None) -> ResultSet:
        """Execute through the sweep engine and return a :class:`ResultSet`.

        ``workers`` picks the worker-pool width (1 forces the bit-identical
        serial path); ``cache`` consults and updates the persistent
        machine-aware result store under ``cache_dir``.

        The sweep always runs supervised (see :mod:`repro.sweep.supervisor`):
        failing jobs are retried with backoff, and a crashed or hung job's
        worker is replaced.  ``timeout`` (seconds per job) and ``retries``
        (an attempt cap) set that policy.  A job that still fails is raised
        by the default ``on_error="raise"``; with ``on_error="collect"`` it
        is *omitted* from the records, with the structured failure list
        available as ``result_set.failures`` (and on ``result_set.report``).

        Plug-in kernels/variants registered by the calling script reach pool
        workers by process inheritance, which requires the ``fork`` start
        method (the default on Linux).  On spawn-only platforms
        (Windows/macOS), put registrations in an importable module or run
        plug-in sweeps with ``workers=1``.
        """
        from repro.sweep.engine import run_sweep
        from repro.sweep.supervisor import RetryPolicy

        retry = None
        if retries is not None:
            retry = replace(RetryPolicy.resolve(None, timeout),
                            max_attempts=int(retries))
        jobs = self.jobs()
        store = ResultStore(cache_dir) if cache else None
        report = run_sweep(jobs, workers=workers, store=store,
                           progress=progress, on_error=on_error,
                           retry=retry, timeout=timeout)
        records = [ExperimentRecord(job=job, result=result)
                   for job, result in zip(jobs, report.results)
                   if result is not None]
        return ResultSet(records, report=report)
