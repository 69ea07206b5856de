"""SARIS reproduction: stencil acceleration with indirect stream registers.

The package provides:

* :mod:`repro.isa` — a RISC-V (RV32G + SSR/FREP) instruction set model and
  assembler;
* :mod:`repro.snitch` — a cycle-approximate simulator of the Snitch compute
  cluster (FPU sequencer, FREP, SSR streamers, banked TCDM, DMA engine);
* :mod:`repro.core` — the SARIS methodology: stencil IR, the Table-1 kernel
  suite and kernel registry, stream mapping, scheduling and the registered
  baseline/SARIS code generators;
* :mod:`repro.machine` — frozen, hashable machine configurations with named
  presets (``snitch-8`` default, ``snitch-4``, ``snitch-16``,
  ``snitch-8-wide``, and the multi-cluster ``manticore-2``/``-8``/``-32``
  topologies);
* :mod:`repro.runner` — a one-call API to compile, simulate and verify a
  kernel variant on any machine;
* :mod:`repro.experiment` — the fluent experiment API: declarative
  kernels x variants x machines sweeps returning a :class:`ResultSet`;
* :mod:`repro.energy` — the activity-based cluster power/energy model;
* :mod:`repro.scaleout` — the Manticore manycore models: the paper's
  analytical projection and the direct multi-cluster simulation
  (shared-HBM contention, per-cluster engine runs);
* :mod:`repro.analysis` — metric aggregation and table rendering used by the
  benchmark harness;
* :mod:`repro.sweep` — the parallel sweep engine: declarative machine-aware
  jobs, process-pool fan-out, the persistent result store and the one-shot
  ``repro reproduce`` artifact pipeline (with its artifact registry);
* :mod:`repro.service` — simulation-as-a-service: the async job-queue core
  (store-dedupe, in-flight coalescing, progress streams) plus the
  ``repro serve`` HTTP daemon and its stdlib client.
"""

import importlib

__version__ = "1.2.0"

#: Public names and the module each one lives in.  They resolve on first
#: use (PEP 562), so ``import repro`` (and every ``repro.*`` submodule
#: import, which runs this file first) costs no NumPy and no codegen.
_LAZY = {
    "TABLE1_KERNELS": "repro.core.kernels",
    "all_kernels": "repro.core.kernels",
    "get_kernel": "repro.core.kernels",
    "kernel_names": "repro.core.kernels",
    "register_kernel": "repro.core.kernels",
    "StencilKernel": "repro.core.stencil",
    "paper_variants": "repro.core.variants",
    "register_variant": "repro.core.variants",
    "variant_names": "repro.core.variants",
    "Experiment": "repro.experiment",
    "ExperimentRecord": "repro.experiment",
    "ResultSet": "repro.experiment",
    "MachineSpec": "repro.machine",
    "default_machine": "repro.machine",
    "get_machine": "repro.machine",
    "machine_names": "repro.machine",
    "register_machine": "repro.machine",
    "KernelRunResult": "repro.runner",
    "VariantComparison": "repro.runner",
    "compare_variants": "repro.runner",
    "run_kernel": "repro.runner",
    "TimingParams": "repro.snitch.params",
    "ResultStore": "repro.sweep",
    "SweepJob": "repro.sweep",
    "run_jobs": "repro.sweep",
    "run_sweep": "repro.sweep",
    "JobQueue": "repro.service",
    "ReproService": "repro.service",
    "ServiceClient": "repro.service",
}


def __getattr__(name):
    # Live view of the kernel registry: plug-in kernels registered after
    # import show up without a stale snapshot.
    if name == "KERNEL_NAMES":
        from repro.core.kernels import kernel_names

        return kernel_names()
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = ["KERNEL_NAMES", *_LAZY, "__version__"]
