"""Cycle-approximate simulator of the Snitch RISC-V compute cluster.

The model follows the architecture evaluated in the SARIS paper:

* eight single-issue, in-order RV32G cores (:mod:`repro.snitch.core`), each
  offloading floating-point instructions to a double-precision FPU sequencer
  (:mod:`repro.snitch.fpu`),
* the FREP hardware loop providing pseudo-dual-issue execution,
* three stream registers per core — two indirection-capable, one affine —
  modelled in :mod:`repro.snitch.ssr`,
* 128 KiB of tightly coupled data memory across 32 banks with per-cycle bank
  arbitration (:mod:`repro.snitch.tcdm`),
* a 512-bit DMA engine for bulk transfers between main memory and TCDM
  (:mod:`repro.snitch.dma`),
* a small shared instruction cache (:mod:`repro.snitch.icache`).

The timing model is *cycle-approximate*: it reproduces the first-order
performance effects the paper discusses (issue-slot contention, FP dependency
stalls, SSR data/index traffic, TCDM bank conflicts, FREP overlap) without
claiming RTL-exact cycle counts.
"""

import importlib

#: Public names and their modules, resolved on first use (PEP 562): the
#: native engine and the NumPy-backed cluster model load only when needed.
_LAZY = {
    "TimingParams": "repro.snitch.params",
    "TCDM": "repro.snitch.tcdm",
    "MainMemory": "repro.snitch.main_memory",
    "DataMover": "repro.snitch.ssr",
    "SsrUnit": "repro.snitch.ssr",
    "FpuSequencer": "repro.snitch.fpu",
    "FrepBlock": "repro.snitch.fpu",
    "InstructionCache": "repro.snitch.icache",
    "DmaEngine": "repro.snitch.dma",
    "DmaTransfer": "repro.snitch.dma",
    "SnitchCore": "repro.snitch.core",
    "SnitchCluster": "repro.snitch.cluster",
    "ClusterResult": "repro.snitch.trace",
    "CoreStats": "repro.snitch.trace",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = list(_LAZY)
