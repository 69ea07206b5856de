"""SARIS core library: stencil IR, kernels, method and code generators.

The package is organised as a small compilation pipeline:

1. :mod:`repro.core.ir` / :mod:`repro.core.stencil` — expression IR and the
   :class:`StencilKernel` description (arrays, radius, coefficients).
2. :mod:`repro.core.kernels` — the ten stencil codes of Table 1 plus the
   Listing-1 example, with NumPy reference semantics
   (:mod:`repro.core.reference`).
3. :mod:`repro.core.lowering` / :mod:`repro.core.schedule` /
   :mod:`repro.core.regalloc` — lowering to abstract FP operations, latency
   aware list scheduling and register allocation.
4. :mod:`repro.core.saris` — the SARIS method itself: mapping grid loads to
   indirect streams, partitioning them across SR0/SR1, choosing the role of
   the remaining affine SR, and deriving index arrays from the point-loop
   schedule.
5. :mod:`repro.core.codegen_base` / :mod:`repro.core.codegen_saris` — the
   optimized RV32G baseline and the SARIS (SSSR + FREP) code generators.
"""

import importlib

#: Public names and their modules, resolved on first use (PEP 562): the
#: kernel registry loads without NumPy or the code generators.
_LAZY = {
    **dict.fromkeys(("BinOp", "Coeff", "Const", "Expr", "GridRef", "add",
                     "mul", "sub", "count_flops", "grid_refs"),
                    "repro.core.ir"),
    "StencilKernel": "repro.core.stencil",
    **dict.fromkeys(("TABLE1_KERNELS", "all_kernels", "get_kernel",
                     "kernel_names", "register_kernel"),
                    "repro.core.kernels"),
    "TileLayout": "repro.core.layout",
    "CoreGeometry": "repro.core.parallel",
    "cluster_geometry": "repro.core.parallel",
    "SarisMapping": "repro.core.saris",
    "map_streams": "repro.core.saris",
    "generate_base_program": "repro.core.codegen_base",
    "generate_saris_program": "repro.core.codegen_saris",
}


def __getattr__(name):
    # Live view of the kernel registry, matching repro.core.kernels — a
    # frozen snapshot here would miss plug-in kernels.
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


__all__ = ["KERNEL_NAMES", *_LAZY]
