"""Every paper artifact, regenerated through the parallel sweep engine.

This module is the single source of truth for the reproduction's artifact
pipeline: the declarative job lists behind the paper's measurements, one
builder per artifact (Table 1/2, Figures 3a/3b/4/5, Listing 1 and the
ablations), and :func:`reproduce`, which runs every required job in one
deduplicated sweep pass and assembles a consolidated report.  The pytest
benchmark drivers under ``benchmarks/`` and the ``repro reproduce`` CLI both
consume these builders, so the tables printed in CI and the report written by
the CLI can never drift apart.

Each builder returns a dictionary with ``title`` / ``columns`` / ``rows``
(render with :func:`repro.analysis.format_table`) plus a ``data`` payload
holding the raw values the benchmark assertions check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis import format_table, geomean
from repro.core.kernels import TABLE1_EXPECTED, TABLE1_KERNELS, get_kernel
from repro.core.layout import build_layout
from repro.core.parallel import cluster_geometry
from repro.core.variants import get_variant, paper_variants
from repro.energy import energy_comparison
from repro.machine import MachineSpec, get_machine, resolve_machine
from repro.registry import Registry
from repro.runner import KernelRunResult, VariantComparison
from repro.scaleout import (
    best_gpu_fraction,
    estimate_scaleout_pair,
    peak_fraction_table,
)
from repro.scaleout.sim import (
    assemble_direct_scaleout_table,
    direct_scaleout_jobs,
)
from repro.snitch.cluster import SnitchCluster
from repro.sweep.engine import ProgressFn, SweepReport, run_sweep
from repro.sweep.job import SweepJob
from repro.sweep.store import ENGINE_VERSION, ResultStore
from repro.sweep.supervisor import JobFailure, RetryPolicy

#: Machine selector accepted by the job-list builders and ``reproduce``.
MachineLike = Union[str, MachineSpec, None]

#: Reference values reported by the paper, used in printed comparisons.
PAPER_REFERENCE = {
    "speedup_geomean": 2.72,
    "speedup": {"jacobi_2d": 2.36, "j2d5pt": 2.52, "box2d1r": 2.48, "j2d9pt": 2.41,
                "j2d9pt_gol": 2.42, "star2d3r": 2.40, "star3d2r": 2.42,
                "ac_iso_cd": 3.01, "box3d1r": 3.48, "j3d27pt": 3.87},
    "base_fpu_util_geomean": 0.35,
    "saris_fpu_util_geomean": 0.81,
    "base_ipc_geomean": 0.89,
    "saris_ipc_geomean": 1.11,
    "base_power_w": 0.227,
    "saris_power_w": 0.390,
    "energy_gain_geomean": 1.58,
    "energy_gain_range": (1.27, 2.17),
    "scaleout_saris_util_geomean": 0.64,
    "scaleout_speedup_geomean": 2.14,
    "scaleout_peak_gflops": 406.0,
    "scaleout_cmtr": {"jacobi_2d": 0.48, "j2d5pt": 0.53, "box2d1r": 0.94,
                      "j2d9pt": 0.80, "j2d9pt_gol": 0.86, "star3d2r": 0.80,
                      "ac_iso_cd": 0.67},
    "table2_saris_fraction": 0.79,
    "table2_an5d_fraction": 0.69,
    "listing1_base_compute_fraction": 0.35,
    "listing1_saris_compute_fraction": 0.58,
}

#: SARIS block sizes swept by the unrolling ablation.
ABLATION_BLOCKS = (1, 4, 16)


def __getattr__(name: str):
    # ``SUBSET_CHOICES`` tracks the live artifact registry (PEP 562), so
    # artifacts registered by plug-ins appear as ``--subset`` choices.
    if name == "SUBSET_CHOICES":
        return subset_choices()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------

def paper_jobs(machine: MachineLike = None) -> List[SweepJob]:
    """The paper comparison variants of every Table-1 kernel, paper tiles."""
    return [SweepJob.make(name, variant=variant, machine=machine)
            for name in TABLE1_KERNELS for variant in paper_variants()]


def ablation_jobs(machine: MachineLike = None) -> Dict[str, SweepJob]:
    """The extra jobs behind the design-choice ablations, keyed by role."""
    jobs = {
        "frep_on": SweepJob.make("jacobi_2d", "saris", machine=machine),
        "frep_off": SweepJob.make("jacobi_2d", "saris", machine=machine,
                                  use_frep=False),
        "sr2_stores": SweepJob.make("star3d7pt", "saris", machine=machine),
        "sr2_coeffs": SweepJob.make("star3d7pt", "saris", machine=machine,
                                    force_store_streamed=False),
    }
    for block in ABLATION_BLOCKS:
        jobs[f"block_{block}"] = SweepJob.make("jacobi_2d", "saris",
                                               machine=machine,
                                               max_block=block)
    return jobs


def pair_up(results: Sequence[KernelRunResult]) -> Dict[str, VariantComparison]:
    """Zip an alternating base/saris result list into comparisons by kernel."""
    expected_variants = paper_variants()
    if len(expected_variants) != 2:
        # The paper comparison is a base-vs-saris *pair* by definition;
        # third-party variants belong in Experiment sweeps, not in the
        # paper=True set.
        raise ValueError(
            f"the paper comparison needs exactly two paper variants, "
            f"registry has {expected_variants}")
    pairs: Dict[str, VariantComparison] = {}
    for base, saris in zip(results[0::2], results[1::2]):
        if base.kernel != saris.kernel or (base.variant,
                                           saris.variant) != expected_variants:
            raise ValueError("result list is not an alternating base/saris sweep")
        pairs[base.kernel] = VariantComparison(kernel=base.kernel, base=base,
                                               saris=saris)
    return pairs


def run_paper_sweep(workers: Optional[int] = None,
                    store: Optional[ResultStore] = None,
                    progress: Optional[ProgressFn] = None,
                    machine: MachineLike = None
                    ) -> Dict[str, VariantComparison]:
    """Run the Table-1 sweep through the engine; comparisons by kernel name."""
    report = run_sweep(paper_jobs(machine), workers=workers, store=store,
                       progress=progress)
    return pair_up(report.results)


def run_ablation_sweep(workers: Optional[int] = None,
                       store: Optional[ResultStore] = None,
                       progress: Optional[ProgressFn] = None,
                       machine: MachineLike = None
                       ) -> Dict[str, KernelRunResult]:
    """Run the ablation jobs through the engine; results keyed by role."""
    jobs = ablation_jobs(machine)
    keys = list(jobs)
    report = run_sweep([jobs[key] for key in keys], workers=workers,
                       store=store, progress=progress)
    return dict(zip(keys, report.results))


# ---------------------------------------------------------------------------
# Artifact builders
# ---------------------------------------------------------------------------

def build_table1(runs: Optional[Dict[str, VariantComparison]] = None) -> Dict[str, object]:
    """Table 1: per-point kernel characteristics, measured vs paper.

    With ``runs`` given, the measured base/SARIS cycle counts and speedup of
    each kernel are appended so the table doubles as the sweep's summary.
    """
    columns = ["code", "dims", "rad", "loads", "coeffs", "flops",
               "paper loads", "paper coeffs", "paper flops"]
    if runs is not None:
        columns += ["base cyc", "saris cyc", "speedup"]
    rows = []
    characteristics = {}
    for name in TABLE1_KERNELS:
        kernel = get_kernel(name)
        expected = TABLE1_EXPECTED[name]
        row = [name, f"{kernel.dims}D", kernel.radius,
               kernel.loads_per_point, kernel.coeffs_per_point,
               kernel.flops_per_point,
               expected["loads"], expected["coeffs"], expected["flops"]]
        characteristics[name] = {
            "measured": (kernel.loads_per_point, kernel.coeffs_per_point,
                         kernel.flops_per_point),
            "paper": (expected["loads"], expected["coeffs"], expected["flops"]),
        }
        if runs is not None:
            pair = runs[name]
            row += [pair.base.cycles, pair.saris.cycles, f"{pair.speedup:.2f}"]
        rows.append(row)
    return {
        "title": "Table 1: stencil code characteristics (measured vs paper)",
        "columns": columns,
        "rows": rows,
        "data": characteristics,
    }


def build_fig3a(runs: Dict[str, VariantComparison]) -> Dict[str, object]:
    """Figure 3a: SARIS speedup over the baseline, per kernel and geomean."""
    speedups = {name: runs[name].speedup for name in TABLE1_KERNELS}
    measured_geomean = geomean(speedups.values())
    rows = [[name, f"{speedups[name]:.2f}",
             f"{PAPER_REFERENCE['speedup'][name]:.2f}"]
            for name in TABLE1_KERNELS]
    rows.append(["geomean", f"{measured_geomean:.2f}",
                 f"{PAPER_REFERENCE['speedup_geomean']:.2f}"])
    return {
        "title": "Figure 3a: SARIS speedup over base",
        "columns": ["code", "speedup (measured)", "speedup (paper)"],
        "rows": rows,
        "data": {"speedups": speedups, "geomean": measured_geomean},
    }


def build_fig3b(runs: Dict[str, VariantComparison]) -> Dict[str, object]:
    """Figure 3b: FPU utilization and per-core IPC for both variants."""
    per_kernel = {}
    for name in TABLE1_KERNELS:
        pair = runs[name]
        per_kernel[name] = {
            "base_util": pair.base.fpu_util,
            "saris_util": pair.saris.fpu_util,
            "base_ipc": pair.base.ipc,
            "saris_ipc": pair.saris.ipc,
        }
    aggregates = {
        "base_util": geomean(d["base_util"] for d in per_kernel.values()),
        "saris_util": geomean(d["saris_util"] for d in per_kernel.values()),
        "base_ipc": geomean(d["base_ipc"] for d in per_kernel.values()),
        "saris_ipc": geomean(d["saris_ipc"] for d in per_kernel.values()),
    }
    rows = [[name,
             f"{d['base_util']:.2f}", f"{d['saris_util']:.2f}",
             f"{d['base_ipc']:.2f}", f"{d['saris_ipc']:.2f}"]
            for name, d in per_kernel.items()]
    rows.append(["geomean (measured)",
                 f"{aggregates['base_util']:.2f}",
                 f"{aggregates['saris_util']:.2f}",
                 f"{aggregates['base_ipc']:.2f}",
                 f"{aggregates['saris_ipc']:.2f}"])
    rows.append(["geomean (paper)",
                 f"{PAPER_REFERENCE['base_fpu_util_geomean']:.2f}",
                 f"{PAPER_REFERENCE['saris_fpu_util_geomean']:.2f}",
                 f"{PAPER_REFERENCE['base_ipc_geomean']:.2f}",
                 f"{PAPER_REFERENCE['saris_ipc_geomean']:.2f}"])
    return {
        "title": "Figure 3b: FPU utilization and per-core IPC",
        "columns": ["code", "base util", "saris util", "base IPC", "saris IPC"],
        "rows": rows,
        "data": {"per_kernel": per_kernel, "geomean": aggregates},
    }


def build_fig4(runs: Dict[str, VariantComparison],
               machine: Optional[MachineSpec] = None) -> Dict[str, object]:
    """Figure 4: cluster power and SARIS energy-efficiency gain.

    ``machine`` supplies the timing parameters (clock, core count) of the
    machine the runs were simulated on; without it the energy model falls
    back to the default clock and per-result activity counters.
    """
    params = machine.timing_params() if machine is not None else None
    per_kernel = {name: energy_comparison(runs[name].base, runs[name].saris,
                                          params=params)
                  for name in TABLE1_KERNELS}
    aggregates = {
        "base_power_w": geomean(d["base_power_w"] for d in per_kernel.values()),
        "saris_power_w": geomean(d["saris_power_w"] for d in per_kernel.values()),
        "gain": geomean(d["energy_efficiency_gain"] for d in per_kernel.values()),
    }
    rows = [[name,
             f"{d['base_power_w']:.3f}", f"{d['saris_power_w']:.3f}",
             f"{d['energy_efficiency_gain']:.2f}"]
            for name, d in per_kernel.items()]
    rows.append(["geomean (measured)", f"{aggregates['base_power_w']:.3f}",
                 f"{aggregates['saris_power_w']:.3f}", f"{aggregates['gain']:.2f}"])
    rows.append(["geomean (paper)", f"{PAPER_REFERENCE['base_power_w']:.3f}",
                 f"{PAPER_REFERENCE['saris_power_w']:.3f}",
                 f"{PAPER_REFERENCE['energy_gain_geomean']:.2f}"])
    return {
        "title": "Figure 4: cluster power and SARIS energy-efficiency gain",
        "columns": ["code", "base power [W]", "saris power [W]",
                    "energy eff. gain"],
        "rows": rows,
        "data": {"per_kernel": per_kernel, "geomean": aggregates},
    }


def _scaleout_config(machine: Optional[MachineSpec]):
    """Manticore model built from clusters of the given machine's shape
    (``None`` keeps the paper's stock Manticore-256s; a multi-cluster spec
    is taken as the full topology)."""
    if machine is None:
        return None
    from repro.scaleout import ManticoreConfig

    if machine.is_multi_cluster:
        return ManticoreConfig.from_machine(machine)
    return ManticoreConfig(cores_per_cluster=machine.num_cores,
                           clock_ghz=machine.clock_ghz,
                           hbm_device_gbs=machine.hbm_device_gbs)


def build_fig5(runs: Dict[str, VariantComparison],
               machine: Optional[MachineSpec] = None) -> Dict[str, object]:
    """Figure 5: Manticore-256s scaleout estimates per kernel.

    With a non-default ``machine``, the Manticore model is built from
    clusters of that machine's shape (core count and clock), so the
    projected peak matches the clusters the per-tile results came from.
    """
    config = _scaleout_config(machine)
    per_kernel = {name: estimate_scaleout_pair(get_kernel(name),
                                               runs[name].base,
                                               runs[name].saris,
                                               config=config)
                  for name in TABLE1_KERNELS}
    aggregates = {
        "saris_util": geomean(d["saris"].fpu_util for d in per_kernel.values()),
        "speedup": geomean(d["speedup"] for d in per_kernel.values()),
        "peak_gflops": max(d["saris"].gflops for d in per_kernel.values()),
    }
    rows = []
    for name, entry in per_kernel.items():
        paper_cmtr = PAPER_REFERENCE["scaleout_cmtr"].get(name)
        rows.append([
            name,
            f"{entry['base'].fpu_util:.2f}",
            f"{entry['saris'].fpu_util:.2f}",
            f"{entry['speedup']:.2f}",
            f"{entry['cmtr']:.2f}" if entry["memory_bound"] else "-",
            f"{paper_cmtr:.2f}" if paper_cmtr else "-",
            f"{entry['saris'].gflops:.0f}",
        ])
    rows.append(["geomean/max (measured)", "", f"{aggregates['saris_util']:.2f}",
                 f"{aggregates['speedup']:.2f}", "", "",
                 f"{aggregates['peak_gflops']:.0f}"])
    rows.append(["geomean/max (paper)", "0.35",
                 f"{PAPER_REFERENCE['scaleout_saris_util_geomean']:.2f}",
                 f"{PAPER_REFERENCE['scaleout_speedup_geomean']:.2f}", "", "",
                 f"{PAPER_REFERENCE['scaleout_peak_gflops']:.0f}"])
    return {
        "title": "Figure 5: Manticore-256s scaleout estimates",
        "columns": ["code", "base util", "saris util", "speedup",
                    "CMTR (measured)", "CMTR (paper)", "saris GFLOP/s"],
        "rows": rows,
        "data": {"per_kernel": per_kernel, "aggregates": aggregates},
    }


def _direct_machine(machine: Optional[MachineSpec]) -> MachineSpec:
    """Topology the direct scaleout simulation runs on.

    ``None`` and single-cluster machines default to a CI-sized two-cluster
    group (of the given machine's cluster shape); a multi-cluster spec is
    used as-is.
    """
    if machine is None:
        return get_machine("manticore-2")
    if machine.is_multi_cluster:
        return machine
    return replace(machine.with_topology(groups=1, clusters_per_group=2),
                   name=f"{machine.name}-x2",
                   description=f"two {machine.name} clusters on one HBM "
                               f"device")


def build_scaleout_direct(ctx: "ArtifactContext") -> Dict[str, object]:
    """Figure-5-style table from **direct** multi-cluster simulation.

    Every Table-1 kernel is simulated on the topology (per-cluster engine
    runs from ``ctx.scaleout``, shared-HBM contention model), side by side
    with the analytical projection for the *same* machine, reporting the
    per-kernel delta.  See :mod:`repro.scaleout.sim` for the model and
    :data:`repro.scaleout.sim.ANALYTICAL_TOLERANCE` for the documented
    agreement bounds.
    """
    machine = _direct_machine(ctx.machine)
    table = assemble_direct_scaleout_table(TABLE1_KERNELS, machine,
                                           ctx.scaleout)
    aggregates = {
        "saris_util": geomean(e["saris"].fpu_util for e in table.values()),
        "speedup": geomean(e["speedup"] for e in table.values()),
        "peak_gflops": max(e["saris"].gflops for e in table.values()),
        "max_abs_speedup_delta": max(abs(e["speedup_delta"])
                                     for e in table.values()),
    }
    rows = []
    for name, entry in table.items():
        saris = entry["saris"]
        analytical = entry["analytical"]
        rows.append([
            name,
            f"{saris.fpu_util:.2f}",
            f"{analytical['saris'].fpu_util:.2f}",
            f"{entry['speedup']:.2f}",
            f"{analytical['speedup']:.2f}",
            f"{entry['speedup_delta']:+.1%}",
            f"{entry['cmtr']:.2f}" if entry["memory_bound"] else "-",
            f"{analytical['cmtr']:.2f}" if analytical["memory_bound"] else "-",
            f"{saris.gflops:.1f}",
        ])
    rows.append(["geomean/max", f"{aggregates['saris_util']:.2f}", "",
                 f"{aggregates['speedup']:.2f}", "",
                 f"(max |delta| {aggregates['max_abs_speedup_delta']:.1%})",
                 "", "", f"{aggregates['peak_gflops']:.1f}"])
    first = next(iter(table.values()))["saris"]
    return {
        "title": (f"Direct scaleout simulation on {machine.name} "
                  f"({machine.groups}x{machine.clusters_per_group} clusters, "
                  f"{first.tiles_per_cluster} tiles/cluster, "
                  f"{first.granularity}-granular HBM arbitration) "
                  f"vs analytical estimate"),
        "columns": ["code", "util (direct)", "util (analyt)",
                    "speedup (direct)", "speedup (analyt)", "speedup delta",
                    "CMTR (direct)", "CMTR (analyt)", "saris GFLOP/s"],
        "rows": rows,
        "data": {"per_kernel": table, "aggregates": aggregates,
                 "machine": machine.name, "granularity": first.granularity},
    }


def build_table2(runs: Dict[str, VariantComparison],
                 machine: Optional[MachineSpec] = None) -> Dict[str, object]:
    """Table 2: best fraction of peak compute vs prior stencil software."""
    config = _scaleout_config(machine)
    best_fraction = 0.0
    best_kernel = None
    for name in TABLE1_KERNELS:
        pair = runs[name]
        est = estimate_scaleout_pair(get_kernel(name), pair.base, pair.saris,
                                     config=config)
        if est["saris"].fraction_of_peak > best_fraction:
            best_fraction = est["saris"].fraction_of_peak
            best_kernel = name
    rows = [[r["category"], r["work"], r["platform"], r["precision"],
             f"{r['peak_fraction']:.2f}"]
            for r in peak_fraction_table(best_fraction)]
    return {
        "title": (f"Table 2: highest fraction of peak compute "
                  f"(our best kernel: {best_kernel}; paper reports "
                  f"{PAPER_REFERENCE['table2_saris_fraction']:.2f})"),
        "columns": ["category", "work", "platform", "precision", "% of peak"],
        "rows": rows,
        "data": {"best_fraction": best_fraction, "best_kernel": best_kernel,
                 "best_gpu_fraction": best_gpu_fraction()},
    }


def build_listing1(machine: Optional[MachineSpec] = None) -> Dict[str, object]:
    """Listing 1: instruction mix of both un-unrolled star3d7pt point loops.

    Static codegen analysis — no simulation — so it needs no sweep results;
    ``machine`` selects the cluster configuration the code is generated for
    (the per-point instruction mix is interleave-invariant, but FREP limits
    and core count follow the machine).
    """
    kernel = get_kernel("star3d7pt")
    cluster = SnitchCluster(machine.timing_params() if machine else None)
    layout = build_layout(kernel, cluster.allocator)
    geometry = cluster_geometry(
        kernel, layout.tile_shape, num_cores=cluster.params.num_cores,
        x_interleave=machine.x_interleave if machine else None,
        y_interleave=machine.y_interleave if machine else None)[0]
    base = get_variant("base").generate(kernel, layout, geometry, cluster,
                                        max_unroll=1)
    saris = get_variant("saris").generate(kernel, layout, geometry, cluster,
                                          max_block=1, max_body_unroll=1)
    data = {}
    for label, gen in (("base", base), ("saris", saris)):
        start, end = gen.program.loop_bounds("xloop")
        mix = gen.program.static_instruction_mix(start, end)
        total = sum(mix.values())
        data[label] = {
            "total": total,
            "compute": mix["fp_compute"],
            "fraction": mix["fp_compute"] / total,
            "mix": mix,
        }
    rows = [
        ["loop instructions", data["base"]["total"], data["saris"]["total"],
         20, 12],
        ["useful compute instructions", data["base"]["compute"],
         data["saris"]["compute"], 7, 7],
        ["useful compute fraction",
         f"{data['base']['fraction']:.2f}", f"{data['saris']['fraction']:.2f}",
         PAPER_REFERENCE["listing1_base_compute_fraction"],
         PAPER_REFERENCE["listing1_saris_compute_fraction"]],
    ]
    return {
        "title": ("Listing 1: point-loop instruction mix, 7-point star, "
                  "no unrolling"),
        "columns": ["metric", "base (ours)", "saris (ours)", "base (paper)",
                    "saris (paper)"],
        "rows": rows,
        "data": data,
    }


def build_ablations(ablations: Dict[str, KernelRunResult],
                    runs: Optional[Dict[str, VariantComparison]] = None
                    ) -> List[Dict[str, object]]:
    """Ablation tables: FREP, block size, SR2 policy and stream balance."""
    artifacts = [
        {
            "title": "Ablation: FREP hardware loop (jacobi_2d, saris)",
            "columns": ["metric", "with FREP", "without FREP"],
            "rows": [
                ["cycles", ablations["frep_on"].cycles,
                 ablations["frep_off"].cycles],
                ["FPU utilization", f"{ablations['frep_on'].fpu_util:.3f}",
                 f"{ablations['frep_off'].fpu_util:.3f}"],
                ["IPC", f"{ablations['frep_on'].ipc:.3f}",
                 f"{ablations['frep_off'].ipc:.3f}"],
            ],
            "data": {"with_frep": ablations["frep_on"],
                     "without_frep": ablations["frep_off"]},
        },
        {
            "title": "Ablation: SARIS block size (jacobi_2d)",
            "columns": ["block points per launch", "cycles", "FPU util"],
            "rows": [[block, ablations[f"block_{block}"].cycles,
                      f"{ablations[f'block_{block}'].fpu_util:.3f}"]
                     for block in ABLATION_BLOCKS],
            "data": {block: ablations[f"block_{block}"]
                     for block in ABLATION_BLOCKS},
        },
        {
            "title": ("Ablation: role of the remaining affine stream register "
                      "(star3d7pt)"),
            "columns": ["metric", "SR2 = output stores", "SR2 = coefficients"],
            "rows": [
                ["cycles", ablations["sr2_stores"].cycles,
                 ablations["sr2_coeffs"].cycles],
                ["FPU utilization", f"{ablations['sr2_stores'].fpu_util:.3f}",
                 f"{ablations['sr2_coeffs'].fpu_util:.3f}"],
            ],
            "data": {"stores": ablations["sr2_stores"],
                     "coeffs": ablations["sr2_coeffs"]},
        },
    ]
    if runs is not None:
        balances = {name: (pair.saris.program_info[0]["stream_balance"],
                           pair.saris.fpu_util)
                    for name, pair in runs.items()}
        artifacts.append({
            "title": "Ablation: stream partition balance per kernel",
            "columns": ["code", "SR0/SR1 balance", "saris FPU util"],
            "rows": [[name, f"{balance:.2f}", f"{util:.2f}"]
                     for name, (balance, util) in sorted(balances.items())],
            "data": balances,
        })
    return artifacts


# ---------------------------------------------------------------------------
# Artifact registry and one-shot reproduction
# ---------------------------------------------------------------------------

@dataclass
class ArtifactContext:
    """Sweep results an artifact builder may draw on.

    ``runs``, ``ablations`` and ``scaleout`` (the direct scaleout's
    per-cluster tile results, in :func:`~repro.scaleout.sim.
    direct_scaleout_jobs` order) come from the pipeline's one shared sweep.

    With ``on_error="collect"`` a failed sweep job no longer aborts the
    pipeline: ``failures`` carries the structured records and builders whose
    required results are incomplete are skipped with an explanatory
    placeholder instead of crashing on a missing result.
    """

    machine: Optional[MachineSpec] = None
    runs: Optional[Dict[str, VariantComparison]] = None
    ablations: Optional[Dict[str, KernelRunResult]] = None
    scaleout: Optional[List[KernelRunResult]] = None
    on_error: str = "raise"
    failures: Optional[List[JobFailure]] = None


@dataclass(frozen=True)
class ArtifactSpec:
    """One registered paper artifact: a builder plus its sweep requirements."""

    name: str
    build: Callable[[ArtifactContext], List[Dict[str, object]]]
    needs_paper: bool = False
    needs_ablation: bool = False
    needs_scaleout: bool = False
    description: str = ""


ARTIFACT_REGISTRY: Registry[ArtifactSpec] = Registry("artifact")


def register_artifact(name: str, *, needs_paper: bool = False,
                      needs_ablation: bool = False,
                      needs_scaleout: bool = False, description: str = "",
                      replace: bool = False):
    """Decorator registering an artifact builder under ``name``.

    The builder receives an :class:`ArtifactContext` (with the paper,
    ablation and/or direct-scaleout sweep results it declared a need for)
    and returns a list of table dictionaries (``title`` / ``columns`` /
    ``rows`` / ``data``).  Registered artifacts become ``repro reproduce
    --subset`` choices.
    """
    def wrap(entry_name: str, fn) -> ArtifactSpec:
        return ArtifactSpec(name=entry_name, build=fn, needs_paper=needs_paper,
                            needs_ablation=needs_ablation,
                            needs_scaleout=needs_scaleout,
                            description=description)
    return ARTIFACT_REGISTRY.decorator(name, replace=replace, wrap=wrap)


def unregister_artifact(name: str) -> ArtifactSpec:
    """Remove an artifact (mainly for tests of plug-in artifacts)."""
    return ARTIFACT_REGISTRY.unregister(name)


def artifact_names() -> Tuple[str, ...]:
    """Registered artifact names, built-ins first."""
    return ARTIFACT_REGISTRY.names()


def subset_choices() -> Tuple[str, ...]:
    """Valid ``repro reproduce --subset`` values (``all`` + the registry)."""
    return ("all",) + artifact_names()


register_artifact("table1", needs_paper=True,
                  description="kernel characteristics + measured cycles"
                  )(lambda ctx: [build_table1(ctx.runs)])
register_artifact("fig3a", needs_paper=True,
                  description="SARIS speedup over base"
                  )(lambda ctx: [build_fig3a(ctx.runs)])
register_artifact("fig3b", needs_paper=True,
                  description="FPU utilization and IPC"
                  )(lambda ctx: [build_fig3b(ctx.runs)])
register_artifact("fig4", needs_paper=True,
                  description="power and energy-efficiency gain"
                  )(lambda ctx: [build_fig4(ctx.runs, ctx.machine)])
register_artifact("fig5", needs_paper=True,
                  description="Manticore-256s scaleout estimates"
                  )(lambda ctx: [build_fig5(ctx.runs, ctx.machine)])
register_artifact("scaleout_direct", needs_scaleout=True,
                  description="direct multi-cluster simulation vs "
                              "analytical estimate"
                  )(lambda ctx: [build_scaleout_direct(ctx)])
register_artifact("table2", needs_paper=True,
                  description="best fraction of peak vs prior work"
                  )(lambda ctx: [build_table2(ctx.runs, ctx.machine)])
register_artifact("listing1",
                  description="static point-loop instruction mix"
                  )(lambda ctx: [build_listing1(ctx.machine)])
register_artifact("ablations", needs_paper=True, needs_ablation=True,
                  description="FREP / block size / SR2 / balance ablations"
                  )(lambda ctx: build_ablations(ctx.ablations, ctx.runs))


def reproduce(subset: str = "all", workers: Optional[int] = None,
              use_cache: bool = True, cache_dir: Optional[str] = None,
              progress: Optional[ProgressFn] = None,
              machine: MachineLike = None, on_error: str = "raise",
              timeout: Optional[float] = None,
              retries: Optional[int] = None) -> Dict[str, object]:
    """Regenerate the requested paper artifacts in one sweep pass.

    Every simulation the selected artifacts need is collected into a single
    deduplicated job list, fanned out through the sweep engine (consulting
    the persistent result store unless ``use_cache`` is false), and the
    artifact tables are then assembled from the results.  ``machine`` runs
    the whole pipeline on a non-default machine preset (the paper-reference
    columns then compare against the eight-core paper numbers).

    ``on_error="collect"`` keeps the pipeline alive across job failures:
    failures are returned under ``"failures"`` in the report, and artifacts
    whose required results went missing are replaced by an explanatory
    placeholder table.  ``timeout`` (per-job seconds) and ``retries``
    (maximum attempts per job) tune the supervision policy (see
    :mod:`repro.sweep.supervisor`).  Since every finished job lands in the
    store immediately, re-running after a crash or interrupt only executes
    the missing jobs (``repro reproduce --resume``).
    """
    choices = subset_choices()
    if subset not in choices:
        raise ValueError(f"unknown subset {subset!r}; expected one of "
                         f"{choices}")
    machine_spec = resolve_machine(machine) if machine is not None else None
    selected = list(artifact_names()) if subset == "all" else [subset]
    specs = [ARTIFACT_REGISTRY.get(name) for name in selected]
    store = ResultStore(cache_dir) if use_cache else None

    retry = None
    if retries is not None:
        retry = replace(RetryPolicy.resolve(None, timeout),
                        max_attempts=int(retries))

    paper = (paper_jobs(machine_spec)
             if any(spec.needs_paper for spec in specs) else [])
    ablations = (ablation_jobs(machine_spec)
                 if any(spec.needs_ablation for spec in specs) else {})
    scaleout = (direct_scaleout_jobs(TABLE1_KERNELS,
                                     _direct_machine(machine_spec))
                if any(spec.needs_scaleout for spec in specs) else [])
    jobs = [*paper, *ablations.values(), *scaleout]

    report: Optional[SweepReport] = None
    context = ArtifactContext(machine=machine_spec, on_error=on_error)
    missing: Dict[str, List[str]] = {}
    if jobs:
        report = run_sweep(jobs, workers=workers, store=store,
                           progress=progress, on_error=on_error,
                           retry=retry, timeout=timeout)
        context.failures = report.failures
        results = report.results
        paper_results = results[:len(paper)]
        ablation_results = results[len(paper):len(paper) + len(ablations)]
        scaleout_results = results[len(paper) + len(ablations):]
        for kind, group, group_results in (
                ("paper", paper, paper_results),
                ("ablation", list(ablations.values()), ablation_results),
                ("scaleout", scaleout, scaleout_results)):
            missing[kind] = [job.label for job, result
                             in zip(group, group_results) if result is None]
        if paper and not missing["paper"]:
            context.runs = pair_up(paper_results)
        if ablations and not missing["ablation"]:
            context.ablations = dict(zip(ablations, ablation_results))
        if scaleout and not missing["scaleout"]:
            context.scaleout = scaleout_results

    artifacts: List[Dict[str, object]] = []
    for spec in specs:
        skip_reason = next(
            (f"missing {kind} sweep results: " + ", ".join(missing[kind])
             for kind, needed in (("paper", spec.needs_paper),
                                  ("ablation", spec.needs_ablation),
                                  ("scaleout", spec.needs_scaleout))
             if needed and missing.get(kind)), None)
        if skip_reason:
            artifacts.append({
                "title": f"{spec.name} [skipped]",
                "columns": ["status"],
                "rows": [[f"skipped: {skip_reason} — re-run with --resume "
                          f"once the failures are fixed"]],
                "data": {"skipped": skip_reason},
            })
            continue
        artifacts.extend(spec.build(context))

    return {
        "subset": subset,
        "machine": machine_spec.name if machine_spec is not None else None,
        "engine_version": ENGINE_VERSION,
        "cpu_count": os.cpu_count(),
        "sweep": report.stats() if report is not None else None,
        "failures": [failure.to_dict() for failure in report.failures]
                    if report is not None else [],
        "artifacts": [
            {"title": art["title"], "columns": art["columns"],
             "rows": [[_plain(cell) for cell in row] for row in art["rows"]]}
            for art in artifacts
        ],
    }


def _plain(cell):
    """Coerce a table cell into a JSON-friendly scalar."""
    if isinstance(cell, (str, int, float, bool)) or cell is None:
        return cell
    return str(cell)


def render_report(report: Dict[str, object]) -> str:
    """Human-readable consolidated report (all tables plus sweep stats)."""
    lines = []
    machine = report.get("machine")
    if machine:
        lines.append(f"machine: {machine}")
    sweep = report.get("sweep")
    if sweep:
        lines.append(
            f"sweep: {sweep['jobs']} jobs, {sweep['executed']} executed, "
            f"{sweep['cache_hits']} cache hits, {sweep['workers']} worker(s), "
            f"{sweep['wall_seconds']:.2f} s wall"
            + (f" (store: {sweep['store']})" if sweep.get("store") else ""))
        extras = []
        for key in ("retries", "pool_restarts", "timeouts", "quarantined"):
            if sweep.get(key):
                extras.append(f"{key}: {sweep[key]}")
        if sweep.get("degraded"):
            extras.append("degraded to python engine: "
                          + ", ".join(sweep["degraded"]))
        if extras:
            lines.append("supervision: " + "; ".join(extras))
        lines.append("")
    failures = report.get("failures") or []
    if failures:
        lines.append(f"FAILED jobs ({len(failures)}):")
        for failure in failures:
            lines.append(
                f"  {failure['label']}: [{failure['kind']}] "
                f"{failure['error_type']}: {failure['message']} "
                f"(attempts: {failure['attempts']}, engine: "
                f"{failure['engine']})")
        lines.append("")
    for artifact in report["artifacts"]:
        lines.append(format_table(artifact["columns"], artifact["rows"],
                                  title=artifact["title"]))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
