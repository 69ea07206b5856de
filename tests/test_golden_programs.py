"""Golden digests of every generated program set.

``golden_programs.json`` holds one digest per program set, covering each
core's assembly source, assembled instructions, ``info`` dictionary and
static data arrays (index arrays, streamed coefficient tables).  It covers
every set ``repro reproduce --subset all`` compiles — the Table-1 pairs, the
ablation variants and the two Listing-1 loops — plus the Table-1 pairs on
three more machine presets.  The cycle goldens cannot see an ``info`` or
index-array change that leaves the cycle counts unchanged; these digests
can.

Re-record only for an intended change to the generated code::

    PYTHONPATH=src python tests/test_golden_programs.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

GOLDEN_PATH = Path(__file__).parent / "golden_programs.json"

#: Machines whose Table-1 program sets are pinned besides the default one.
EXTRA_MACHINES = ("snitch-4", "snitch-16", "snitch-8-wide")


def _compile_job(job) -> Callable[[], list]:
    """Thunk compiling one sweep job's program set, bypassing every cache."""
    def compile_set():
        from repro.core.kernels import get_kernel
        from repro.core.layout import build_layout
        from repro.machine import resolve_machine
        from repro.runner import generate_programs
        from repro.snitch.cluster import SnitchCluster

        kernel = get_kernel(job.kernel)
        machine = resolve_machine(job.machine)
        cluster = SnitchCluster(machine.timing_params())
        layout = build_layout(kernel, cluster.allocator,
                              job.tile_shape or kernel.default_tile)
        return generate_programs(kernel, layout, cluster, job.variant,
                                 machine=machine, **dict(job.codegen_kwargs))
    return compile_set


def _compile_listing1(variant: str, **kwargs) -> Callable[[], list]:
    """Thunk compiling a Listing-1 loop: core 0 only, called directly."""
    def compile_set():
        from repro.core.kernels import get_kernel
        from repro.core.layout import build_layout
        from repro.core.parallel import cluster_geometry
        from repro.core.variants import get_variant
        from repro.snitch.cluster import SnitchCluster

        kernel = get_kernel("star3d7pt")
        cluster = SnitchCluster()
        layout = build_layout(kernel, cluster.allocator)
        geometry = cluster_geometry(kernel, layout.tile_shape,
                                    num_cores=cluster.params.num_cores)[0]
        return [get_variant(variant).generate(kernel, layout, geometry,
                                              cluster, **kwargs)]
    return compile_set


def program_sets() -> Dict[str, Callable[[], list]]:
    """Every golden program set: name -> thunk returning its programs."""
    from repro.sweep.artifacts import ablation_jobs, paper_jobs

    jobs = paper_jobs() + list(ablation_jobs().values())
    for machine in EXTRA_MACHINES:
        jobs += paper_jobs(machine)
    sets: Dict[str, Callable[[], list]] = {}
    for job in jobs:
        name = (f"{job.machine.name if job.machine else 'snitch-8'}:"
                f"{job.kernel}/{job.variant}")
        if job.codegen_kwargs:
            name += "?" + ",".join(f"{key}={value!r}"
                                   for key, value in job.codegen_kwargs)
        sets.setdefault(name, _compile_job(job))
    sets["listing1:star3d7pt/base"] = _compile_listing1("base", max_unroll=1)
    sets["listing1:star3d7pt/saris"] = _compile_listing1(
        "saris", max_block=1, max_body_unroll=1)
    return sets


def set_digest(generated: List) -> str:
    """Digest of one program set: every core's source, instructions, labels,
    ``info`` and data arrays, in core order."""
    from repro.isa.instruction import Instruction

    instruction_fields = attrgetter(*(f.name for f in fields(Instruction)))
    digest = hashlib.sha256()
    for gen in generated:
        program = gen.program
        digest.update(gen.source.encode())
        digest.update(repr((program.name, sorted(program.labels.items()),
                            [instruction_fields(inst)
                             for inst in program.instructions])).encode())
        digest.update(json.dumps(gen.info, sort_keys=True,
                                 default=lambda value: value.item()).encode())
        for addr, values in gen.data:
            array = np.asarray(values)
            digest.update(f"{addr}:{array.dtype.str}:{array.shape}".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()[:32]


def compute_digests() -> Dict[str, str]:
    return {name: set_digest(thunk())
            for name, thunk in sorted(program_sets().items())}


def test_golden_file_covers_every_set():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(program_sets())
    # 26 reproduce sets + 3 machines x 20 Table-1 sets + 2 Listing-1 loops.
    assert len(golden) == 88


def test_generated_programs_match_goldens():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = compute_digests()
    drifted = sorted(name for name in golden if got.get(name) != golden[name])
    assert not drifted, f"generated programs drifted: {drifted}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=1,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
