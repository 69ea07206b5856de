"""The planning scope that a program set's per-core backend calls share."""

import collections
import copy
import dataclasses
import gc
import tracemalloc

import pytest

from repro.core import codegen_base, codegen_common, codegen_saris
from repro.core.codegen_base import generate_base_program
from repro.core.codegen_common import planning_scope
from repro.core.codegen_saris import generate_saris_program
from repro.core.kernels import get_kernel
from repro.core.layout import build_layout
from repro.core.parallel import cluster_geometry
from repro.isa import assembler
from repro.runner import _CODEGEN_CACHE, generate_programs, run_kernel
from repro.snitch.cluster import SnitchCluster
from tests.conftest import small_tile


def _compile(kernel, variant, tile=None, **kwargs):
    """One program set through the runner's entry point."""
    cluster = SnitchCluster()
    layout = build_layout(kernel, cluster.allocator, tile)
    return generate_programs(kernel, layout, cluster, variant, **kwargs)


def _state(gen):
    """Everything a generated program carries, as comparable values."""
    program = gen.program
    return (gen.source, program.name, sorted(program.labels.items()),
            [dataclasses.astuple(inst) for inst in program.instructions],
            gen.info,
            [(addr, values.dtype.str, values.tobytes())
             for addr, values in gen.data])


def _count_calls(monkeypatch):
    """Count planner calls per key and parser calls per line."""
    calls = collections.Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(kernel, *args):
            calls[(module.__name__, name, args)] += 1
            return real(kernel, *args)
        monkeypatch.setattr(module, name, wrapper)

    for module in (codegen_base, codegen_saris):
        counted(module, "_try_config")
        counted(module, "lower_block")
    real_parse = assembler.parse_instruction

    def parse(line):
        calls[("parse", line)] += 1
        return real_parse(line)
    monkeypatch.setattr(assembler, "parse_instruction", parse)
    return calls


@pytest.mark.parametrize("variant", ["base", "saris"])
def test_each_core_owns_its_info_and_slotted_instructions(variant):
    kernel = get_kernel("jacobi_2d")  # two core shapes on the 64x64 tile
    cluster = SnitchCluster()
    layout = build_layout(kernel, cluster.allocator)
    geometries = cluster_geometry(kernel, layout.tile_shape)
    generated = generate_programs(kernel, layout, cluster, variant)
    expected = [copy.deepcopy(gen.info) for gen in generated]

    # Cores of one shape share every instruction but their slotted `li`s;
    # cores of different shapes share none.
    by_shape = collections.defaultdict(list)
    for geometry, gen in zip(geometries, generated):
        by_shape[geometry.shape].append(gen.program.instructions)
    assert len(by_shape) == 2
    owners = collections.defaultdict(set)
    for shape, programs in by_shape.items():
        for program in programs[1:]:
            own = [a for a, b in zip(programs[0], program) if a is not b]
            assert own and {inst.mnemonic for inst in own} == {"li"}
        for program in programs:
            for inst in program:
                owners[id(inst)].add(shape)
    assert all(len(shapes) == 1 for shapes in owners.values())

    generated[0].info["const_values"]["__mutated"] = 1.0
    if variant == "saris":
        generated[0].info["stream_lengths"][0] = -1
    generated[0].program.instructions[-1].target_idx = -1
    assert [gen.info for gen in generated[1:]] == expected[1:]
    later = _compile(kernel, variant)
    assert [gen.info for gen in later] == expected
    assert later[0].program.instructions[-1].target_idx != -1


@pytest.mark.parametrize("kernel,variant,shapes", [
    ("jacobi_2d", "base", 2),   # 62 interior points a row: 16/16/15/15
    ("j3d27pt", "saris", 2),    # 14 interior points a row: 4/4/3/3
    ("star3d2r", "saris", 1)])  # 12 interior points a row: 3 per lane
def test_one_template_per_core_shape(monkeypatch, kernel, variant, shapes):
    module = codegen_base if variant == "base" else codegen_saris
    emitted = []
    real = module._emit

    def emit(kernel, layout, shape, *args):
        emitted.append(shape)
        return real(kernel, layout, shape, *args)
    monkeypatch.setattr(module, "_emit", emit)
    generated = _compile(get_kernel(kernel), variant)
    assert len(generated) == 8
    assert len(emitted) == len(set(emitted)) == shapes


def test_shared_instructions_simulate_like_copied_ones():
    """Cores of one shape share instruction objects; the Python engine,
    which caches decoded instructions per core, runs them exactly like
    programs that own every instruction."""
    from repro.isa.program import Program
    from repro.snitch import native

    kernel = get_kernel("jacobi_2d")
    tile = (12, 12)  # x lanes of 3, 3, 2 and 2 points: two shapes
    grids = kernel.make_grids(tile, seed=3)
    snapshots = []
    for copied in (False, True):
        cluster = SnitchCluster()
        layout = build_layout(kernel, cluster.allocator, tile)
        generated = generate_programs(kernel, layout, cluster, "saris")
        programs = [gen.program for gen in generated]
        if copied:
            programs = [Program([dataclasses.replace(inst)
                                 for inst in program.instructions],
                                dict(program.labels), program.name)
                        for program in programs]
        for name in kernel.arrays:
            cluster.write_grid(layout.arrays[name], grids[name])
        cluster.tcdm.write_f64_array(layout.coeff_table,
                                     layout.coeff_table_values())
        for gen in generated:
            for addr, values in gen.data:
                cluster.tcdm.write_bytes(addr, values.tobytes())
        cluster.load_programs(programs)
        with native.forced_python():
            result = cluster.run(max_cycles=200_000)
        assert cluster.engine == "python"
        snapshots.append((result.cycles, result.activity(), result.cores,
                          cluster.read_grid(layout.arrays[kernel.output],
                                            tile).tobytes()))
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("variant", ["base", "saris"])
def test_each_distinct_plan_runs_once_per_call(monkeypatch, variant):
    calls = _count_calls(monkeypatch)
    kernel = get_kernel("star3d2r")  # SARIS sizes its FREP body: a probe
    generated = _compile(kernel, variant)
    assert len(generated) == 8
    planners = {key for key in calls if key[0] != "parse"}
    assert {key[1] for key in planners} == {"_try_config", "lower_block"}
    assert set(calls.values()) == {1}

    # Called per core outside a scope, every core plans on its own.
    calls.clear()
    cluster = SnitchCluster()
    layout = build_layout(kernel, cluster.allocator)
    for geometry in cluster_geometry(kernel, layout.tile_shape):
        if variant == "base":
            generate_base_program(kernel, layout, geometry)
        else:
            generate_saris_program(kernel, layout, geometry,
                                   cluster.allocator)
    assert {key for key in calls if key[0] != "parse"} == planners
    assert min(calls[key] for key in planners) > 1


def test_same_name_other_coefficients_is_planned_afresh(monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", "0")
    calls = _count_calls(monkeypatch)
    kernel = get_kernel("box3d1r")  # streams its coefficients through SR2
    tile = small_tile("box3d1r")
    _CODEGEN_CACHE.clear()
    first = run_kernel(kernel, variant="saris", tile_shape=tile)
    assert first.program_info[0]["store_streamed"] is False
    planned_once = sum(n for key, n in calls.items() if key[0] != "parse")

    other = dataclasses.replace(kernel, coefficients={
        name: 2.0 * value + 1.0 for name, value in kernel.coefficients.items()})
    _CODEGEN_CACHE.clear()
    calls.clear()
    second = run_kernel(other, variant="saris", tile_shape=tile)
    assert sum(n for key, n in calls.items()
               if key[0] != "parse") == planned_once
    # run_kernel checks the output against the NumPy reference: programs
    # streaming the old coefficient table would have raised.
    assert second.correct
    _CODEGEN_CACHE.clear()


@pytest.mark.parametrize("variant", ["base", "saris"])
def test_backends_agree_inside_and_outside_a_scope(variant):
    kernel = get_kernel("star2d3r")

    def per_core(scoped):
        cluster = SnitchCluster()
        layout = build_layout(kernel, cluster.allocator)
        geometries = cluster_geometry(kernel, layout.tile_shape)

        def one(geometry):
            if variant == "base":
                return generate_base_program(kernel, layout, geometry)
            return generate_saris_program(
                kernel, layout, geometry, cluster.allocator,
                frep_limit=cluster.params.frep_max_insts)
        if not scoped:
            return [_state(one(geometry)) for geometry in geometries]
        with planning_scope():
            with planning_scope():  # a nested scope joins the outer one
                states = [_state(one(geometry)) for geometry in geometries]
            assert codegen_common._SCOPE.get() is not None
        assert codegen_common._SCOPE.get() is None
        return states

    direct = per_core(scoped=False)
    assert per_core(scoped=True) == direct
    assert [_state(gen) for gen in _compile(kernel, variant)] == direct


def test_nothing_outlives_the_call():
    def compile_sets(*names):
        return [_compile(get_kernel(name), variant)
                for name in names for variant in ("base", "saris")]

    compile_sets("jacobi_2d")  # lazily built module state is not planning
    planning_files = ("*/core/codegen_*.py", "*/core/lowering.py",
                      "*/core/schedule.py", "*/core/regalloc.py",
                      "*/core/saris.py", "*/isa/assembler.py")
    tracemalloc.start(25)
    try:
        generated = compile_sets("j2d9pt", "box3d1r")
        gc.collect()
        live = tracemalloc.take_snapshot()
        del generated
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    def planning_bytes(snapshot):
        filters = [tracemalloc.Filter(True, pattern, all_frames=True)
                   for pattern in planning_files]
        return sum(trace.size
                   for trace in snapshot.filter_traces(filters).traces)

    assert planning_bytes(live) > 200_000
    assert planning_bytes(after) < 16_384
