"""Native symmetry-folded engine: bit-identity with the Python reference.

The golden-cycle suite already pins the default engine (native, when a C
compiler is available) against recorded numbers; these tests additionally
diff the *full observable state* (the fuzz harness's ``snapshot``:
registers, memory, stall attribution, stream statistics, icache and DMA
bookkeeping) between the two engines on the same workloads, and exercise
the fallback / error paths.
"""

import numpy as np
import pytest

from repro.core.kernels import TABLE1_KERNELS, get_kernel
from repro.core.layout import build_layout
from repro.fuzz.harness import snapshot
from repro.isa.assembler import assemble
from repro.machine import resolve_machine
from repro.runner import _generate_programs_cached, generate_programs, run_kernel
from repro.snitch import native
from repro.snitch.cluster import ClusterError, SnitchCluster
from repro.snitch.core import SnitchCore
from repro.snitch.params import TimingParams

pytestmark = pytest.mark.skipif(
    not native.available(),
    reason=f"native engine unavailable: {native.disabled_reason()}")


def _run_both(source_per_core, setup=None, params=None, max_cycles=100_000):
    """Run the same program(s) under both engines; return both states."""
    states = []
    for force_python in (False, True):
        cluster = SnitchCluster(params or TimingParams())
        programs = [assemble(src, name=f"p{i}")
                    for i, src in enumerate(source_per_core)]
        cluster.load_programs(programs)
        if setup:
            setup(cluster)
        if force_python:
            with native.forced_python():
                cluster.run(max_cycles=max_cycles)
        else:
            cluster.run(max_cycles=max_cycles)
        states.append(snapshot(cluster))
    return states


class TestCrossEngineIdentity:
    @pytest.mark.parametrize("kernel,variant", [
        ("jacobi_2d", "saris"), ("jacobi_2d", "base"),
        ("ac_iso_cd", "saris"), ("box3d1r", "base"),
    ])
    def test_kernel_metrics_identical(self, kernel, variant):
        tile = {"jacobi_2d": (12, 12), "ac_iso_cd": (12, 12, 12),
                "box3d1r": (8, 8, 8)}[kernel]
        native_result = run_kernel(kernel, variant=variant, tile_shape=tile)
        with native.forced_python():
            python_result = run_kernel(kernel, variant=variant,
                                       tile_shape=tile)
        assert native_result.cycles == python_result.cycles
        assert native_result.total_flops == python_result.total_flops
        assert native_result.fpu_util == python_result.fpu_util
        assert native_result.ipc == python_result.ipc
        assert native_result.tcdm_conflict_rate == \
            python_result.tcdm_conflict_rate
        assert native_result.activity == python_result.activity
        native_cores = [c.__dict__ for c in native_result.cluster.cores]
        python_cores = [c.__dict__ for c in python_result.cluster.cores]
        assert native_cores == python_cores

    def test_integer_torture_program_identical(self):
        source = """
            csrr a0, mhartid
            li   t0, -7
            li   t1, 3
            div  t2, t0, t1
            rem  t3, t0, t1
            mulh t4, t0, t0
            slli t5, t1, 4
            sw   t2, 0(a1)
            lw   t6, 0(a1)
            addi a0, a0, 1
        loop:
            addi a0, a0, -1
            bne  a0, zero, loop
            jal  ra, done
            nop
        done:
            sltu s2, t0, t1
        """
        def setup(cluster):
            for core in cluster.cores:
                core.set_reg("a1", cluster.tcdm.base + 8 * core.hart_id)
        got, expected = _run_both([source] * 4, setup=setup)
        assert got == expected

    def test_fp_and_frep_program_identical(self):
        source = """
            li t0, 5
            fld ft3, 0(a1)
            fld ft4, 8(a1)
            frep.o t0, 3
            fmadd.d ft5, ft3, ft4, ft5
            fmax.d ft6, ft5, ft4
            fsgnjn.d ft7, ft6, ft3
            fsd ft5, 16(a1)
            fsd ft7, 24(a1)
            fcvt.d.w ft8, t0
            fsd ft8, 32(a1)
        """
        def setup(cluster):
            cluster.tcdm.write_f64(cluster.tcdm.base, -1.5)
            cluster.tcdm.write_f64(cluster.tcdm.base + 8, 0.25)
            for core in cluster.cores:
                core.set_reg("a1", cluster.tcdm.base)
        got, expected = _run_both([source] * 2, setup=setup)
        assert got == expected

    def test_ssr_stream_program_identical(self):
        # Affine read stream through DM2 feeding an FREP accumulation.
        source = """
            li t0, 16
            li t1, 8
            ssr.cfg.dims 2, 1
            ssr.cfg.bound 2, 0, t0
            ssr.cfg.stride 2, 0, t1
            ssr.cfg.base 2, a1
            ssr.cfg.write 2, 0
            ssr.enable
            ssr.start 2
            frep.o t0, 1
            fadd.d ft4, ft4, ft2
            ssr.barrier
            ssr.disable
            fsd ft4, 256(a1)
        """
        def setup(cluster):
            data = np.arange(16, dtype=np.float64)
            cluster.tcdm.write_f64_array(cluster.tcdm.base, data)
            for core in cluster.cores:
                core.set_reg("a1", cluster.tcdm.base)
        got, expected = _run_both([source] * 3, setup=setup)
        assert got == expected

    def test_machine_presets_identical(self):
        # snitch-8-wide's 64 banks put bank 63 on the busy mask's top bit.
        for machine in ("snitch-4", "snitch-16", "snitch-8-wide"):
            native_result = run_kernel("jacobi_2d", variant="saris",
                                       tile_shape=(12, 12), machine=machine)
            with native.forced_python():
                python_result = run_kernel("jacobi_2d", variant="saris",
                                           tile_shape=(12, 12),
                                           machine=machine)
            assert native_result.cycles == python_result.cycles
            assert native_result.activity == python_result.activity


class TestDmaNative:
    """The ABI-2 DMA port: queued transfers keep the fold, bit-identically."""

    COUNT_SRC = """
        li x5, 0
        li x6, 80
    loop:
        addi x5, x5, 1
        blt x5, x6, loop
    """

    @staticmethod
    def _dma_state(cluster):
        dma = cluster.dma
        return (cluster.cycle, dma.bytes_moved, dma.busy_cycles,
                dma.transfers_completed, dma._remaining_cycles,
                len(dma._queue), bytes(cluster.tcdm._data),
                bytes(cluster.main_memory._data))

    def _run_both(self, setup, max_cycles=100_000, wait_for_dma=True):
        from repro.snitch.dma import DmaTransfer  # noqa: F401 (setup helper)

        states = []
        for force_python in (False, True):
            cluster = SnitchCluster(TimingParams())
            cluster.load_programs([assemble(self.COUNT_SRC, name="p0")])
            setup(cluster)
            if force_python:
                with native.forced_python():
                    cluster.run(max_cycles=max_cycles,
                                wait_for_dma=wait_for_dma)
            else:
                before = dict(native.run_stats)
                cluster.run(max_cycles=max_cycles, wait_for_dma=wait_for_dma)
                assert native.run_stats["native"] == before["native"] + 1, \
                    "queued DMA work must keep the native fold"
            states.append(self._dma_state(cluster))
        return states

    def test_strided_transfers_bit_identical(self):
        from repro.snitch.dma import DmaTransfer

        def setup(cluster):
            base = cluster.alloc_f64(1024)
            cluster.tcdm.write_f64_array(
                base, np.arange(1024, dtype=np.float64))
            main = cluster.alloc_main(16384)
            cluster.dma.enqueue(DmaTransfer(
                src=base, dst=main, inner_bytes=256, outer_reps=8,
                src_stride=512, dst_stride=256))
            cluster.dma.enqueue(DmaTransfer(
                src=main, dst=base + 4096, inner_bytes=2048))
            cluster.dma.enqueue(DmaTransfer(
                src=base, dst=base + 2048, inner_bytes=64, outer_reps=4,
                src_stride=128, dst_stride=64, plane_reps=2,
                src_plane_stride=512, dst_plane_stride=256))

        native_state, python_state = self._run_both(setup)
        assert native_state == python_state

    def test_dma_outlasting_cores_drains_identically(self):
        from repro.snitch.dma import DmaTransfer

        def setup(cluster):
            main = cluster.alloc_main(1 << 20)
            base = cluster.alloc_f64(4096)
            # Far more DMA work than the 80-iteration loop: the engine
            # drains after every core has finished (wait_for_dma).
            for row in range(16):
                cluster.dma.enqueue(DmaTransfer(
                    src=base, dst=main + row * 32768, inner_bytes=32768))

        native_state, python_state = self._run_both(setup)
        assert native_state == python_state
        assert native_state[3] == 16  # all transfers completed

    def test_no_wait_leaves_queue_identically(self):
        from repro.snitch.dma import DmaTransfer

        def setup(cluster):
            main = cluster.alloc_main(1 << 20)
            base = cluster.alloc_f64(4096)
            for row in range(16):
                cluster.dma.enqueue(DmaTransfer(
                    src=base, dst=main + row * 32768, inner_bytes=32768))

        native_state, python_state = self._run_both(setup, wait_for_dma=False)
        assert native_state == python_state
        assert native_state[5] > 0  # transfers still queued on exit

    def test_out_of_region_transfer_falls_back(self):
        from repro.snitch.dma import DmaError, DmaTransfer

        cluster = SnitchCluster(TimingParams())
        cluster.load_programs([assemble(self.COUNT_SRC)])
        cluster.dma.enqueue(DmaTransfer(src=0x100, dst=0x200, inner_bytes=8))
        assert not native._dma_eligible(cluster)
        with pytest.raises(DmaError):
            cluster.run()


class TestNativeBehaviour:
    def test_deadlock_raises_cluster_error(self):
        cluster = SnitchCluster()
        cluster.load_programs([assemble("loop:\n  j loop\n")])
        with pytest.raises(ClusterError):
            cluster.run(max_cycles=200)

    @pytest.mark.parametrize("penalty", [12, 19, 21, 50])
    def test_budget_overrun_leaves_identical_state(self, penalty):
        # Both cores stall on their first icache miss.  A penalty that
        # reaches past the 20-cycle budget must not let the Python engine's
        # fast-forward execute the wake cycle before the budget check.
        params = TimingParams(num_cores=2, icache_miss_penalty=penalty)
        states = []
        for force_python in (False, True):
            cluster = SnitchCluster(params)
            cluster.load_programs([assemble("loop:\n  addi t0, t0, 1\n"
                                            "  j loop\n", name=f"p{i}")
                                   for i in range(2)])
            native_runs = native.run_stats["native"]
            with pytest.raises(ClusterError, match="exceeded 20 cycles"):
                if force_python:
                    with native.forced_python():
                        cluster.run(max_cycles=20)
                else:
                    cluster.run(max_cycles=20)
            assert native.run_stats["native"] == native_runs + (not force_python)
            states.append(snapshot(cluster))
        assert states[1] == states[0]
        assert states[0]["cycle"] == 21
        if penalty >= 21:
            for hart in (0, 1):
                assert states[0][f"core{hart}"]["int_retired"] == 0
                assert states[0][f"core{hart}"]["fpu"]["idle_empty"] == 21

    def test_icache_pressure_falls_back_to_python(self, monkeypatch):
        # A cluster whose programs cannot all stay resident needs the LRU
        # model, which only the Python engine implements.
        params = TimingParams(icache_lines=2, icache_line_insts=4)
        cluster = SnitchCluster(params)
        body = "\n".join("addi t0, t0, 1" for _ in range(40))
        cluster.load_programs([assemble(body)])
        calls = {"native": 0}
        real_execute = native.execute

        def counting_execute(*args, **kwargs):
            result = real_execute(*args, **kwargs)
            calls["native"] += 1 if result is not None else 0
            return result

        monkeypatch.setattr(native, "execute", counting_execute)
        monkeypatch.setattr("repro.snitch.cluster._native.execute",
                            counting_execute)
        result = cluster.run()
        assert calls["native"] == 0  # fell back
        assert cluster.cores[0].int_regs.read(5) == 40
        assert result.icache_misses > 2

    def test_forced_python_context(self):
        with native.forced_python():
            cluster = SnitchCluster()
            cluster.load_programs([assemble("li t0, 1")])
            assert native.execute(cluster, 100) is None
        # outside the context the same cluster is eligible again
        cluster2 = SnitchCluster()
        cluster2.load_programs([assemble("li t0, 1")])
        assert native.execute(cluster2, 100) is not None

    def test_decode_rejects_oversized_frep(self):
        params = TimingParams(frep_max_insts=2)
        body = "fadd.d ft3, ft3, ft4\n" * 3
        program = assemble(f"li t0, 3\nfrep.o t0, 3\n{body}")
        assert native.decode_program(program, params) is None

    def test_decode_cache_keys_on_fpu_latencies(self):
        # The decoded table bakes FPU latencies in; one Program object
        # simulated under different TimingParams must decode per config.
        program = assemble("fadd.d ft3, ft4, ft5\nfld ft6, 0(a1)")
        fast = native.decode_program(program, TimingParams(fpu_latency=2))
        slow = native.decode_program(program, TimingParams(fpu_latency=9))
        assert fast[0][9] == 2 and slow[0][9] == 9
        results = []
        for latency in (2, 9):
            params = TimingParams(fpu_latency=latency)
            source = "\n".join(["fmadd.d fa0, fa1, fa2, fa0"] * 6)
            cluster = SnitchCluster(params)
            prog = assemble(source)
            cluster.load_programs([prog])
            native_cycles = cluster.run().cycles
            cluster = SnitchCluster(params)
            cluster.load_programs([prog])  # SAME Program object, new params
            with native.forced_python():
                python_cycles = cluster.run().cycles
            assert native_cycles == python_cycles
            results.append(native_cycles)
        assert results[1] > results[0]  # the RAW chain feels the latency

    def test_registers_and_memory_after_native_run(self):
        # The canonical seed test path, now through the native engine.
        cluster = SnitchCluster()
        program = assemble("""
            li   t0, 21
            li   t1, 2
            mul  t2, t0, t1
            sw   t2, 0(a1)
        """)
        cluster.load_programs([program])
        cluster.cores[0].set_reg("a1", cluster.tcdm.base)
        cluster.run()
        assert cluster.tcdm.read_i32(cluster.tcdm.base) == 42
        assert cluster.cores[0].int_regs.read(7) == 42


def _kernel_cluster(name, variant, shape):
    """A cluster loaded with one kernel's programs and input grids; its
    cores are never built."""
    kernel = get_kernel(name)
    cluster = SnitchCluster(TimingParams())
    layout = build_layout(kernel, cluster.allocator, shape)
    generated = generate_programs(kernel, layout, cluster, variant)
    grids = kernel.make_grids(shape, seed=0)
    for array in kernel.arrays:
        cluster.write_grid(layout.arrays[array], grids[array])
    cluster.tcdm.write_f64_array(layout.coeff_table,
                                 layout.coeff_table_values())
    for gen in generated:
        for addr, values in gen.data:
            if len(values):
                cluster.tcdm.write_bytes(addr, np.asarray(values).tobytes())
    cluster.load_programs([gen.program for gen in generated])
    return cluster


class TestUntouchedCores:
    """A native run on cores that were never built keeps their state in the
    engine's records: no Python core is built unless ``cluster.cores`` is
    read, and reading it shows what the Python engine leaves."""

    @pytest.mark.parametrize("kernel,variant,tile", [
        ("jacobi_2d", "saris", (12, 12)), ("j3d27pt", "base", (8, 8, 8)),
    ])
    def test_warm_run_builds_no_python_cores(self, monkeypatch, kernel,
                                             variant, tile):
        run_kernel(kernel, variant=variant, tile_shape=tile)  # warm up
        counts = {"cores": 0, "unpacked": 0}
        real_init, real_unpack = SnitchCore.__init__, native._unpack_core

        def counting_init(self, *args, **kwargs):
            counts["cores"] += 1
            real_init(self, *args, **kwargs)

        def counting_unpack(*args):
            counts["unpacked"] += 1
            real_unpack(*args)

        monkeypatch.setattr(SnitchCore, "__init__", counting_init)
        monkeypatch.setattr(native, "_unpack_core", counting_unpack)
        result = run_kernel(kernel, variant=variant, tile_shape=tile, seed=1)
        assert counts == {"cores": 0, "unpacked": 0}
        assert result.engine == "native"
        with native.forced_python():
            expected = run_kernel(kernel, variant=variant, tile_shape=tile,
                                  seed=1)
        assert result.metrics_hash() == expected.metrics_hash()
        assert result.cluster.cores == expected.cluster.cores

    @pytest.mark.parametrize("kernel,variant,tile", [
        ("jacobi_2d", "saris", (12, 12)), ("box3d1r", "base", (8, 8, 8)),
    ])
    @pytest.mark.parametrize("max_cycles", [5_000_000, 400])
    def test_cores_read_after_the_run_match_python(self, kernel, variant,
                                                   tile, max_cycles):
        # 400 cycles stops both kernels mid-run, streams and offload
        # queues in flight.
        states = []
        for force_python in (False, True):
            cluster = _kernel_cluster(kernel, variant, tile)
            try:
                if force_python:
                    with native.forced_python():
                        cluster.run(max_cycles=max_cycles)
                else:
                    cluster.run(max_cycles=max_cycles)
                    assert cluster._cores is None
            except ClusterError:
                assert max_cycles == 400
            assert cluster.engine == ("python" if force_python else "native")
            states.append(snapshot(cluster))
        assert states[0] == states[1]

    def test_template_records_match_pack_core(self):
        # The template path sets five fields per record and copies the
        # rest; every other field must be what _pack_core makes of a fresh
        # core, on every Table-1 program set.
        layout, _ = native._load_engine()
        pointers = [getattr(layout.NatCore, field)
                    for field in ("prog", "resident", "line_present")]

        def without_pointers(record):
            data = bytearray(bytes(record))
            for field in pointers:
                data[field.offset:field.offset + field.size] = \
                    bytes(field.size)
            return bytes(data)

        params = TimingParams()
        machine = resolve_machine(None)
        line_insts = params.icache_line_insts
        for name in TABLE1_KERNELS:
            kernel = get_kernel(name)
            for variant in ("base", "saris"):
                cluster = SnitchCluster(params)
                _, generated = _generate_programs_cached(
                    kernel, cluster, variant, kernel.default_tile, params,
                    machine, {})
                cluster.load_programs([gen.program for gen in generated])
                lines = cluster.icache._lines
                records, _ = native._pack_fresh(layout, cluster, line_insts,
                                                lines)
                for core, record in zip(cluster.cores, records):
                    packed = layout.NatCore()
                    native._pack_core(packed, core, line_insts, lines)
                    assert without_pointers(record) == \
                        without_pointers(packed), (name, variant,
                                                   core.hart_id)
