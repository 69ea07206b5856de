"""Tests for the expression IR, kernel specifications and NumPy reference."""

import numpy as np
import pytest

from repro.core.ir import (
    BinOp,
    Coeff,
    Const,
    GridRef,
    add,
    arrays_read,
    coeff_names,
    count_flops,
    count_loads,
    grid_refs,
    max_offset_radius,
    mul,
    sub,
    substitute_coeffs,
)
from repro.core.kernels import (
    KERNEL_NAMES,
    TABLE1_EXPECTED,
    TABLE1_KERNELS,
    all_kernels,
    box_offsets,
    get_kernel,
    kernel_fingerprint,
    register_kernel,
    registered_kernel,
    star_offsets,
    table1_kernels,
    unregister_kernel,
)
from repro.core.reference import reference_sweep, reference_time_step
from repro.core.stencil import KernelError, StencilKernel
from tests.conftest import small_tile


class TestExpressionIr:
    def test_operator_overloads_build_binops(self):
        a, b = GridRef("inp", (0, 0)), Coeff("c0")
        expr = a * b + 2.0
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.rhs, Const) and expr.rhs.value == 2.0

    def test_add_left_associates(self):
        terms = [Coeff(f"c{i}") for i in range(4)]
        expr = add(*terms)
        assert count_flops(expr) == 3

    def test_counts(self):
        expr = add(mul(Coeff("a"), GridRef("inp", (0, 1))),
                   mul(Coeff("b"), GridRef("inp", (1, 0))))
        assert count_flops(expr) == 3
        assert count_loads(expr) == 2
        assert coeff_names(expr) == ["a", "b"]
        assert arrays_read(expr) == ["inp"]
        assert max_offset_radius(expr) == 1

    def test_grid_refs_in_order(self):
        expr = add(GridRef("u", (0, 1)), GridRef("v", (1, 0)))
        refs = grid_refs(expr)
        assert [r.array for r in refs] == ["u", "v"]

    def test_substitute_coeffs(self):
        expr = mul(Coeff("a"), GridRef("inp", (0, 0)))
        replaced = substitute_coeffs(expr, {"a": 2.0})
        assert isinstance(replaced.lhs, Const) and replaced.lhs.value == 2.0
        with pytest.raises(KeyError):
            substitute_coeffs(expr, {})

    def test_sub_builds_minus(self):
        expr = sub(GridRef("a", (0,) * 2), GridRef("b", (0,) * 2))
        assert expr.op == "-"

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            BinOp("/", Coeff("a"), Coeff("b"))


class TestStencilOffsets:
    def test_star_offsets_counts(self):
        assert len(star_offsets(2, 1)) == 5
        assert len(star_offsets(2, 3)) == 13
        assert len(star_offsets(3, 2)) == 13
        assert len(star_offsets(3, 4)) == 25

    def test_box_offsets_counts(self):
        assert len(box_offsets(2, 1)) == 9
        assert len(box_offsets(3, 1)) == 27

    def test_star_offsets_are_unique_and_centered(self):
        offsets = star_offsets(3, 2)
        assert len(set(offsets)) == len(offsets)
        assert (0, 0, 0) in offsets


class TestKernelRegistry:
    def test_registry_contains_table1_plus_example(self):
        assert set(TABLE1_KERNELS) <= set(KERNEL_NAMES)
        assert "star3d7pt" in KERNEL_NAMES
        assert len(all_kernels()) == len(KERNEL_NAMES)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            get_kernel("not_a_kernel")

    def test_table1_order_matches_paper(self):
        assert TABLE1_KERNELS[0] == "jacobi_2d"
        assert TABLE1_KERNELS[-1] == "j3d27pt"
        flops = [get_kernel(name).flops_per_point for name in TABLE1_KERNELS]
        assert flops == sorted(flops)

    @pytest.mark.parametrize("name", sorted(TABLE1_EXPECTED))
    def test_table1_characteristics(self, name):
        kernel = get_kernel(name)
        expected = TABLE1_EXPECTED[name]
        assert kernel.dims == expected["dims"]
        assert kernel.radius == expected["radius"]
        assert kernel.loads_per_point == expected["loads"]
        assert kernel.coeffs_per_point == expected["coeffs"]
        assert kernel.flops_per_point == expected["flops"]

    def test_default_tiles_match_paper(self, table1_kernel):
        if table1_kernel.dims == 2:
            assert table1_kernel.default_tile == (64, 64)
        else:
            assert table1_kernel.default_tile == (16, 16, 16)

    def test_characteristics_dict(self):
        row = get_kernel("jacobi_2d").characteristics()
        assert row["code"] == "jacobi_2d" and row["flops"] == 5


class TestRegisteredKernelMemo:
    """``run_kernel(name)`` builds the named kernel once per registration."""

    def test_one_instance_per_registration(self):
        from repro.runner import _resolve_kernel

        memo = _resolve_kernel("jacobi_2d")
        assert _resolve_kernel("jacobi_2d") is memo
        assert registered_kernel("jacobi_2d") is memo
        first, second = get_kernel("jacobi_2d"), get_kernel("jacobi_2d")
        assert first is not second
        assert memo is not first and memo is not second
        assert first == second == memo

    def test_reregistration_reaches_run_kernel(self):
        from repro.runner import run_kernel

        def register(expr, coefficients):
            @register_kernel("test_memo_2d", replace=True)
            def build():
                return StencilKernel(name="test_memo_2d", dims=2, radius=1,
                                     inputs=["inp"], output="out", expr=expr,
                                     coefficients=coefficients)

        west, east = GridRef("inp", (0, -1)), GridRef("inp", (0, 1))
        register(mul(Coeff("c"), add(west, east)), {"c": 0.25})
        try:
            first = run_kernel("test_memo_2d", "saris", tile_shape=(10, 10))
            old = registered_kernel("test_memo_2d")
            register(add(mul(Coeff("cw"), west), mul(Coeff("ce"), east)),
                     {"cw": 0.25, "ce": 0.75})
            new = registered_kernel("test_memo_2d")
            assert new.coefficients == {"cw": 0.25, "ce": 0.75}
            assert kernel_fingerprint(new) != kernel_fingerprint(old)
            second = run_kernel("test_memo_2d", "saris", tile_shape=(10, 10))
            assert second.correct
            assert second.metrics_hash() != first.metrics_hash()
        finally:
            unregister_kernel("test_memo_2d")
        with pytest.raises(KeyError):
            run_kernel("test_memo_2d", "saris", tile_shape=(10, 10))

    def test_runs_leave_the_memoized_kernel_unchanged(self):
        from repro.runner import run_kernel

        for variant in ("base", "saris"):
            run_kernel("j2d5pt", variant, tile_shape=small_tile("j2d5pt"))
        assert registered_kernel("j2d5pt") == get_kernel("j2d5pt")


class TestKernelValidation:
    def test_offset_rank_mismatch_rejected(self):
        with pytest.raises(KernelError):
            StencilKernel(name="bad", dims=3, radius=1, inputs=["inp"],
                          output="out", expr=GridRef("inp", (0, 0)) * Coeff("c"),
                          coefficients={"c": 1.0})

    def test_offset_beyond_radius_rejected(self):
        with pytest.raises(KernelError):
            StencilKernel(name="bad", dims=2, radius=1, inputs=["inp"],
                          output="out",
                          expr=mul(Coeff("c"), GridRef("inp", (0, 2))),
                          coefficients={"c": 1.0})

    def test_missing_coefficient_rejected(self):
        with pytest.raises(KernelError):
            StencilKernel(name="bad", dims=2, radius=1, inputs=["inp"],
                          output="out",
                          expr=mul(Coeff("c"), GridRef("inp", (0, 1))),
                          coefficients={})

    def test_undeclared_array_rejected(self):
        with pytest.raises(KernelError):
            StencilKernel(name="bad", dims=2, radius=1, inputs=["inp"],
                          output="out",
                          expr=mul(Coeff("c"), GridRef("other", (0, 1))),
                          coefficients={"c": 1.0})

    def test_output_aliasing_input_rejected(self):
        with pytest.raises(KernelError):
            StencilKernel(name="bad", dims=2, radius=1, inputs=["inp"],
                          output="inp",
                          expr=mul(Coeff("c"), GridRef("inp", (0, 1))),
                          coefficients={"c": 1.0})

    def test_tile_too_small_rejected(self):
        kernel = get_kernel("star2d3r")
        with pytest.raises(KernelError):
            kernel.interior_shape((6, 6))


class TestKernelGeometryHelpers:
    def test_interior_points(self, any_kernel):
        shape = small_tile(any_kernel.name)
        interior = any_kernel.interior_shape(shape)
        assert all(n > 0 for n in interior)
        assert any_kernel.interior_points(shape) == int(np.prod(interior))

    def test_flops_per_tile(self):
        kernel = get_kernel("jacobi_2d")
        assert kernel.flops_per_tile((12, 12)) == 100 * 5

    def test_make_grids_shapes_and_determinism(self, any_kernel):
        shape = small_tile(any_kernel.name)
        grids_a = any_kernel.make_grids(shape, seed=3)
        grids_b = any_kernel.make_grids(shape, seed=3)
        assert set(grids_a) == set(any_kernel.arrays)
        for name in any_kernel.inputs:
            assert grids_a[name].shape == tuple(shape)
            assert np.array_equal(grids_a[name], grids_b[name])
        assert np.all(grids_a[any_kernel.output] == 0.0)

    def test_operational_intensity_orders_kernels(self):
        # More FLOPs per point with the same footprint => higher intensity.
        low = get_kernel("jacobi_2d").operational_intensity()
        high = get_kernel("j2d9pt").operational_intensity()
        assert high > low


class TestReferenceEvaluator:
    def test_jacobi_matches_hand_written(self):
        kernel = get_kernel("jacobi_2d")
        grids = kernel.make_grids((10, 10), seed=1)
        out = reference_time_step(kernel, grids)
        inp = grids["inp"]
        manual = grids["out"].copy()
        manual[1:-1, 1:-1] = 0.2 * (
            inp[1:-1, 1:-1] + inp[1:-1, :-2] + inp[1:-1, 2:]
            + inp[:-2, 1:-1] + inp[2:, 1:-1])
        assert np.allclose(out, manual)

    def test_star3d7pt_matches_hand_written(self):
        kernel = get_kernel("star3d7pt")
        grids = kernel.make_grids((8, 8, 8), seed=2)
        out = reference_time_step(kernel, grids)
        u = grids["inp"]
        c = kernel.coefficients
        manual = grids["out"].copy()
        manual[1:-1, 1:-1, 1:-1] = (
            c["c0"] * u[1:-1, 1:-1, 1:-1]
            + c["cx"] * (u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:])
            + c["cy"] * (u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1])
            + c["cz"] * (u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]))
        assert np.allclose(out, manual)

    def test_halo_preserved(self, any_kernel):
        shape = small_tile(any_kernel.name)
        grids = any_kernel.make_grids(shape, seed=0)
        grids[any_kernel.output][:] = 7.0
        out = reference_time_step(any_kernel, grids)
        assert out[tuple(0 for _ in shape)] == 7.0

    def test_coefficient_override(self):
        kernel = get_kernel("jacobi_2d")
        grids = kernel.make_grids((8, 8), seed=0)
        doubled = reference_time_step(kernel, grids, coefficients={"c0": 0.4})
        baseline = reference_time_step(kernel, grids)
        interior = (slice(1, -1), slice(1, -1))
        assert np.allclose(doubled[interior], 2 * baseline[interior])

    def test_missing_input_rejected(self):
        kernel = get_kernel("ac_iso_cd")
        with pytest.raises(KeyError):
            reference_time_step(kernel, {"u": np.zeros((12, 12, 12))})

    def test_sweep_alternates_buffers(self):
        kernel = get_kernel("jacobi_2d")
        grids = kernel.make_grids((10, 10), seed=4)
        one = reference_time_step(kernel, grids)
        two_manual = reference_time_step(kernel, {"inp": one, "out": one})
        two_sweep = reference_sweep(kernel, grids, steps=2)
        assert np.allclose(two_sweep, two_manual)
