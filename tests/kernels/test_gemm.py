"""Dense GEMM: numerics, epilogue fusion, cost-model properties."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import ExecutionContext, NullContext
from repro.kernels.activation import gelu_reference
from repro.kernels.gemm import (
    gemm,
    gemm_efficiency,
    gemm_flops,
    gemm_launch,
    select_tile,
)


class TestNumerics:
    def test_matches_numpy(self, rng):
        a = rng.normal(size=(17, 23))
        b = rng.normal(size=(23, 9))
        np.testing.assert_allclose(gemm(a, b), a @ b, rtol=1e-12)

    def test_bias_epilogue(self, rng):
        a = rng.normal(size=(8, 5))
        b = rng.normal(size=(5, 6))
        bias = rng.normal(size=6)
        np.testing.assert_allclose(
            gemm(a, b, bias=bias), a @ b + bias, rtol=1e-12
        )

    def test_gelu_epilogue(self, rng):
        a = rng.normal(size=(8, 5))
        b = rng.normal(size=(5, 6))
        np.testing.assert_allclose(
            gemm(a, b, activation="gelu"), gelu_reference(a @ b), rtol=1e-12
        )

    def test_bias_gelu_epilogue_order(self, rng):
        """GELU is applied after the bias add, as in the CUTLASS epilogue."""
        a = rng.normal(size=(8, 5))
        b = rng.normal(size=(5, 6))
        bias = rng.normal(size=6)
        np.testing.assert_allclose(
            gemm(a, b, bias=bias, activation="gelu"),
            gelu_reference(a @ b + bias),
            rtol=1e-12,
        )

    @given(
        m=st.integers(1, 40), n=st.integers(1, 40), k=st.integers(1, 40)
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_shapes(self, m, n, k):
        rng = np.random.default_rng(m * 1000 + n * 10 + k)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        np.testing.assert_allclose(gemm(a, b), a @ b, rtol=1e-10, atol=1e-12)


class TestValidation:
    def test_inner_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="inner dims"):
            gemm(rng.normal(size=(3, 4)), rng.normal(size=(5, 6)))

    def test_non_2d_rejected(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            gemm(rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 6)))

    def test_bad_bias_shape(self, rng):
        with pytest.raises(ValueError, match="bias shape"):
            gemm(
                rng.normal(size=(3, 4)),
                rng.normal(size=(4, 6)),
                bias=rng.normal(size=5),
            )

    def test_unknown_activation(self, rng):
        with pytest.raises(ValueError, match="activation"):
            gemm(
                rng.normal(size=(3, 4)),
                rng.normal(size=(4, 6)),
                activation="relu",
            )


class TestCostModel:
    def test_records_one_launch(self, rng):
        ctx = ExecutionContext()
        gemm(rng.normal(size=(64, 32)), rng.normal(size=(32, 16)), ctx=ctx)
        assert ctx.kernel_count() == 1

    def test_useful_flops_metered(self, rng):
        ctx = ExecutionContext()
        gemm(rng.normal(size=(64, 32)), rng.normal(size=(32, 16)), ctx=ctx)
        assert ctx.total_flops() == pytest.approx(gemm_flops(64, 16, 32))

    def test_fused_epilogue_adds_only_bias_traffic(self, rng):
        a, b = rng.normal(size=(64, 32)), rng.normal(size=(32, 16))
        plain = ExecutionContext()
        gemm(a, b, ctx=plain)
        fused = ExecutionContext()
        gemm(a, b, bias=rng.normal(size=16), activation="gelu", ctx=fused)
        extra = fused.total_dram_bytes() - plain.total_dram_bytes()
        assert extra == pytest.approx(16 * 2)  # the bias vector, fp16

    def test_grid_counts_output_tiles(self):
        launch = gemm_launch(256, 256, 64)
        tile = select_tile(256, 256)
        assert launch.grid == (256 // tile.tile_m) * (256 // tile.tile_n)

    def test_deeper_k_more_efficient(self):
        tile = select_tile(256, 256)
        assert gemm_efficiency(256, 256, 768, tile) > gemm_efficiency(
            256, 256, 64, tile
        )

    def test_tile_quantisation_penalty(self):
        tile = select_tile(256, 256)
        aligned = gemm_efficiency(256, 256, 256, tile)
        ragged = gemm_efficiency(129, 256, 256, tile)  # wastes a tile row
        assert ragged < aligned

    def test_efficiency_in_unit_interval(self):
        for m, n, k in [(1, 1, 1), (128, 128, 64), (4096, 3072, 768)]:
            tile = select_tile(m, n)
            assert 0.0 < gemm_efficiency(m, n, k, tile) <= 1.0

    def test_small_output_selects_small_tile(self):
        assert select_tile(32, 32).tile_m == 32
        assert select_tile(64, 64).tile_m == 64
        assert select_tile(512, 512).tile_m == 128

    def test_invalid_dims_raise(self):
        tile = select_tile(128, 128)
        with pytest.raises(ValueError, match="positive"):
            gemm_efficiency(0, 128, 64, tile)


def refuse_launches(monkeypatch):
    """Make any launch descriptor ``gemm`` builds fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("gemm built a launch for a NullContext")

    # the package re-exports the function under the module's name
    module = importlib.import_module("repro.kernels.gemm")
    monkeypatch.setattr(module, "gemm_launch", refuse)


class TestNullContext:
    """A NullContext prices nothing, so gemm builds no launch for it."""

    def test_builds_no_launch(self, rng, monkeypatch):
        a, b, bias = rng.normal(size=(5, 8)), rng.normal(size=(8, 3)), rng.normal(size=3)
        priced = {
            m: gemm(a[:m], b, bias=bias, activation="gelu", ctx=ExecutionContext())
            for m in (1, 5)
        }
        refuse_launches(monkeypatch)
        for m, expected in priced.items():
            out = gemm(a[:m], b, bias=bias, activation="gelu", ctx=NullContext())
            np.testing.assert_array_equal(out, expected)
        # no explicit and no current context resolves to a NullContext
        np.testing.assert_array_equal(gemm(a, b), a @ b)

    def test_still_rejects_bad_shapes(self, rng, monkeypatch):
        refuse_launches(monkeypatch)
        null = NullContext()
        with pytest.raises(ValueError, match="inner dims"):
            gemm(rng.normal(size=(4, 8)), rng.normal(size=(7, 3)), ctx=null)
        with pytest.raises(ValueError, match="2-D"):
            gemm(rng.normal(size=8), rng.normal(size=(8, 3)), ctx=null)
        for m, k, n in ((0, 8, 3), (4, 0, 3), (4, 8, 0)):
            with pytest.raises(ValueError, match="positive"):
                gemm(np.ones((m, k)), np.ones((k, n)), ctx=null)

    def test_real_context_records_the_same_launch(self, rng):
        a, b, bias = rng.normal(size=(6, 8)), rng.normal(size=(8, 3)), rng.normal(size=3)
        ctx = ExecutionContext()
        gemm(a, b, bias=bias, ctx=ctx, name="qkv", category="decode_gemm")
        (record,) = ctx.records
        assert record.launch == gemm_launch(
            6, 3, 8, name="qkv", category="decode_gemm",
            epilogue_bytes=3 * 2,  # the bias vector, fp16
        )


class TestRowSliceBitwise:
    """A 1-row gemm must be bitwise the matching row of a larger gemm.

    BLAS routes M=1 problems to gemv, whose reduction order differs
    from the dgemm rows every M >= 2 operand gets — which would break
    the packed-tile / per-request-oracle contract for 1-token
    sequences.  The kernel pins M=1 to the gemm path.
    """

    def test_single_row_matches_row_of_big_gemm(self, rng):
        a = rng.normal(size=(5, 96))
        b = rng.normal(size=(96, 64))
        big = gemm(a, b)
        for i in range(a.shape[0]):
            assert np.array_equal(gemm(a[i : i + 1], b), big[i : i + 1])

    def test_single_row_out_path_matches(self, rng):
        a = rng.normal(size=(3, 48))
        b = rng.normal(size=(48, 32))
        big = gemm(a, b)
        out = np.empty((1, 32))
        gemm(a[1:2], b, out=out)
        assert np.array_equal(out, big[1:2])

    def test_single_row_epilogue_matches(self, rng):
        a = rng.normal(size=(4, 40))
        b = rng.normal(size=(40, 24))
        bias = rng.normal(size=24)
        big = gemm(a, b, bias=bias, activation="gelu")
        assert np.array_equal(
            gemm(a[2:3], b, bias=bias, activation="gelu"), big[2:3]
        )

    def test_cost_model_still_prices_one_row(self):
        ctx = ExecutionContext()
        gemm(np.ones((1, 32)), np.ones((32, 16)), ctx=ctx)
        (record,) = ctx.records
        assert record.launch.flops == gemm_flops(1, 16, 32)


class TestMixedPrecisionCast:
    """A float64 activation times float32 weights is bitwise the product
    with the weights cast to float64 first.

    numpy casts the float32 operand to float64 and makes the same dgemm
    call, so a caller may cast its weights once and reuse the copy (the
    decode serving runtime does) without moving a bit.  ``m = 1`` covers
    the duplicated-row path.
    """

    @given(
        m=st.integers(1, 300),
        n=st.integers(1, 96),
        k=st.integers(1, 96),
        into_out=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_cast_once_equals_cast_per_call(self, m, n, k, into_out, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(m, k))
        w32 = rng.normal(0.0, 0.02, size=(k, n)).astype(np.float32)
        b32 = rng.normal(0.0, 0.02, size=n).astype(np.float32)
        w64, b64 = w32.astype(np.float64), b32.astype(np.float64)
        if into_out:
            mixed, cast = np.empty((m, n)), np.empty((m, n))
            gemm(a, w32, bias=b32, out=mixed)
            gemm(a, w64, bias=b64, out=cast)
        else:
            mixed = gemm(a, w32, bias=b32)
            cast = gemm(a, w64, bias=b64)
        assert mixed.dtype == cast.dtype == np.float64
        assert np.array_equal(mixed, cast)
