"""Snake convolution: offsets, chain geometry, sampling, and the full operator
against brute-force references."""

import math
import re

import numpy as np
import pytest
from scipy.sparse import csr_array

import serpentseg

from gradcheck import FunctionModule, grad_check, set_dtype
from oracles import (
    chain_points_oracle,
    clamped_row_conv_oracle,
    conv2d_oracle,
    naive_snake_forward,
    traced,
)
from serpentseg.dsconv import INIT_STEP_BIAS, SnakeConv2d, chain_coordinates
from serpentseg.tensor import (
    ContractViolation,
    Tensor,
    _blocks,
    _spmm,
    conv2d,
    grid_sample_points,
    reshape,
)


def make_snake(cin=2, cout=3, axis="horizontal", seed=0, pyramid_scale=0.0,
               frozen=False):
    rng = np.random.default_rng(seed)
    conv = SnakeConv2d(cin, cout, axis, rng, frozen_offsets=frozen)
    if pyramid_scale:
        for lvl in (() if frozen else conv.pyramid):
            lvl.weight.data = (pyramid_scale
                               * rng.standard_normal(lvl.weight.data.shape)).astype(np.float32)
            lvl.bias.data = (pyramid_scale
                             * rng.standard_normal(lvl.bias.data.shape)).astype(np.float32)
    return conv


def chain_points(center, steps):
    """``chain_coordinates`` at one pixel: the (x, y) points t-4 .. t+4 for a
    map that holds the 16 ``steps`` at ``center`` (h, w)."""
    h, w = center
    field = np.zeros((1, 16, h + 1, w + 1))
    field[0, :, h, w] = steps
    pts = chain_coordinates(Tensor(field)).data.reshape(h + 1, w + 1, 9, 2)
    return [tuple(pts[h, w, t]) for t in range(9)]


def bilinear_sample(feature, point):
    """``grid_sample_points`` at one (x, y) point per image; returns (N, Cin)."""
    n, c = feature.data.shape[:2]
    points = np.broadcast_to(np.array(point, dtype=feature.data.dtype), (n, 1, 2))
    return reshape(grid_sample_points(feature, Tensor(points.copy())), (n, c))


class TestPyramidOffsets:
    def test_zero_weights_zero_bias_gives_zero_offsets(self):
        conv = make_snake()
        for lvl in conv.pyramid:
            lvl.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(1).standard_normal((1, 2, 5, 5)).astype(np.float32))
        field = conv.compute_pyramid_offsets(x)
        np.testing.assert_array_equal(field.data, 0.0)

    def test_axis_bias_gives_spatially_constant_tanh(self):
        conv = make_snake(axis="horizontal")
        x = Tensor(np.random.default_rng(2).standard_normal((1, 2, 6, 7)).astype(np.float32))
        sq = conv.compute_pyramid_offsets(x).data
        want = math.tanh(INIT_STEP_BIAS)  # 0.95 by construction
        assert sq.shape == (1, 16, 6, 7)
        for c in range(4):
            np.testing.assert_allclose(sq[:, 4 * c + 0], want, atol=1e-6)  # dx forward
            np.testing.assert_allclose(sq[:, 4 * c + 2], want, atol=1e-6)  # dx backward
            np.testing.assert_array_equal(sq[:, 4 * c + 1], 0.0)
            np.testing.assert_array_equal(sq[:, 4 * c + 3], 0.0)

    def test_levels_match_conv_oracle_then_tanh(self):
        conv = make_snake(cin=2, seed=3, pyramid_scale=0.3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        field = conv.compute_pyramid_offsets(Tensor(x))
        raw = conv.pyramid(Tensor(x))
        for li, k in enumerate((3, 5, 7, 9)):
            lvl = getattr(conv.pyramid, str(k))
            ref = conv2d_oracle(x.astype(np.float64), lvl.weight.data.astype(np.float64),
                                lvl.bias.data.astype(np.float64), padding=(k - 1) // 2)
            np.testing.assert_allclose(raw.data[:, 4 * li:4 * li + 4], ref, atol=1e-5)
            np.testing.assert_allclose(field.data[:, 4 * li:4 * li + 4],
                                       np.tanh(ref), atol=1e-5)

    def test_level_gradients_match_separate_convs(self):
        # the fused 9x9 conv must hand each level exactly the gradient its own
        # 'same' convolution would get; float64 keeps rounding out of the way
        conv = set_dtype(make_snake(cin=2, seed=30, pyramid_scale=0.3), np.float64)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 2, 7, 6))
        upstream = rng.standard_normal((2, 16, 7, 6))
        (conv.pyramid(Tensor(x)) * Tensor(upstream)).sum().backward()
        for li, (lvl, k) in enumerate(zip(conv.pyramid, (3, 5, 7, 9))):
            w = Tensor(lvl.weight.data.copy(), requires_grad=True)
            b = Tensor(lvl.bias.data.copy(), requires_grad=True)
            out = conv2d(Tensor(x), w, b)
            (out * Tensor(upstream[:, 4 * li:4 * li + 4])).sum().backward()
            np.testing.assert_allclose(lvl.weight.grad, w.grad, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(lvl.bias.grad, b.grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("frozen,calls", [(False, 1), (True, 0)])
    def test_one_conv_call_per_forward(self, monkeypatch, frozen, calls):
        conv = make_snake(cin=2, seed=32, pyramid_scale=0.3, frozen=frozen)
        seen = []

        def counting(*args, **kwargs):
            seen.append(args[1].data.shape)
            return conv2d(*args, **kwargs)

        for mod in (serpentseg.tensor, serpentseg.module, serpentseg.dsconv):
            monkeypatch.setattr(mod, "conv2d", counting)
        conv(Tensor(np.random.default_rng(33).standard_normal((1, 2, 6, 6))))
        assert len(seen) == calls
        assert all(shape == (16, 2, 9, 9) for shape in seen)

    def test_squashed_bounded_by_unit_box(self):
        # tanh keeps steps in (-1, 1) mathematically; float32 rounds extreme
        # raw values to exactly +-1, which still respects the closed 9x9 box
        conv = make_snake(seed=5, pyramid_scale=2.0)
        x = Tensor(np.random.default_rng(6).standard_normal((2, 2, 8, 8)).astype(np.float32))
        sq = conv.compute_pyramid_offsets(x).data
        assert np.all(np.abs(sq) <= 1.0)
        mild = make_snake(seed=5, pyramid_scale=0.05)
        sq = mild.compute_pyramid_offsets(x).data
        assert np.all(np.abs(sq) < 1.0)


class TestIterateChain:
    def test_zero_steps_collapse_to_center(self):
        pts = chain_points((3, 5), np.zeros(16))
        assert all(p == (5.0, 3.0) for p in pts)

    def test_saturated_horizontal_steps_make_a_row(self):
        steps = np.zeros(16)
        steps[0::4] = 1.0  # forward dx
        steps[2::4] = 1.0  # backward dx
        pts = chain_points((2, 4), steps)
        for c in range(-4, 5):
            assert pts[4 + c] == (4.0 + c, 2.0)

    def test_matches_prefix_sum_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            steps = rng.uniform(-0.99, 0.99, 16)
            center = (int(rng.integers(0, 10)), int(rng.integers(0, 10)))
            got = chain_points(center, steps)
            want = chain_points_oracle(center, steps)
            for (gx, gy), (wx, wy) in zip(got, want):
                assert gx == pytest.approx(wx, abs=1e-6)
                assert gy == pytest.approx(wy, abs=1e-6)

    def test_dense_chain_matches_per_pixel(self):
        conv = make_snake(cin=1, seed=8, pyramid_scale=0.5)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 1, 5, 6)).astype(np.float32)
        field = conv.compute_pyramid_offsets(Tensor(x))
        got = chain_coordinates(field).data.reshape(5, 6, 9, 2)
        for hh in range(5):
            for ww in range(6):
                pts = chain_points_oracle((hh, ww), field.data[0, :, hh, ww])
                for t in range(9):
                    assert got[hh, ww, t, 0] == pytest.approx(pts[t][0], abs=1e-5)
                    assert got[hh, ww, t, 1] == pytest.approx(pts[t][1], abs=1e-5)

    @pytest.mark.parametrize("shape", [(16, 2, 3), (1, 16, 2, 3, 1), (1, 15, 2, 3)])
    def test_steps_that_are_not_n_16_h_w_rejected(self, shape):
        with pytest.raises(ContractViolation,
                           match=re.escape(f"chain_coordinates: need an (N, 16, H, W) map, "
                                           f"got shape {shape}")):
            chain_coordinates(Tensor(np.zeros(shape, dtype=np.float32)))


class TestBilinearSample:
    def test_integer_point_is_exact(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal((1, 3, 4, 5)).astype(np.float32)
        out = bilinear_sample(Tensor(f), (2.0, 3.0))
        np.testing.assert_allclose(out.data[0], f[0, :, 3, 2], atol=0)

    def test_center_of_four_neighbors(self):
        f = np.array([[[[0.0, 1.0], [2.0, 3.0]]]], dtype=np.float32)
        out = bilinear_sample(Tensor(f), (0.5, 0.5))
        assert out.data[0, 0] == pytest.approx(1.5)

    def test_affine_field_reproduced_exactly(self):
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        f = (2.0 * xs + 3.0 * ys).astype(np.float32).reshape(1, 1, 8, 8)
        out = bilinear_sample(Tensor(f), (1.25, 2.5))
        assert out.data[0, 0] == pytest.approx(10.0, abs=1e-6)

    def test_non_finite_coordinate_rejected(self):
        f = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        with pytest.raises(ContractViolation):
            bilinear_sample(f, (float("nan"), 0.0))

    def test_batch_matches_each_image_alone(self):
        rng = np.random.default_rng(34)
        f = rng.standard_normal((2, 3, 5, 6))
        xs = rng.uniform(-1.5, 6.5, (2, 7))
        ys = rng.uniform(-1.5, 5.5, (2, 7))
        pts = np.stack([xs, ys], axis=-1)
        upstream = rng.standard_normal((2, 7, 3))

        def run(fd, pd, g):
            ts = [Tensor(a, requires_grad=True) for a in (fd, pd)]
            out = grid_sample_points(*ts)
            (out * Tensor(g)).sum().backward()
            return [out.data] + [t.grad for t in ts]

        batch = run(f, pts, upstream)
        for i in range(2):
            alone = run(f[i:i + 1], pts[i:i + 1], upstream[i:i + 1])
            for got, want in zip(batch, alone):
                np.testing.assert_allclose(got[i:i + 1], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape,pts", [
        # repeated point, x clamped low, y clamped high, x clamped high
        ((2, 2, 4, 5), [(1.3, 2.6), (1.3, 2.6), (-1.5, 1.2), (2.7, 5.9), (4.6, 0.4),
                        (3.45, 2.55)]),
        # width 1: the two x corners are one pixel, every x but 0 is clamped
        ((1, 2, 3, 1), [(0.4, 1.3), (-0.2, 0.7), (0.4, 1.3), (0.1, 2.8), (0.0, 1.6)]),
        ((1, 2, 1, 3), [(1.3, 0.4), (0.7, -0.2), (2.2, 0.3), (1.6, 0.0)]),
    ])
    def test_grad_check_repeated_clamped_and_degenerate(self, shape, pts):
        rng = np.random.default_rng(35)
        n = shape[0]
        xs = np.array([[p[0] for p in pts]] * n) + 0.05 * np.arange(n)[:, None]
        ys = np.array([[p[1] for p in pts]] * n)
        sampler = FunctionModule(grid_sample_points)
        report = grad_check(sampler, [rng.standard_normal(shape), np.stack([xs, ys], axis=-1)],
                            tolerance=1e-6)
        assert report.passed, str(report)

    @staticmethod
    def _chain_sized_inputs():
        # a (2, 8, 40, 40) map read at 9 points per pixel, a tenth of them
        # outside the border; the (2, 14400, 8) output is 0.92 MB
        rng = np.random.default_rng(12)
        n, c, h, w = 2, 8, 40, 40
        m = h * w * 9
        f = Tensor(rng.standard_normal((n, c, h, w)).astype(np.float32), requires_grad=True)
        x = rng.uniform(-2, w + 1, (n, m)).astype(np.float32)
        y = rng.uniform(-2, h + 1, (n, m)).astype(np.float32)
        return f, Tensor(np.stack([x, y], axis=-1), requires_grad=True)

    def test_taped_forward_keeps_only_its_output(self):
        # the corner matrix with its indices and weights (1.8x the output
        # here) is rebuilt in backward from x and y, which the tape holds
        # anyway, so the taped forward keeps its output and little else
        f, pts = self._chain_sized_inputs()
        out, _, kept = traced(grid_sample_points, f, pts)
        assert out.data.shape == (2, 14400, 8)
        assert kept <= 1.05 * out.data.nbytes, kept

    def test_backward_builds_one_matrix_at_a_time(self):
        # backward holds the upstream gradient (1x the output), the rebuilt
        # indices and weights (1.1x), one corner matrix's values (0.5x) and
        # that matrix times the feature rows (1x); 4.2x in all
        f, pts = self._chain_sized_inputs()
        out = grid_sample_points(f, pts)
        loss = out.sum()
        _, peak, _ = traced(loss.backward)
        assert all(t.grad.shape == t.data.shape for t in (f, pts))
        assert peak <= 4.5 * out.data.nbytes, peak

    @pytest.mark.parametrize("block", [1, 7, 50, 113])
    def test_blocks_are_bit_identical_to_one_block(self, monkeypatch, block):
        # 2 x 113 points on a 5x8 map, a fifth outside the border: no block
        # holds points of two images, so from 113 on each image is one block,
        # and an image's last block of 7 or 50 ends short
        rng = np.random.default_rng(36)
        f = rng.standard_normal((2, 3, 5, 8)).astype(np.float32)
        pts = np.stack([rng.uniform(-1.5, 8.5, (2, 113)), rng.uniform(-1.5, 5.5, (2, 113))],
                       axis=-1).astype(np.float32)
        upstream = Tensor(rng.standard_normal((2, 113, 3)).astype(np.float32))

        def run():
            ts = [Tensor(a, requires_grad=True) for a in (f, pts)]
            out = grid_sample_points(*ts)
            (out * upstream).sum().backward()
            return [out.data] + [t.grad for t in ts]

        monkeypatch.setattr(serpentseg.tensor, "POINT_BLOCK", 2 * 113)
        whole = run()
        monkeypatch.setattr(serpentseg.tensor, "POINT_BLOCK", block)
        for got, want in zip(run(), whole):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_spmm_matches_scipy_products(self, c, transposed):
        # ``_spmm`` calls scipy's private sparse kernels on the caller's
        # buffers: from zeros they must give scipy's public product bit for
        # bit, and a second call must add to what is there
        rng = np.random.default_rng(38)
        points, rows = 10, 12
        indptr = np.arange(0, 4 * points + 1, 4, dtype=np.int32)
        cols = rng.integers(0, rows, 4 * points).astype(np.int32)
        vals = rng.standard_normal(4 * points).astype(np.float32)
        a = csr_array((vals, cols, indptr), shape=(points, rows))
        a = a.T if transposed else a
        x = rng.standard_normal((a.shape[1], c)).astype(np.float32)
        y = np.zeros((a.shape[0], c), dtype=np.float32)
        _spmm(indptr, cols, vals, x, y, transposed=transposed)
        np.testing.assert_array_equal(y, a @ x)
        _spmm(indptr, cols, vals, x, y, transposed=transposed)
        np.testing.assert_allclose(y, 2 * (a @ x), rtol=1e-6)

    @pytest.mark.parametrize("shape,idx_t", [
        ((2, 3, 64, 64), np.int32),
        ((1, 1, 1, 2**31 - 1), np.int32),  # the last row index int32 holds
        ((1, 1, 2**16, 2**15), np.int64),
    ])
    def test_index_type_holds_every_feature_row(self, shape, idx_t):
        # a shape alone: no feature is allocated, only one block of 3 points
        # per image
        n = shape[0]
        blocks = list(_blocks(np.zeros((n, 3, 2), dtype=np.float32), shape, np.float32))
        assert [(img, lo, hi) for img, lo, hi, *_ in blocks] == [(i, 0, 3) for i in range(n)]
        for _, _, _, indptr, cols, _ in blocks:
            assert indptr.dtype == cols.dtype == idx_t

    @pytest.mark.parametrize("y", [np.zeros((3, 4), dtype=np.float32)[:, ::2],
                                   np.zeros((3, 2), dtype=np.float64)])
    def test_spmm_refuses_an_output_it_would_not_write(self, y):
        # the kernels write through ``y.ravel()``: a strided or retyped
        # output would be a copy, and its sums would be lost
        indptr = np.arange(0, 9, 4, dtype=np.int32)
        cols = np.zeros(8, dtype=np.int32)
        x = np.ones((1, 2), dtype=np.float32)
        with pytest.raises(ContractViolation, match="_spmm: y must be C-contiguous"):
            _spmm(indptr, cols, np.ones(8, dtype=np.float32), x, y)

    def test_stage_zero_forward_peaks_under_four_outputs(self):
        # the first snake stage at 256x256: one channel read at 9 points per
        # pixel (590k points); building every point's corners at once peaked
        # at 14.5x the output
        rng = np.random.default_rng(37)
        f = Tensor(rng.standard_normal((1, 1, 256, 256)).astype(np.float32))
        m = 256 * 256 * 9
        pts = Tensor(np.stack([rng.uniform(-2, 257, (1, m)), rng.uniform(-2, 257, (1, m))],
                              axis=-1).astype(np.float32))
        out, peak, _ = traced(grid_sample_points, f, pts)
        assert peak <= 4 * out.data.nbytes, peak

    def test_backward_in_blocks_peaks_under_two_and_a_half_outputs(self, monkeypatch):
        # in blocks of 4096 points, backward holds the upstream gradient (1x),
        # the point gradient (0.25x) and the feature gradient with its
        # channel-first copy (0.2x) and one block's matrices; the derivative
        # products of all points at once peaked at 4.3x
        monkeypatch.setattr(serpentseg.tensor, "POINT_BLOCK", 4096)
        f, pts = self._chain_sized_inputs()
        out = grid_sample_points(f, pts)
        loss = out.sum()
        _, peak, _ = traced(loss.backward)
        assert all(t.grad.shape == t.data.shape for t in (f, pts))
        assert peak <= 2.5 * out.data.nbytes, peak

    @pytest.mark.parametrize("f_shape,m", [((2, 3, 4, 5), 0), ((0, 3, 4, 5), 6)])
    def test_no_points_give_empty_samples_and_zero_gradients(self, f_shape, m):
        f = Tensor(np.ones(f_shape, dtype=np.float32), requires_grad=True)
        pts = Tensor(np.zeros((f_shape[0], m, 2), dtype=np.float32), requires_grad=True)
        out = grid_sample_points(f, pts)
        out.sum().backward()
        assert out.data.shape == (f_shape[0], m, 3)
        np.testing.assert_array_equal(f.grad, np.zeros(f_shape))
        assert pts.grad.shape == pts.data.shape

    @pytest.mark.parametrize("shape", [(2, 5), (2, 5, 3), (3, 5, 2)])
    def test_points_of_wrong_shape_rejected(self, shape):
        f = Tensor(np.zeros((2, 1, 4, 4), dtype=np.float32))
        with pytest.raises(ContractViolation, match=re.escape(f"points {shape}")):
            grid_sample_points(f, Tensor(np.zeros(shape, dtype=np.float32)))

    @pytest.mark.parametrize("shape", [(1, 4, 4), (1, 1, 1, 4, 4)])
    def test_feature_that_is_not_4d_rejected(self, shape):
        pts = Tensor(np.zeros((1, 3, 2), dtype=np.float32))
        with pytest.raises(ContractViolation, match=re.escape(f"got shape {shape}")):
            grid_sample_points(Tensor(np.zeros(shape, dtype=np.float32)), pts)

    def test_clamped_coordinate_has_zero_gradient(self):
        f = Tensor(np.random.default_rng(11).standard_normal((1, 1, 4, 4)).astype(np.float64))
        pts = Tensor(np.array([[[-1.5, 1.3]]], dtype=np.float64), requires_grad=True)
        out = grid_sample_points(f, pts)
        out.sum().backward()
        assert pts.grad[0, 0, 0] == 0.0
        assert pts.grad[0, 0, 1] != 0.0


class TestSnakeForward:
    def test_straight_chain_reduces_to_clamped_row_conv(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            conv = make_snake(cin=2, cout=3, axis="horizontal", seed=100 + trial,
                              frozen=True)
            x = rng.standard_normal((1, 2, 6, 7)).astype(np.float32)
            out = conv(Tensor(x))
            ref = clamped_row_conv_oracle(x.astype(np.float64),
                                          conv.chain.weight.data.astype(np.float64),
                                          conv.chain.bias.data.astype(np.float64))
            np.testing.assert_allclose(out.data, ref, atol=1e-5)

    def test_straight_vertical_chain_reduces_to_column_conv(self):
        rng = np.random.default_rng(13)
        conv = make_snake(cin=1, cout=2, axis="vertical", seed=200, frozen=True)
        x = rng.standard_normal((2, 1, 7, 5)).astype(np.float32)
        out = conv(Tensor(x))
        ref = clamped_row_conv_oracle(x.astype(np.float64),
                                      conv.chain.weight.data.astype(np.float64),
                                      conv.chain.bias.data.astype(np.float64), vertical=True)
        np.testing.assert_allclose(out.data, ref, atol=1e-5)

    def test_constant_input_ignores_offsets(self):
        base = make_snake(cin=2, cout=3, seed=14, pyramid_scale=0.0)
        warped = make_snake(cin=2, cout=3, seed=14, pyramid_scale=0.8)
        warped.chain.weight.data = base.chain.weight.data.copy()
        warped.chain.bias.data = base.chain.bias.data.copy()
        x = Tensor(np.full((1, 2, 6, 6), 1.7, dtype=np.float32))
        a = base(x).data
        b = warped(x).data
        np.testing.assert_allclose(a, b, atol=1e-6)
        expected = base.chain.weight.data.sum(axis=(1, 2)) * 1.7 + base.chain.bias.data
        np.testing.assert_allclose(a[0, :, 3, 3], expected, atol=1e-5)

    def test_matches_fully_naive_reference(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            conv = make_snake(cin=2, cout=2, seed=300 + trial, pyramid_scale=0.4)
            x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
            out = conv(Tensor(x))
            ref = naive_snake_forward(
                x.astype(np.float64),
                [l.weight.data.astype(np.float64) for l in conv.pyramid],
                [l.bias.data.astype(np.float64) for l in conv.pyramid],
                conv.chain.weight.data.astype(np.float64),
                conv.chain.bias.data.astype(np.float64),
            )
            np.testing.assert_allclose(out.data, ref, atol=1e-5)

    def test_chain_points_reach_the_sampler_as_they_are(self, monkeypatch):
        made, read = [], []

        def chain(steps):
            made.append(chain_coordinates(steps))
            return made[-1]

        def sample(feature, points):
            read.append(points)
            return grid_sample_points(feature, points)

        monkeypatch.setattr(serpentseg.dsconv, "chain_coordinates", chain)
        monkeypatch.setattr(serpentseg.dsconv, "grid_sample_points", sample)
        make_snake(seed=36, pyramid_scale=0.3)(
            Tensor(np.random.default_rng(37).standard_normal((2, 2, 5, 6))))
        assert len(made) == len(read) == 1
        assert read[0] is made[0]
        assert made[0].data.shape == (2, 5 * 6 * 9, 2)

    def test_channel_mismatch_raises(self):
        conv = make_snake(cin=2)
        with pytest.raises(ContractViolation):
            conv(Tensor(np.zeros((1, 3, 6, 6), dtype=np.float32)))


class TestChainInvariants:
    def test_containment_and_continuity(self):
        # bounds hold exactly in real arithmetic; float32 prefix sums can
        # overshoot by a few ulps, hence the 1e-5 slack
        rng = np.random.default_rng(16)
        for trial in range(25):
            conv = make_snake(cin=1, seed=400 + trial, pyramid_scale=3.0)
            x = Tensor(rng.standard_normal((1, 1, 8, 8)).astype(np.float32))
            pts = chain_coordinates(conv.compute_pyramid_offsets(x)).data.reshape(1, 8, 8, 9, 2)
            xs, ys = pts[..., 0], pts[..., 1]
            gx = np.arange(8)[None, None, :, None]
            gy = np.arange(8)[None, :, None, None]
            assert np.all(np.abs(xs - gx) <= 4.0 + 1e-5)
            assert np.all(np.abs(ys - gy) <= 4.0 + 1e-5)
            assert np.all(np.abs(np.diff(xs, axis=3)) <= 1.0 + 1e-5)
            assert np.all(np.abs(np.diff(ys, axis=3)) <= 1.0 + 1e-5)

    def test_center_point_is_exact_grid_position(self):
        conv = make_snake(cin=1, seed=17, pyramid_scale=1.0)
        x = Tensor(np.random.default_rng(18).standard_normal((1, 1, 5, 5)).astype(np.float32))
        pts = chain_coordinates(conv.compute_pyramid_offsets(x)).data.reshape(1, 5, 5, 9, 2)
        np.testing.assert_array_equal(pts[..., 4, 0], np.broadcast_to(np.arange(5.0), (1, 5, 5)))
        np.testing.assert_array_equal(pts[..., 4, 1],
                                      np.broadcast_to(np.arange(5.0)[:, None], (1, 5, 5)))


class TestSnakeGradients:
    def test_grad_check_full_operator(self):
        conv = make_snake(cin=2, cout=2, seed=19, pyramid_scale=0.3)
        x = np.random.default_rng(20).standard_normal((1, 2, 6, 6))
        report = grad_check(conv, x, tolerance=1e-3)
        assert report.passed, str(report)

    def test_grad_check_frozen_offsets_still_pass(self):
        conv = make_snake(cin=2, cout=2, seed=21, frozen=True)
        x = np.random.default_rng(22).standard_normal((1, 2, 6, 6))
        report = grad_check(conv, x, tolerance=1e-3)
        assert report.passed, str(report)

    def test_frozen_instances_have_no_pyramid_parameters(self):
        conv = make_snake(cin=1, cout=1, seed=23, frozen=True)
        names = [n for n, _ in conv.named_parameters()]
        assert names == ["chain.weight", "chain.bias"]
        x = Tensor(np.random.default_rng(24).standard_normal((1, 1, 6, 6)).astype(np.float32),
                   requires_grad=True)
        conv(x).sum().backward()
        assert conv.chain.weight.grad is not None
        assert x.grad is not None
