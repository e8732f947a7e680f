"""Snake convolution: offsets, chain geometry, sampling, and the full operator
against brute-force references."""

import math

import numpy as np
import pytest

import serpentseg

from oracles import (
    chain_points_oracle,
    clamped_row_conv_oracle,
    conv2d_oracle,
    naive_snake_forward,
)
from serpentseg.dsconv import (
    INIT_STEP_BIAS,
    STRAIGHT_BIAS,
    SnakeConv2d,
    chain_coordinates,
    grid_sample_points,
)
from serpentseg.gradcheck import FunctionModule, grad_check
from serpentseg.tensor import ContractViolation, Tensor, conv2d, reshape


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
    xs, ys = chain_coordinates(Tensor(field))
    return [(xs.data[0, t, h, w], ys.data[0, t, h, w]) for t in range(9)]


def bilinear_sample(feature, point):
    """``grid_sample_points`` at one (x, y) point per image; returns (N, Cin)."""
    n, c = feature.data.shape[:2]
    coords = [Tensor(np.full((n, 1), v, dtype=feature.data.dtype)) for v in point]
    return reshape(grid_sample_points(feature, *coords), (n, c))


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
        conv = make_snake(cin=2, seed=30, pyramid_scale=0.3).set_dtype(np.float64)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 2, 7, 6))
        upstream = rng.standard_normal((2, 16, 7, 6))
        (conv.pyramid(Tensor(x)) * Tensor(upstream)).sum().backward()
        for li, (lvl, k) in enumerate(zip(conv.pyramid, (3, 5, 7, 9))):
            w = Tensor(lvl.weight.data.copy(), requires_grad=True)
            b = Tensor(lvl.bias.data.copy(), requires_grad=True)
            out = conv2d(Tensor(x), w, b, padding=(k - 1) // 2)
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
        xs, ys = chain_coordinates(field)
        for hh in range(5):
            for ww in range(6):
                pts = chain_points_oracle((hh, ww), field.data[0, :, hh, ww])
                for t in range(9):
                    assert xs.data[0, t, hh, ww] == pytest.approx(pts[t][0], abs=1e-5)
                    assert ys.data[0, t, hh, ww] == pytest.approx(pts[t][1], abs=1e-5)


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
        upstream = rng.standard_normal((2, 7, 3))

        def run(fd, xd, yd, g):
            ts = [Tensor(a, requires_grad=True) for a in (fd, xd, yd)]
            out = grid_sample_points(*ts)
            (out * Tensor(g)).sum().backward()
            return [out.data] + [t.grad for t in ts]

        batch = run(f, xs, ys, upstream)
        for i in range(2):
            alone = run(f[i:i + 1], xs[i:i + 1], ys[i:i + 1], upstream[i:i + 1])
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
        report = grad_check(sampler, [rng.standard_normal(shape), xs, ys], tolerance=1e-6)
        assert report.passed, str(report)

    def test_clamped_coordinate_has_zero_gradient(self):
        f = Tensor(np.random.default_rng(11).standard_normal((1, 1, 4, 4)).astype(np.float64))
        x = Tensor(np.array([[-1.5]], dtype=np.float64), requires_grad=True)
        y = Tensor(np.array([[1.3]], dtype=np.float64), requires_grad=True)
        out = grid_sample_points(f, x, y)
        out.sum().backward()
        assert x.grad[0, 0] == 0.0
        assert y.grad[0, 0] != 0.0


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
            xs, ys = chain_coordinates(conv.compute_pyramid_offsets(x))
            gx = np.arange(8)[None, None, None, :]
            gy = np.arange(8)[None, None, :, None]
            assert np.all(np.abs(xs.data - gx) <= 4.0 + 1e-5)
            assert np.all(np.abs(ys.data - gy) <= 4.0 + 1e-5)
            assert np.all(np.abs(np.diff(xs.data, axis=1)) <= 1.0 + 1e-5)
            assert np.all(np.abs(np.diff(ys.data, axis=1)) <= 1.0 + 1e-5)

    def test_center_point_is_exact_grid_position(self):
        conv = make_snake(cin=1, seed=17, pyramid_scale=1.0)
        x = Tensor(np.random.default_rng(18).standard_normal((1, 1, 5, 5)).astype(np.float32))
        xs, ys = chain_coordinates(conv.compute_pyramid_offsets(x))
        np.testing.assert_array_equal(xs.data[:, 4], np.broadcast_to(np.arange(5.0), (1, 5, 5)))
        np.testing.assert_array_equal(ys.data[:, 4],
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

    def test_straight_bias_saturates_exactly(self):
        assert math.tanh(STRAIGHT_BIAS) == 1.0
