"""Primitive-layer tests: every op against a naive loop oracle plus the
gradient checker."""

import re
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from serpentseg import tensor as T
from serpentseg.attention import _pooled_rows
from serpentseg.gradcheck import FunctionModule, grad_check
from serpentseg.module import Conv2d, LayerNorm, Linear, Module, Parameter
from serpentseg.tensor import ContractViolation, Tensor


# -- oracles -------------------------------------------------------------------

def linear_oracle(x, w, b):
    n, cin = x.shape
    cout = w.shape[0]
    out = np.zeros((n, cout), dtype=np.float64)
    for i in range(n):
        for o in range(cout):
            out[i, o] = sum(x[i, c] * w[o, c] for c in range(cin)) + b[o]
    return out


def upsample_oracle(x, factor):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h * factor, w * factor), dtype=np.float64)
    for oy in range(h * factor):
        for ox in range(w * factor):
            sy = min(max((oy + 0.5) / factor - 0.5, 0.0), h - 1.0)
            sx = min(max((ox + 0.5) / factor - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            ty, tx = sy - y0, sx - x0
            out[:, :, oy, ox] = (
                x[:, :, y0, x0] * (1 - ty) * (1 - tx)
                + x[:, :, y0, x1] * (1 - ty) * tx
                + x[:, :, y1, x0] * ty * (1 - tx)
                + x[:, :, y1, x1] * ty * tx
            )
    return out


# -- conv2d ---------------------------------------------------------------------

class TestConv2d:
    def test_all_ones_center(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        b = Tensor(np.zeros(1, dtype=np.float32))
        out = T.conv2d(x, w, b, padding=1)
        assert out.data[0, 0, 1, 1] == pytest.approx(9.0)

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 5, 6)).astype(np.float32))
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = T.conv2d(x, Tensor(w), Tensor(np.zeros(3, dtype=np.float32)), padding=1)
        np.testing.assert_allclose(out.data, x.data, rtol=0, atol=0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1)
        ref = oracles.conv2d_oracle(x.astype(np.float64), w.astype(np.float64),
                                    b.astype(np.float64), padding=1)
        np.testing.assert_allclose(out.data, ref, atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 3), (4, 3)])
    def test_strides_and_padding(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        k = 2 * padding + 1 if padding else 3
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        w = rng.standard_normal((3, 2, k, k)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        ref = oracles.conv2d_oracle(x.astype(np.float64), w.astype(np.float64),
                                    b.astype(np.float64), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    @pytest.mark.parametrize("stride,padding,named", [
        (0, 1, "stride"), (-1, 1, "stride"), (1.5, 1, "stride"), (True, 1, "stride"),
        (1, -1, "padding"), (1, 1.0, "padding"), (1, "1", "padding"),
    ])
    def test_bad_stride_or_padding_raises(self, stride, padding, named):
        x = Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32))
        w = Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ContractViolation, match=f"conv2d: {named} must be an int"):
            T.conv2d(x, w, None, stride=stride, padding=padding)

    def test_conv2d_layer_with_zero_stride_raises(self):
        conv = Conv2d(2, 3, 3, stride=0, padding=1, rng=np.random.default_rng(0))
        with pytest.raises(ContractViolation, match="stride must be an int >= 1, got 0"):
            conv(Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32)))

    def test_numpy_integer_stride_and_padding_accepted(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 7, 7)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), None, stride=np.int64(2), padding=np.int32(1))
        ref = oracles.conv2d_oracle(x.astype(np.float64), w.astype(np.float64), np.zeros(3),
                                    stride=2, padding=1)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    def test_taped_forward_keeps_no_window_matrix(self):
        # a 9x9 im2col matrix of this input (C*81 rows by 3200 positions) is
        # 8.3 MB; the taped forward may keep its output and little else
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((2, 8, 40, 40)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8, 9, 9)).astype(np.float32), requires_grad=True)
        padded_bytes = 2 * 8 * 48 * 48 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.conv2d(x, w, None, padding=4)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.data.shape == (2, 8, 40, 40)
        assert kept <= 2 * padded_bytes, kept

    def test_pointwise_forward_makes_no_shift_copy(self):
        # a 1x1 conv reads the window layout (the zero-padded map, here the
        # input's size) as it is, so the forward holds the layout and its
        # output, under 2x the input; a copy of the shifts would add a third
        # input's worth
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 16, 40, 40)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 16, 1, 1)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = oracles.conv2d_oracle(x.data.astype(np.float64), w.data.astype(np.float64),
                                    np.zeros(8))
        np.testing.assert_allclose(out.data, ref, atol=1e-4)
        assert peak <= 2.5 * x.data.nbytes, peak

    def test_input_gradient_keeps_memory_bounded(self):
        # the input gradient is one correlation of the (2, 16, 40, 40) output
        # gradient: its 9 column shifts (3.5x the input here) and the result
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 64, 40, 40)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 64, 9, 9)).astype(np.float32))
        loss = T.conv2d(x, w, None, padding=4).sum()
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.data.shape
        assert peak <= 10 * x.data.nbytes, peak

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
        with pytest.raises(ContractViolation, match=r"\(1, 3, 4, 4\)"):
            T.conv2d(x, w, Tensor(np.zeros(2, dtype=np.float32)), padding=1)


class TestLinear:
    def test_identity_weight(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        out = T.linear(Tensor(x), Tensor(np.eye(4, dtype=np.float32)),
                       Tensor(np.zeros(4, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_weight_gives_bias(self):
        x = np.ones((3, 4), dtype=np.float32)
        b = np.array([1.0, -2.0], dtype=np.float32)
        out = T.linear(Tensor(x), Tensor(np.zeros((2, 4), dtype=np.float32)), Tensor(b))
        for row in out.data:
            np.testing.assert_array_equal(row, b)

    def test_matches_dot_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4)).astype(np.float32)
        w = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b))
        ref = linear_oracle(x.astype(np.float64), w.astype(np.float64), b.astype(np.float64))
        np.testing.assert_allclose(out.data, ref, atol=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ContractViolation):
            T.linear(Tensor(np.zeros((2, 4), dtype=np.float32)),
                     Tensor(np.zeros((3, 5), dtype=np.float32)), None)

    def test_maps_the_last_axis_of_a_3d_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 4)).astype(np.float32)
        w = rng.standard_normal((5, 4)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        out = T.linear(Tensor(x), Tensor(w), Tensor(b))
        assert out.data.shape == (2, 3, 5)
        for i in range(2):
            ref = linear_oracle(x[i].astype(np.float64), w.astype(np.float64),
                                b.astype(np.float64))
            np.testing.assert_allclose(out.data[i], ref, atol=1e-5)

    def test_rank_one_input_raises(self):
        with pytest.raises(ContractViolation, match=r"\(4,\)"):
            T.linear(Tensor(np.zeros(4, dtype=np.float32)),
                     Tensor(np.zeros((3, 4), dtype=np.float32)), None)


class TestDepthwiseConv3x3:
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_matches_block_diagonal_conv_oracle(self, with_bias):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 5, 4)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        full = np.zeros((3, 3, 3, 3))
        full[np.arange(3), np.arange(3)] = w  # output channel c reads input channel c only
        x_last = x.transpose(0, 2, 3, 1)
        out = T.depthwise_conv3x3(Tensor(x_last), Tensor(w), Tensor(b) if with_bias else None)
        ref = oracles.conv2d_oracle(x.astype(np.float64), full,
                                    b.astype(np.float64) if with_bias else np.zeros(3),
                                    padding=1)
        assert out.data.shape == x_last.shape
        np.testing.assert_allclose(out.data, ref.transpose(0, 2, 3, 1), atol=1e-5)

    def test_weight_shape_mismatch_raises(self):
        with pytest.raises(ContractViolation, match=r"\(2, 3, 3\)"):
            T.depthwise_conv3x3(Tensor(np.zeros((1, 4, 4, 3), dtype=np.float32)),
                                Tensor(np.zeros((2, 3, 3), dtype=np.float32)))

    def test_three_d_input_raises(self):
        with pytest.raises(ContractViolation, match=r"depthwise_conv3x3: .*\(4, 4, 3\)"):
            T.depthwise_conv3x3(Tensor(np.zeros((4, 4, 3), dtype=np.float32)),
                                Tensor(np.zeros((3, 3, 3), dtype=np.float32)))


@pytest.mark.parametrize("op,x_shape,w_shape", [
    (T.conv2d, (1, 2, 4, 4), (3, 2, 3, 3)),
    (T.depthwise_conv3x3, (1, 4, 4, 3), (3, 3, 3)),
    (T.linear, (2, 4), (3, 4)),
], ids=["conv2d", "depthwise_conv3x3", "linear"])
@pytest.mark.parametrize("b_shape", [(1,), (4,), (1, 3)])
def test_bias_needs_one_value_per_output_channel(op, x_shape, w_shape, b_shape):
    # a (1,) bias would broadcast over every output without the check
    x, w, b = (Tensor(np.zeros(shape, dtype=np.float32)) for shape in (x_shape, w_shape, b_shape))
    with pytest.raises(ContractViolation, match=re.escape(f"bias {b_shape} does not match (3,)")):
        op(x, w, b)


class TestMaxPool2:
    def test_single_window(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        assert T.max_pool2(x).data[0, 0, 0, 0] == 4.0

    def test_constant_input(self):
        x = Tensor(np.full((1, 2, 6, 4), 3.5, dtype=np.float32))
        out = T.max_pool2(x)
        assert out.data.shape == (1, 2, 3, 2)
        assert np.all(out.data == 3.5)

    def test_matches_window_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
        out = T.max_pool2(Tensor(x))
        for y in range(4):
            for xx in range(4):
                assert out.data[0, 0, y, xx] == x[0, 0, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2].max()

    def test_odd_dims_raise(self):
        with pytest.raises(ContractViolation):
            T.max_pool2(Tensor(np.zeros((1, 1, 5, 4), dtype=np.float32)))

    def test_three_d_input_raises(self):
        with pytest.raises(ContractViolation, match=r"max_pool2: .*\(1, 4, 4\)"):
            T.max_pool2(Tensor(np.zeros((1, 4, 4), dtype=np.float32)))

    def test_tie_break_first_occurrence(self):
        x = Tensor(np.full((1, 1, 2, 2), 2.0, dtype=np.float32), requires_grad=True)
        out = T.max_pool2(x)
        out.sum().backward()
        expected = np.zeros((1, 1, 2, 2), dtype=np.float32)
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_tie_break_scans_rows_first(self):
        # the maxima at (0, 1) and (1, 0) tie; (0, 1) comes first row by row
        x = Tensor(np.array([[[[1.0, 2.0], [2.0, 0.0]]]], dtype=np.float32), requires_grad=True)
        T.max_pool2(x).sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])


class TestGlobalPool:
    """The (N, C) spatial mean and max descriptors of channel attention."""

    def test_constant(self):
        x = Tensor(np.full((2, 3, 4, 4), 1.25, dtype=np.float32))
        for out in _pooled_rows(x):
            assert out.data.shape == (2, 3)
            assert np.all(out.data == 1.25)

    def test_small_channel(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32))
        avg, mx = _pooled_rows(x)
        assert avg.data[0, 0] == pytest.approx(2.5)
        assert mx.data[0, 0] == 4.0

    def test_matches_reduction_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 5, 7, 7)).astype(np.float32)
        avg, mx = (t.data for t in _pooled_rows(Tensor(x)))
        np.testing.assert_allclose(avg, x.mean(axis=(2, 3)), atol=1e-6)
        np.testing.assert_allclose(mx, x.max(axis=(2, 3)), atol=0)

    def test_empty_spatial_extent_raises(self):
        with pytest.raises(ContractViolation, match="empty spatial extent"):
            _pooled_rows(Tensor(np.zeros((1, 2, 0, 3), dtype=np.float32)))


class TestEmptyAxis:
    def test_tmean_raises(self):
        with pytest.raises(ContractViolation, match=r"tmean: empty axis 1 in shape \(2, 0\)"):
            T.tmean(Tensor(np.zeros((2, 0), dtype=np.float32)), axis=1)

    def test_max_along_raises(self):
        with pytest.raises(ContractViolation,
                           match=r"max_along: empty axis 1 in shape \(2, 0\)"):
            T.max_along(Tensor(np.zeros((2, 0), dtype=np.float32)), axis=1)


class TestUpsampleBilinear:
    def test_constant(self):
        x = Tensor(np.full((1, 2, 3, 3), 0.7, dtype=np.float32))
        out = T.upsample_bilinear(x, 2)
        assert out.data.shape == (1, 2, 6, 6)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-7)

    def test_one_pixel(self):
        x = Tensor(np.array([[[[2.5]]]], dtype=np.float32))
        out = T.upsample_bilinear(x, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 2.5))

    def test_ramp_matches_formula_oracle(self):
        h = w = 4
        ramp = (np.arange(h)[:, None] + 2.0 * np.arange(w)[None, :]).astype(np.float32)
        x = ramp.reshape(1, 1, h, w)
        out = T.upsample_bilinear(Tensor(x), 2)
        ref = upsample_oracle(x.astype(np.float64), 2)
        np.testing.assert_allclose(out.data, ref, atol=1e-6)

    def test_factor_below_two_raises(self):
        with pytest.raises(ContractViolation):
            T.upsample_bilinear(Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)), 1)

    def test_three_d_input_raises(self):
        with pytest.raises(ContractViolation, match=r"upsample_bilinear: .*\(1, 2, 2\)"):
            T.upsample_bilinear(Tensor(np.zeros((1, 2, 2), dtype=np.float32)), 2)

    def test_non_int_factor_raises(self):
        with pytest.raises(ContractViolation, match="upsample_bilinear: factor must be an int"):
            T.upsample_bilinear(Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32)), 2.5)

    @pytest.mark.parametrize("n_in", [1, 2, 3, 7])
    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_interp_matrix_equals_row_rule_exactly(self, n_in, factor):
        want = np.zeros((n_in * factor, n_in))
        for i in range(n_in * factor):
            src = min(max((i + 0.5) / factor - 0.5, 0.0), n_in - 1.0)
            lo = int(np.floor(src))
            t = src - lo
            want[i, lo] += 1.0 - t
            want[i, min(lo + 1, n_in - 1)] += t
        for dtype in (np.float32, np.float64):
            got = T._interp_matrix(n_in, factor, dtype)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want.astype(dtype))


class TestActivations:
    def test_relu_values(self):
        out = T.relu(Tensor(np.array([-1.0, 2.0], dtype=np.float32)))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_relu_gradient_is_zero_at_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32), requires_grad=True)
        T.relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_sigmoid_tanh_at_zero(self):
        z = Tensor(np.zeros(1, dtype=np.float32))
        assert T.sigmoid(z).data[0] == pytest.approx(0.5)
        assert T.tanh(z).data[0] == pytest.approx(0.0)

    def test_sigmoid_grad_at_zero_matches_finite_difference(self):
        h = 1e-5
        numeric = (1 / (1 + np.exp(-h)) - 1 / (1 + np.exp(h))) / (2 * h)
        x = Tensor(np.zeros(1, dtype=np.float64), requires_grad=True)
        T.sigmoid(x).sum().backward()
        assert x.grad[0] == pytest.approx(0.25, abs=1e-9)
        assert x.grad[0] == pytest.approx(numeric, abs=1e-6)

    def test_gelu_known_values(self):
        x = Tensor(np.array([0.0, 1.0], dtype=np.float64))
        out = T.gelu(x)
        assert out.data[0] == pytest.approx(0.0)
        assert out.data[1] == pytest.approx(0.8413447460685429, abs=1e-12)


class TestLayerNorm:
    def test_constant_row_zeros(self):
        x = Tensor(np.full((1, 2, 5), 3.0, dtype=np.float32))
        out = T.layer_norm(x, Tensor(np.ones(5, dtype=np.float32)),
                           Tensor(np.zeros(5, dtype=np.float32)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_two_point_row(self):
        x = Tensor(np.array([[[1.0, -1.0]]], dtype=np.float32))
        out = T.layer_norm(x, Tensor(np.ones(2, dtype=np.float32)),
                           Tensor(np.zeros(2, dtype=np.float32)))
        np.testing.assert_allclose(out.data, [[[1.0, -1.0]]], atol=1e-4)

    def test_normalizes_to_zero_mean(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32))
        out = T.layer_norm(x, Tensor(np.ones(16, dtype=np.float32)),
                           Tensor(np.zeros(16, dtype=np.float32)))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-6
        assert np.allclose(out.data.var(axis=-1), 1.0, atol=1e-3)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 7)).astype(np.float32))
        out = T.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5)).astype(np.float64)
        ls = T.log_softmax(Tensor(x), axis=-1)
        sm = T.softmax(Tensor(x), axis=-1)
        np.testing.assert_allclose(np.exp(ls.data), sm.data, atol=1e-12)


# -- gradient checks on every primitive -----------------------------------------

class _Sigmoid(Module):
    def forward(self, x):
        return T.sigmoid(x)


class TestGradients:
    def _check(self, module, inputs, tol=1e-3):
        report = grad_check(module, inputs, tolerance=tol)
        assert report.passed, str(report)

    def test_transposed_view_input(self):
        # a non-contiguous float64 input is perturbed in the copy that the
        # forward reads, not in a flattened copy of it
        x = np.random.default_rng(38).standard_normal((4, 3)).T
        self._check(FunctionModule(lambda t: t * t), x)

    def test_linear(self):
        rng = np.random.default_rng(10)
        self._check(Linear(4, 3, rng=rng), rng.standard_normal((2, 4)))

    def test_linear_over_last_axis(self):
        rng = np.random.default_rng(30)
        self._check(Linear(4, 3, rng=rng), rng.standard_normal((2, 3, 4)))

    def test_conv2d(self):
        rng = np.random.default_rng(11)
        self._check(Conv2d(2, 3, 3, padding=1, rng=rng), rng.standard_normal((1, 2, 5, 5)))

    def test_conv2d_strided(self):
        rng = np.random.default_rng(12)
        self._check(Conv2d(2, 3, 3, stride=2, padding=1, rng=rng),
                    rng.standard_normal((1, 2, 6, 6)))

    @pytest.mark.parametrize("n,h,w,k,stride,padding", [
        (1, 5, 5, 1, 1, 1),    # padding beyond k - 1: the windows reach past the input
        (1, 5, 5, 3, 1, 3),
        (2, 7, 6, 3, 2, 0),    # w - k = 3 is odd: the last input column is never read
        (2, 7, 8, 5, 3, 1),    # neither side divisible by the stride
        (3, 6, 10, 3, 3, 4),   # padding beyond k - 1 with a stride, batch 3
        (1, 9, 11, 7, 4, 3),   # the patch embedding's kernel, stride and padding
        (1, 9, 7, 1, 2, 0),    # 1x1 with stride 2: 9 and 7 are not stride multiples
        (2, 3, 2, 5, 1, 2),    # input smaller than the kernel, fits only when padded
        (1, 4, 4, 9, 1, 4),    # the 9x9 pyramid conv on a map smaller than its kernel
    ])
    def test_conv2d_backward_shapes(self, n, h, w, k, stride, padding):
        rng = np.random.default_rng(100 + 10 * k + padding)
        conv = Conv2d(2, 3, k, stride=stride, padding=padding, rng=rng)
        x = rng.standard_normal((n, 2, h, w))
        out = conv(Tensor(x.astype(np.float32)))
        ref = oracles.conv2d_oracle(x, conv.weight.data.astype(np.float64),
                                    conv.bias.data.astype(np.float64),
                                    stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)
        self._check(conv, x)

    def test_depthwise_conv(self):
        rng = np.random.default_rng(13)

        class DW(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(rng.standard_normal((3, 3, 3)).astype(np.float32))
                self.b = Parameter(rng.standard_normal(3).astype(np.float32))

            def forward(self, x):
                return T.depthwise_conv3x3(x, self.w, self.b)

        self._check(DW(), rng.standard_normal((2, 4, 4, 3)))

    def test_depthwise_conv_odd_sizes_batch_two(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal((2, 3, 5, 7))
        w = rng.standard_normal((3, 3, 3))
        b = rng.standard_normal(3)
        full = np.zeros((3, 3, 3, 3))
        full[np.arange(3), np.arange(3)] = w
        x_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1))  # grad_check perturbs in place
        out = T.depthwise_conv3x3(Tensor(x_last), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, oracles.conv2d_oracle(x, full, b, padding=1)
                                   .transpose(0, 2, 3, 1), atol=1e-12)
        self._check(FunctionModule(T.depthwise_conv3x3), [x_last, w, b])

    def test_depthwise_conv_without_bias(self):
        rng = np.random.default_rng(31)
        self._check(FunctionModule(T.depthwise_conv3x3),
                    [rng.standard_normal((2, 4, 5, 3)), rng.standard_normal((3, 3, 3))])

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div])
    @pytest.mark.parametrize("a_shape,b_shape", [
        ((2, 3, 4), (2, 3, 4)),
        ((2, 3, 4), (1, 3, 1)),    # size-1 axes on the right operand
        ((1, 3, 1), (2, 3, 4)),    # ... and on the left
        ((2, 1, 4), (2, 3, 1)),    # on both
        ((2, 3), ()),              # 0-d operand
    ])
    def test_binary_broadcasting(self, op, a_shape, b_shape):
        rng = np.random.default_rng(32)
        a = rng.standard_normal(a_shape)
        b = rng.uniform(0.5, 1.5, b_shape) * rng.choice([-1.0, 1.0], b_shape)  # |b| >= 0.5 for div
        self._check(FunctionModule(op), [a, b])

    @pytest.mark.parametrize("fn", [
        lambda t: 0.5 + t,
        lambda t: T.add(0.5, t),
        lambda t: 1.0 - t,
        lambda t: 3.0 * t,
        lambda t: T.mul(3.0, t),
        lambda t: T.div(2.0, t),
        lambda t: t - 1.0,
        lambda t: t / 4.0,
        lambda t: 2.0 / t,
    ], ids=["radd", "add-left", "rsub", "rmul", "mul-left", "div-left", "sub", "div", "rdiv"])
    def test_python_scalar_operands(self, fn):
        rng = np.random.default_rng(33)
        x = rng.uniform(0.5, 1.5, (2, 3))
        self._check(FunctionModule(fn), x)
        t = Tensor(x, requires_grad=True)
        out = fn(t)
        out.sum().backward()
        assert out.data.dtype == np.float64 and t.grad.dtype == np.float64
        assert fn(Tensor(x.astype(np.float32))).data.dtype == np.float32

    def test_max_pool2(self):
        rng = np.random.default_rng(14)
        self._check(FunctionModule(T.max_pool2), rng.standard_normal((2, 2, 4, 4)))

    def test_global_pools(self):
        rng = np.random.default_rng(15)
        self._check(FunctionModule(lambda x: _pooled_rows(x)[0]),
                    rng.standard_normal((2, 3, 4, 4)))
        self._check(FunctionModule(lambda x: _pooled_rows(x)[1]),
                    rng.standard_normal((2, 3, 4, 4)))

    def test_upsample(self):
        rng = np.random.default_rng(16)
        self._check(FunctionModule(lambda x: T.upsample_bilinear(x, 2)),
                    rng.standard_normal((1, 2, 3, 3)))

    def test_activations(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 4, 4)) + 0.05  # keep clear of the relu kink
        for fn in (T.relu, T.sigmoid, T.tanh, T.gelu):
            self._check(FunctionModule(fn), x)

    def test_layer_norm(self):
        rng = np.random.default_rng(18)
        self._check(LayerNorm(6), rng.standard_normal((2, 3, 6)))
        self._check(LayerNorm(6), rng.standard_normal((2, 3, 2, 6)))  # a channel-last map

    def test_softmax_and_matmul(self):
        rng = np.random.default_rng(19)
        self._check(FunctionModule(lambda x: T.softmax(x, axis=-1)),
                    rng.standard_normal((2, 2, 5)))
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        self._check(FunctionModule(T.matmul), [a, b])

    def test_reductions_and_shapes(self):
        rng = np.random.default_rng(20)
        self._check(FunctionModule(lambda x: T.tsum(x, axis=1, keepdims=True)),
                    rng.standard_normal((2, 3, 4)))
        self._check(FunctionModule(lambda x: T.max_along(x, axis=1)),
                    rng.standard_normal((2, 3, 4)))
        self._check(FunctionModule(lambda x: T.concat([T.narrow(x, 1, 0, 2),
                                                       T.narrow(x, 1, 1, 2)], axis=1)),
                    rng.standard_normal((2, 3, 4)))

    def test_corrupted_backward_fails(self):
        class BadSigmoid(Module):
            def forward(self, x):
                out = T.sigmoid(x)
                orig = out._backward

                def flipped(g):
                    orig(-g)  # deliberate sign flip

                out._backward = flipped
                return out

        rng = np.random.default_rng(21)
        report = grad_check(BadSigmoid(), rng.standard_normal((2, 3)))
        assert not report.passed


class TestTapeInvariants:
    def test_backward_shapes_match_forward(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(5).astype(np.float32), requires_grad=True)
        out = T.conv2d(x, w, b, padding=1)
        out.sum().backward()
        assert x.grad.shape == x.data.shape
        assert w.grad.shape == w.data.shape
        assert b.grad.shape == b.data.shape

    def test_forward_deterministic(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        a = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        bb = T.conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        assert np.array_equal(a, bb)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)

    def test_second_backward_adds_the_same_leaf_grad(self):
        x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        y = (x * 3.0) * 2.0
        y.backward()
        assert x.grad[0] == 6.0
        y.backward()
        assert x.grad[0] == 12.0

    def test_shared_first_grad_is_never_accumulated_in_place(self):
        # add hands one upstream gradient to both parents; a later backward must
        # not write through one leaf's gradient into the other's
        a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        for _ in range(2):
            (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])

    def test_item_rejects_non_scalar_naming_shape(self):
        assert Tensor(np.array([[3.0]], dtype=np.float32)).item() == 3.0
        with pytest.raises(ContractViolation, match=r"\(2,\)"):
            Tensor(np.array([1.0, 2.0], dtype=np.float32)).item()

    def test_dtype_preserved_through_graph(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
        out = T.relu(T.conv2d(x, w, None, padding=1)) * 0.5
        assert out.data.dtype == np.float64

    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with T.no_grad():
            y = x * 2.0
        assert y._parents == ()

    def test_no_grad_in_one_thread_keeps_taping_in_another(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        inside, done = threading.Event(), threading.Event()
        seen = {}

        def evaluate():
            with T.no_grad():
                inside.set()
                seen["overlapped"] = done.wait(10)
                seen["eval"] = (x * 2.0)._parents

        def train():
            inside.wait(10)
            seen["train"] = (x * 2.0)._parents
            done.set()

        threads = [threading.Thread(target=f) for f in (evaluate, train)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"overlapped": True, "eval": (), "train": (x,)}

    def test_broadcast_rejected_on_rank_mismatch(self):
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((2, 3, 1), dtype=np.float32))
        with pytest.raises(ContractViolation):
            T.add(a, b)
