"""Primitive-layer tests: every op against a naive loop oracle, and the
drivers of the op table (``ops.OPS``) for its operand and tape rules; the
table's gradient checks are in test_ops.py."""

import ast
import os
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import oracles
from gradcheck import FunctionModule, grad_check
from ops import OPS
from serpentseg import tensor as T
from serpentseg.attention import _pooled_rows
from serpentseg.dsconv import chain_contract
from serpentseg.module import Conv2d, Module, Parameter
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


def upsample_oracle(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w), dtype=np.float64)
    for oy in range(2 * h):
        for ox in range(2 * w):
            sy = min(max((oy + 0.5) / 2 - 0.5, 0.0), h - 1.0)
            sx = min(max((ox + 0.5) / 2 - 0.5, 0.0), w - 1.0)
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
        out = T.conv2d(x, w, b)
        assert out.data[0, 0, 1, 1] == pytest.approx(9.0)

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 3, 5, 6)).astype(np.float32))
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = T.conv2d(x, Tensor(w), Tensor(np.zeros(3, dtype=np.float32)))
        np.testing.assert_allclose(out.data, x.data, rtol=0, atol=0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b))
        ref = oracles.conv2d_oracle(x.astype(np.float64), w.astype(np.float64),
                                    b.astype(np.float64), padding=1)
        np.testing.assert_allclose(out.data, ref, atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 3), (4, 3)])
    def test_strides_and_padding(self, stride, padding):
        # every conv is 'same': the kernel whose padding k // 2 is ``padding``
        rng = np.random.default_rng(stride * 10 + padding)
        k = 2 * padding + 1
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        w = rng.standard_normal((3, 2, k, k)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride)
        ref = oracles.conv2d_oracle(x.astype(np.float64), w.astype(np.float64),
                                    b.astype(np.float64), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)

    @pytest.mark.parametrize("stride", [0, -1, 1.5, True])
    def test_bad_stride_raises(self, stride):
        x = Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32))
        w = Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ContractViolation, match="conv2d: stride must be an int"):
            T.conv2d(x, w, None, stride=stride)

    def test_conv2d_layer_with_zero_stride_raises(self):
        conv = Conv2d(2, 3, 3, stride=0, rng=np.random.default_rng(0))
        with pytest.raises(ContractViolation, match="stride must be an int >= 1, got 0"):
            conv(Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32)))

    def test_numpy_integer_stride_accepted(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 7, 7)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), None, stride=np.int64(2))
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
        out, _, kept = oracles.traced(lambda: T.conv2d(x, w, None))
        assert out.data.shape == (2, 8, 40, 40)
        assert kept <= 2 * padded_bytes, kept

    def test_pointwise_forward_makes_no_shift_copy(self):
        # a 1x1 conv at stride 1 is one batched GEMM of the
        # input's pixels straight into the output, so the forward holds its
        # output; copying the input into a padded layout peaked at twice this
        # bound
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 16, 40, 40)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 16, 1, 1)).astype(np.float32), requires_grad=True)
        out, peak, _ = oracles.traced(lambda: T.conv2d(x, w, None))
        ref = oracles.conv2d_oracle(x.data.astype(np.float64), w.data.astype(np.float64),
                                    np.zeros(8))
        np.testing.assert_allclose(out.data, ref, atol=1e-4)
        assert peak <= 2 * out.data.nbytes, peak

    def test_input_gradient_keeps_memory_bounded(self):
        # the input gradient is one correlation of the (2, 16, 40, 40) output
        # gradient: its 9 column shifts (3.5x the input here) and the result
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 64, 40, 40)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 64, 9, 9)).astype(np.float32))
        loss = T.conv2d(x, w, None).sum()
        _, peak, _ = oracles.traced(loss.backward)
        assert x.grad.shape == x.data.shape
        assert peak <= 10 * x.data.nbytes, peak

    @pytest.mark.parametrize("k,stride", [(3, 1), (1, 1), (3, 2)])
    def test_empty_batch_gives_empty_output_and_zero_weight_gradient(self, k, stride):
        x = Tensor(np.zeros((0, 2, 5, 5), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((3, 2, k, k), dtype=np.float32), requires_grad=True)
        out = T.conv2d(x, w, None, stride=stride)
        T.tsum(out).backward()
        side = (5 - 1) // stride + 1
        assert out.data.shape == (0, 3, side, side)
        assert x.grad.shape == x.data.shape
        np.testing.assert_array_equal(w.grad, np.zeros_like(w.data))

    @pytest.mark.parametrize("shape", [(1, 2, 0, 5), (1, 2, 5, 0), (0, 2, 0, 0)])
    def test_empty_map_raises_naming_its_shape(self, shape):
        # an empty batch of nonempty maps is fine (above); an empty map is not
        x = Tensor(np.zeros(shape, dtype=np.float32))
        w = Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32))
        with pytest.raises(ContractViolation, match=re.escape(f"conv2d: empty map {shape}")):
            T.conv2d(x, w, None)

    @pytest.mark.parametrize("x_shape,w_shape", [
        ((1, 0, 5, 5), (3, 0, 3, 3)),
        ((1, 2, 5, 5), (0, 2, 3, 3)),
    ])
    def test_zero_channels_raise(self, x_shape, w_shape):
        x = Tensor(np.zeros(x_shape, dtype=np.float32))
        w = Tensor(np.zeros(w_shape, dtype=np.float32))
        with pytest.raises(ContractViolation, match="no input or output channels"):
            T.conv2d(x, w, None)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
        with pytest.raises(ContractViolation, match=r"\(1, 3, 4, 4\)"):
            T.conv2d(x, w, Tensor(np.zeros(2, dtype=np.float32)))


class TestConvTiles:
    """conv2d with ``CONV_TILE_BYTES`` shrunk, so that each image runs in
    several bands of output rows, against the float64 oracles."""

    @staticmethod
    def _record_tiles(monkeypatch) -> list:
        """Make ``_kernel_tiles`` record each band's image and output rows."""
        bands, kernel_tiles = [], T._kernel_tiles

        def recording(*args):
            for nn, ys, views in kernel_tiles(*args):
                bands.append((nn, ys.start, ys.stop))
                yield nn, ys, views

        monkeypatch.setattr(T, "_kernel_tiles", recording)
        return bands

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("k,pad", [
        # padding k // 2, and k - 1 and k + 1 as the 'same' conv of the input
        # zero-extended by pad - k // 2: above k - 1 the first and last bands
        # can lie wholly in the zero rows
        pytest.param(k, pad, id=f"{k}" if pad == k // 2 else f"{k}-pad{pad}")
        for k in (1, 3, 7, 9) for pad in sorted({k // 2, k - 1, k + 1})])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 3])
    def test_tiled_forward_and_gradients_match_oracles(self, monkeypatch, n, stride, k, pad,
                                                        rows):
        rng = np.random.default_rng(40 + k + n)
        cin, cout, h, w = 2, 3, 11, 9
        x = rng.standard_normal((n, cin, h, w))
        wd = rng.standard_normal((cout, cin, k, k))
        # the budget of forward bands of ``rows`` output rows, which span
        # (rows - 1) * stride + 1 grid rows: their shifts, with the k - 1
        # rows below, and two buffers of their outputs
        wq = -(-(w + 2 * pad) // stride)
        grid = (rows - 1) * stride + 1
        monkeypatch.setattr(T, "CONV_TILE_BYTES",
                            4 * wq * ((cin * k + 2 * cout) * grid + cin * k * (k - 1)))
        bands = self._record_tiles(monkeypatch)
        e = pad - k // 2
        xt = Tensor(np.pad(x, ((0, 0), (0, 0), (e, e), (e, e))).astype(np.float32),
                    requires_grad=True)
        wt = Tensor(wd.astype(np.float32), requires_grad=True)
        out = T.conv2d(xt, wt, None, stride=stride)
        forward = list(bands)
        g = rng.standard_normal(out.data.shape)
        T.tsum(out * Tensor(g.astype(np.float32))).backward()

        np.testing.assert_allclose(out.data, self._oracle(x, wd, stride, pad), atol=1e-4)
        gx, gw = oracles.conv2d_grads_oracle(x, wd, g, stride, pad)
        np.testing.assert_allclose(xt.grad[:, :, e:e + h, e:e + w], gx, atol=1e-4)
        np.testing.assert_allclose(wt.grad, gw, atol=1e-4)
        if k == 1 and stride == 1:  # pointwise: one GEMM, no bands
            assert forward == []
            return
        ho = out.data.shape[2]
        # every output row of every image exactly once, in bands of ``rows``
        # rows but a shorter last one in each image
        assert [nn for nn, _, _ in forward] == sorted(nn for nn, _, _ in forward)
        for nn in range(n):
            spans = [(lo, hi) for i, lo, hi in forward if i == nn]
            assert [lo for lo, _ in spans] == list(range(0, ho, rows))
            assert [hi for _, hi in spans] == [min(lo + rows, ho) for lo, _ in spans]

    _oracles: dict = {}

    @classmethod
    def _oracle(cls, x, wd, stride, pad):
        # the loop-level forward oracle, once per input and not per band size
        key = (x.tobytes(), x.shape, wd.tobytes(), wd.shape, stride, pad)
        if key not in cls._oracles:
            cls._oracles[key] = oracles.conv2d_oracle(x, wd, np.zeros(wd.shape[0]), stride, pad)
        return cls._oracles[key]

    def test_forward_holds_its_output_and_one_tile(self):
        # a 3x3 conv of a (1, 32, 256, 256) map to 16 channels: copying the k
        # column shifts of the whole map (25 MB) peaked at 34.3 MB, and the
        # zero-padded layout of the whole map (8.1 MiB) at 14.2 MiB; besides
        # the output, a tile holds its budget and the padded rows its shifts
        # are copied from, under the budget again (6.5 MiB in all)
        rng = np.random.default_rng(41)
        x = Tensor(rng.standard_normal((1, 32, 256, 256)).astype(np.float32))
        w = Tensor(rng.standard_normal((16, 32, 3, 3)).astype(np.float32))
        out, peak, _ = oracles.traced(lambda: T.conv2d(x, w, None))
        assert out.data.shape == (1, 16, 256, 256)
        assert peak <= out.data.nbytes + 2 * T.CONV_TILE_BYTES, peak

    def test_backward_holds_its_gradients_and_one_tile(self):
        # the backward of the conv above holds the output gradient, the input
        # gradient and one tile (as above) at a time, the weight gradient's
        # tiles gathering their own columns of the output gradient (14.3 MiB
        # in all); the input's zero-padded layout and the output gradient
        # spread onto its grid peaked at 18.1 MiB, and copying the k shifts
        # of the whole grid at 36.8 MiB
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((1, 32, 256, 256)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((16, 32, 3, 3)).astype(np.float32), requires_grad=True)
        out = T.conv2d(x, w, None)
        loss = out.sum()
        _, peak, _ = oracles.traced(loss.backward)
        assert x.grad.shape == x.data.shape and w.grad.shape == w.data.shape
        assert peak <= out.data.nbytes + x.data.nbytes + 2 * T.CONV_TILE_BYTES, peak


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


@pytest.mark.parametrize("op,x_shape,w_shape", [
    (T.conv2d, (1, 2, 4, 4), (3, 2, 3, 3)),
    (T.depthwise_conv3x3, (1, 4, 4, 3), (3, 3, 3)),
    (T.linear, (2, 4), (3, 4)),
    (chain_contract, (1, 2, 2, 18), (3, 2, 9)),
], ids=["conv2d", "depthwise_conv3x3", "linear", "chain_contract"])
@pytest.mark.parametrize("b_shape", [(1,), (4,), (1, 3)])
def test_bias_needs_one_value_per_output_channel(op, x_shape, w_shape, b_shape):
    # a (1,) bias would broadcast over every output without the check
    x, w, b = (Tensor(np.zeros(shape, dtype=np.float32)) for shape in (x_shape, w_shape, b_shape))
    words = f"{op.__name__}: bias {b_shape} does not match (3,)"
    with pytest.raises(ContractViolation, match=re.escape(words)):
        op(x, w, b)


@pytest.mark.parametrize("op,x_shape,w_shape", [
    (T.conv2d, (1, 2, 4, 4), (3, 18)),
    (T.conv2d, (1, 2, 4, 4), (3, 2, 3, 3, 1)),
    (chain_contract, (1, 2, 2, 18), (3, 18)),
    (chain_contract, (1, 2, 2, 18), (3, 2, 9, 1)),
], ids=["conv2d-2d", "conv2d-5d", "chain_contract-2d", "chain_contract-4d"])
def test_weight_of_another_rank_raises(op, x_shape, w_shape):
    # chain_contract unpacked the weight's shape, which raised numpy's ValueError
    x, w, b = (Tensor(np.zeros(shape, dtype=np.float32)) for shape in (x_shape, w_shape, (3,)))
    rank = 4 if op is T.conv2d else 3
    words = f"{op.__name__}: need a {rank}-d weight, got shape {w_shape}"
    with pytest.raises(ContractViolation, match=re.escape(words)):
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

    def test_taped_forward_keeps_an_index_not_its_input(self):
        # the tape kept the (4, N, C, H/2, W/2) window copy, 5.0x the output
        # with the output itself; a uint8 window index is a quarter of it
        x = Tensor(np.random.default_rng(43).standard_normal((2, 8, 64, 64)).astype(np.float32),
                   requires_grad=True)
        out, _, kept = oracles.traced(T.max_pool2, x)
        assert kept <= 1.5 * out.data.nbytes, kept

    def test_forward_without_tape_runs_no_argmax(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("argmax in a forward without the tape")

        x = Tensor(np.random.default_rng(44).standard_normal((1, 2, 4, 4)), requires_grad=True)
        monkeypatch.setattr(T.np, "argmax", refuse)
        with T.no_grad():
            T.max_pool2(x)
        T.max_along(Tensor(x.data), axis=1)  # no gradient flows to a plain tensor

    def test_gradient_reaches_positions_past_255(self):
        # a 300-long axis needs a uint16 index; uint8 would wrap 280 to 24
        a = np.zeros((2, 300))
        a[0, 280], a[1, 24] = 1.0, 1.0
        x = Tensor(a, requires_grad=True)
        T.tsum(T.max_along(x, axis=1)).backward()
        np.testing.assert_array_equal(x.grad, a)


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

    @pytest.mark.parametrize("op,call,axis", [
        ("softmax", lambda a: T.softmax(a, axis=1), 1),
        ("log_softmax", lambda a: T.log_softmax(a, axis=-1), -1),
        ("layer_norm", lambda a: T.layer_norm(a, Parameter(np.ones(0)), Parameter(np.zeros(0))),
         -1),
    ], ids=["softmax", "log_softmax", "layer_norm"])
    def test_normalizing_an_empty_axis_raises(self, op, call, axis):
        # numpy raises ValueError for the softmaxes; layer_norm warned and gave NaN
        with pytest.raises(ContractViolation,
                           match=re.escape(f"{op}: empty axis {axis} in shape (2, 0)")):
            call(Tensor(np.zeros((2, 0), dtype=np.float32)))


class TestShapeSurgery:
    @pytest.mark.parametrize("shapes", [[], [(2, 3), (3, 3)], [(2, 3), (2, 3, 1)]])
    def test_concat_of_nothing_or_mismatched_shapes_raises(self, shapes):
        parts = [Tensor(np.zeros(s, dtype=np.float32)) for s in shapes]
        with pytest.raises(ContractViolation,
                           match=re.escape(f"concat: shapes {shapes} do not agree off axis 1")):
            T.concat(parts, axis=1)

    @pytest.mark.parametrize("op,call,named", [
        ("softmax", lambda a: T.softmax(a, axis=5), "axis 5"),
        ("log_softmax", lambda a: T.log_softmax(a, axis=5), "axis 5"),
        ("tsum", lambda a: T.tsum(a, axis=5), "axis 5"),
        ("tsum", lambda a: T.tsum(a, axis=(0, -3)), "axis (0, -3)"),
        ("tmean", lambda a: T.tmean(a, axis=5), "axis 5"),
        ("max_along", lambda a: T.max_along(a, axis=5), "axis 5"),
        ("concat", lambda a: T.concat([a, a], axis=5), "axis 5"),
        ("reshape", lambda a: T.reshape(a, (4,)), "(4,)"),
        ("transpose", lambda a: T.transpose(a, (0, 0)), "(0, 0)"),
        ("transpose", lambda a: T.transpose(a, (0,)), "(0,)"),
        ("max_along", lambda a: T.max_along(a, axis=(1, 2)), "axis (1, 2)"),
        ("concat", lambda a: T.concat([a, a], axis=(1,)), "axis (1,)"),
        ("max_along", lambda a: T.max_along(a, axis=1.0), "axis 1.0"),
        ("tsum", lambda a: T.tsum(a, axis=1.0), "axis 1.0"),
        ("tsum", lambda a: T.tsum(a, axis=(1, -1)), "axis (1, -1) repeats"),
        ("tmean", lambda a: T.tmean(a, axis=(0, 0)), "axis (0, 0) repeats"),
        ("reshape", lambda a: T.reshape(a, "a"), "'a'"),
        ("transpose", lambda a: T.transpose(a, 5), "axes 5"),
    ], ids=["softmax", "log_softmax", "tsum", "tsum-tuple", "tmean", "max_along", "concat",
            "reshape", "transpose-repeated", "transpose-short", "max_along-tuple",
            "concat-tuple", "max_along-float", "tsum-float", "tsum-repeated", "tmean-repeated",
            "reshape-str", "transpose-int"])
    def test_bad_axis_or_shape_raises_naming_op_and_shapes(self, op, call, named):
        # numpy raises AxisError, IndexError, TypeError or ValueError here,
        # none of them a ContractViolation
        with pytest.raises(ContractViolation) as err:
            call(Tensor(np.zeros((2, 3), dtype=np.float32)))
        msg = str(err.value)
        assert msg.startswith(f"{op}: ") and named in msg and "(2, 3)" in msg, msg

    @pytest.mark.parametrize("op,call,named", [
        ("add", lambda t: T.add(t, None), "NoneType"),
        ("mul", lambda t: T.mul(t, {"a": 1}), "dict"),
        ("add", lambda t: T.add(1.0, 2.0), "float and float"),
        ("concat", lambda t: T.concat(5, axis=0), "int"),
    ], ids=["none", "dict", "no-tensor", "concat-int"])
    def test_binary_ops_lift_only_numeric_operands(self, op, call, named):
        # numpy returned NaN for None and raised ValueError, TypeError or
        # AttributeError for the others; concat's list() a TypeError
        with pytest.raises(ContractViolation) as err:
            call(Tensor(np.zeros((2, 3), dtype=np.float32)))
        msg = str(err.value)
        assert msg.startswith(f"{op}: ") and named in msg, msg

    @pytest.mark.parametrize("kind", [list, np.asarray])
    @pytest.mark.parametrize("op_id,pos", [
        pytest.param(op_id, i, id=op_id if i == 0 else f"{op_id}-{list(row.shapes)[i]}")
        for op_id, row in OPS.items() for i in row.tensors])
    def test_ops_name_an_operand_that_is_not_a_tensor(self, op_id, pos, kind):
        # a list raised AttributeError, and an ndarray, whose ``.data`` is a
        # memoryview, a TypeError from inside the op
        row = OPS[op_id]
        args = [Tensor(a) for a in row.operands(np.random.default_rng(0), np.float32)]
        args[pos] = kind(args[pos].data.tolist())
        # an entry point that takes a map refuses a non-Tensor in its map check
        name = row.map[1] if row.map else op_id.split("-")[0]
        words = f"{name}: needs a Tensor, got {type(args[pos]).__name__}"
        with pytest.raises(ContractViolation, match=f"^{re.escape(words)}$"):
            row.call(*args)

    @pytest.mark.parametrize("call", [
        lambda a, last: T.softmax(a, axis=last),
        lambda a, last: T.tsum(a, axis=(0, last)),
        lambda a, last: T.tmean(a, axis=last, keepdims=True),
        lambda a, last: T.max_along(a, axis=last, keepdims=False),
        lambda a, last: T.concat([a, a], axis=last),
        lambda a, last: T.transpose(a, (0, last, 1)),
    ], ids=["softmax", "tsum", "tmean", "max_along", "concat", "transpose"])
    def test_negative_axes_count_from_the_end(self, call):
        # axis -1 of a (2, 3, 4) tensor is axis 2, in the value and the gradient
        rng = np.random.default_rng(45)
        x = rng.standard_normal((2, 3, 4))
        runs = []
        for last in (2, -1):
            t = Tensor(x, requires_grad=True)
            out = call(t, last)
            weights = np.arange(out.data.size, dtype=np.float64).reshape(out.data.shape)
            T.tsum(out * Tensor(weights)).backward()
            runs.append((out.data, t.grad))
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)


class TestUpsampleBilinear:
    def test_constant(self):
        x = Tensor(np.full((1, 2, 3, 3), 0.7, dtype=np.float32))
        out = T.upsample_bilinear(x)
        assert out.data.shape == (1, 2, 6, 6)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-7)

    def test_one_pixel(self):
        x = Tensor(np.array([[[[2.5]]]], dtype=np.float32))
        out = T.upsample_bilinear(x)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 2.5))

    def test_ramp_matches_formula_oracle(self):
        h = w = 4
        ramp = (np.arange(h)[:, None] + 2.0 * np.arange(w)[None, :]).astype(np.float32)
        x = ramp.reshape(1, 1, h, w)
        out = T.upsample_bilinear(Tensor(x))
        ref = upsample_oracle(x.astype(np.float64))
        np.testing.assert_allclose(out.data, ref, atol=1e-6)

    @pytest.mark.parametrize("n_in", [1, 2, 3, 7])
    def test_float64_matches_oracle(self, n_in):
        # square and non-square maps with a side of n_in, in float64, against
        # the loop-level row rule
        rng = np.random.default_rng(46)
        for hw in ((n_in, n_in), (n_in, 5), (3, n_in)):
            x = rng.standard_normal((2, 3) + hw)
            out = T.upsample_bilinear(Tensor(x))
            assert out.data.dtype == np.float64
            np.testing.assert_allclose(out.data, upsample_oracle(x), rtol=0, atol=1e-12)

    def test_taped_upsample_keeps_one_grid_for_the_batch(self):
        # the tape keeps the output and the sampler's (H'*W', 2) point grid,
        # broadcast over the 4 images; a grid per image kept 4 of them, as
        # much again as this 2-channel output
        x = Tensor(np.ones((4, 2, 32, 32), dtype=np.float32), requires_grad=True)
        T.upsample_bilinear(x)  # the sampler's first call imports its kernels
        out, _, kept = oracles.traced(T.upsample_bilinear, x)
        grid = 64 * 64 * 2 * 4
        assert out.data.nbytes == 4 * grid
        assert kept <= out.data.nbytes + 1.5 * grid, kept

    def test_empty_batch(self):
        x = Tensor(np.zeros((0, 2, 3, 4), dtype=np.float32), requires_grad=True)
        out = T.upsample_bilinear(x)
        assert out.data.shape == (0, 2, 6, 8)
        out.sum().backward()
        assert x.grad.shape == (0, 2, 3, 4)


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

    @pytest.mark.parametrize("dtype,value", [(np.float32, -100.0), (np.float64, -1000.0)])
    def test_sigmoid_of_a_large_negative_input_is_zero_without_a_warning(self, dtype, value):
        # exp(-value) overflows to inf, which numpy warned of, and pytest.ini
        # makes a RuntimeWarning an error
        x = Tensor(np.array([value], dtype=dtype), requires_grad=True)
        out = T.sigmoid(x)
        out.sum().backward()
        assert out.data[0] == 0.0 and x.grad[0] == 0.0

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


# -- gradient checks the op table does not hold --------------------------------

class TestGradients:
    def _check(self, module, inputs, tol=1e-3):
        report = grad_check(module, inputs, tolerance=tol)
        assert report.passed, str(report)

    def test_transposed_view_input(self):
        # a non-contiguous float64 input is perturbed in the copy that the
        # forward reads, not in a flattened copy of it
        x = np.random.default_rng(38).standard_normal((4, 3)).T
        self._check(FunctionModule(lambda t: t * t), x)

    @pytest.mark.parametrize("n,h,w,k,stride,padding", [
        # padding k // 2, or beyond it as the 'same' conv of the input
        # zero-extended by padding - k // 2
        (1, 5, 5, 1, 1, 1),    # padding beyond k - 1: the windows reach past the input
        (1, 5, 5, 3, 1, 3),
        (2, 7, 6, 3, 2, 1),    # h = 7 is not a stride multiple, w = 6 is
        (2, 7, 8, 5, 3, 2),    # neither side divisible by the stride
        (3, 6, 10, 3, 3, 4),   # padding beyond k - 1 with a stride, batch 3
        (1, 9, 11, 7, 4, 3),   # the patch embedding's kernel and stride
        (1, 9, 7, 1, 2, 0),    # 1x1 with stride 2: 9 and 7 are not stride multiples
        (2, 3, 2, 5, 1, 2),    # input smaller than the kernel
        (1, 4, 4, 9, 1, 4),    # the 9x9 pyramid conv on a map smaller than its kernel
    ])
    def test_conv2d_backward_shapes(self, n, h, w, k, stride, padding):
        rng = np.random.default_rng(100 + 10 * k + padding)
        conv = Conv2d(2, 3, k, stride=stride, rng=rng)
        x = rng.standard_normal((n, 2, h, w))
        e = padding - k // 2
        xe = np.pad(x, ((0, 0), (0, 0), (e, e), (e, e)))
        out = conv(Tensor(xe.astype(np.float32)))
        ref = oracles.conv2d_oracle(x, conv.weight.data.astype(np.float64),
                                    conv.bias.data.astype(np.float64),
                                    stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, ref, atol=1e-4)
        self._check(conv, xe)

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
        out = T.conv2d(x, w, b)
        out.sum().backward()
        assert x.grad.shape == x.data.shape
        assert w.grad.shape == w.data.shape
        assert b.grad.shape == b.data.shape

    def test_forward_deterministic(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        a = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        bb = T.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.array_equal(a, bb)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        y = x * x + x * 3.0
        y.sum().backward()
        assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)

    def test_second_backward_through_a_consumed_tape_raises(self):
        x = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        y = (x * 3.0) * 2.0
        y.backward()
        assert x.grad[0] == 6.0
        with pytest.raises(ContractViolation, match="earlier backward.. consumed this tape"):
            y.backward()
        assert x.grad[0] == 6.0

    def test_backward_frees_what_a_closure_captured_while_the_loss_lives(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        h = x * 2.0  # an op output whose array only the conv's weight gradient keeps
        loss = T.conv2d(h, w).sum()
        ref = weakref.ref(h.data)
        del h
        assert ref() is not None
        loss.backward()
        assert ref() is None
        # the consumed entries keep their parents, and a closure that is not None
        assert loss._backward is not None and loss._parents

    def test_a_new_loss_on_a_consumed_tape_raises_before_any_gradient_changes(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        y = x * 3.0
        y.sum().backward()
        # w reaches the new loss only through new nodes, which would run first
        loss = (y * w + w * w).sum()
        with pytest.raises(ContractViolation, match="consumed this tape"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        assert w.grad is None and loss.grad is None

    def test_a_raising_gradient_function_leaves_every_gradient_as_it_was(self):
        def boom(g):
            raise RuntimeError("boom")

        x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        w.grad = np.array([5.0, 5.0], dtype=np.float32)
        held = w.grad
        # both products run first and add into x and w before the failing node
        y = T._make(x.data.copy(), (x, boom))
        z = (x * 2.0 + w * 3.0 + y).sum()
        with pytest.raises(RuntimeError, match="boom"):
            z.backward()
        assert x.grad is None
        assert w.grad is held
        np.testing.assert_array_equal(w.grad, [5.0, 5.0])
        assert z.grad is None

    def test_shared_first_grad_is_never_accumulated_in_place(self):
        # add hands one upstream gradient to both parents; a later backward must
        # not write through one leaf's gradient into the other's
        a = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        for _ in range(2):
            (a + b).sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])

    def test_gradient_functions_receive_c_contiguous_gradients(self):
        # the tape's one layout rule: a transpose hands its operand a strided
        # view, which the operand's node copies before its function reads it;
        # a 0-d loss keeps its 0-d gradient
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        seen = []

        def record(g):
            seen.append((g.shape, g.flags.c_contiguous))
            return g

        y = T._make(x.data * 2.0, (x, record))
        loss = T._make(np.asarray(y.data.sum()), (T.transpose(y, (1, 0)),
                                                 lambda g: np.full((3, 2), record(g))))
        loss.backward()
        assert seen == [((), True), ((2, 3), True)]
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_requires_grad_reads_whether_the_tape_records_the_tensor(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert x.requires_grad and not Tensor(np.ones(3)).requires_grad
        assert (x * 2.0).requires_grad
        with T.no_grad():
            assert not (x * 2.0).requires_grad

    def test_clearing_the_grad_of_an_untaped_input_keeps_it_untaped(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32), requires_grad=True)
        x.grad = None
        T.conv2d(x, w).sum().backward()
        assert x.grad is None and not x.requires_grad
        assert w.grad is not None
        with pytest.raises(ContractViolation, match=r"untaped tensor of shape \(1, 1, 4, 4\)"):
            x.grad = np.zeros((1, 1, 4, 4), dtype=np.float32)

    def test_backward_of_a_loss_made_under_no_grad_raises(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with T.no_grad():
            loss = (w * w).sum()
        with pytest.raises(ContractViolation, match=r"untaped tensor of shape \(\)"):
            loss.backward()
        assert w.grad is None

    def test_item_rejects_non_scalar_naming_shape(self):
        assert Tensor(np.array([[3.0]], dtype=np.float32)).item() == 3.0
        with pytest.raises(ContractViolation, match=r"\(2,\)"):
            Tensor(np.array([1.0, 2.0], dtype=np.float32)).item()

    def test_dtype_preserved_through_graph(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float64), requires_grad=True)
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
        out = T.relu(T.conv2d(x, w, None)) * 0.5
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
        assert seen == {"overlapped": True, "eval": (), "train": (x._entry,)}

    def test_broadcast_rejected_on_rank_mismatch(self):
        a = Tensor(np.zeros((2, 3), dtype=np.float32))
        b = Tensor(np.zeros((2, 3, 1), dtype=np.float32))
        with pytest.raises(ContractViolation):
            T.add(a, b)


def _tape_cases():
    """One case per tape pattern of a row; its id names the taped operands
    after the row's, unless every operand is taped."""
    for op_id, row in OPS.items():
        for pattern in row.tape:
            taped = [name for name, c in zip(row.shapes, pattern) if c != "."]
            suffix = "" if len(taped) == len(row.shapes) else "-" + "-".join(taped)
            yield pytest.param(op_id, pattern, id=op_id + suffix)


@pytest.mark.parametrize("op_id,pattern", list(_tape_cases()))
def test_tape_frees_arrays_that_backward_does_not_read(op_id, pattern):
    row = OPS[op_id]
    codes = pattern.replace("->", "")

    def leaf_grads(drop: bool):
        rng = np.random.default_rng(30)
        leaves, inputs = [], []
        for a, c in zip(row.operands(rng), codes):
            if c == ".":
                inputs.append(Tensor(a))
            else:  # an op output only the caller holds
                leaves.append(Tensor(a, requires_grad=True))
                inputs.append(leaves[-1] * 2.0)
        out = row.call(*inputs)
        # the weighting keeps its constant weight, not ``out``
        loss = T.tsum(out * Tensor(rng.standard_normal(out.data.shape)))
        # the inputs and the output marked "f" must be freed once dropped
        refs = [weakref.ref(t.data) for t, c in zip(inputs + [out], codes) if c == "f"]
        if drop:
            del inputs, out
            assert all(r() is None for r in refs), [r() is None for r in refs]
        loss.backward()
        return [leaf.grad for leaf in leaves]

    for kept, dropped in zip(leaf_grads(False), leaf_grads(True)):
        np.testing.assert_array_equal(kept, dropped)


# -- layering ------------------------------------------------------------------

def _import_time_imports(node):
    """Modules the statements under ``node`` import when it is executed: not
    those inside function bodies, which import when called."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Import):
            yield from (alias.name for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            yield from (f"{child.module}.{alias.name}" for alias in child.names)
        yield from _import_time_imports(child)


def test_tensor_loads_no_other_package_module():
    code = "import sys, serpentseg.tensor; print([m for m in sys.modules if 'serpentseg' in m])"
    src = str(Path(T.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert sorted(ast.literal_eval(out)) == ["serpentseg", "serpentseg.tensor"], out


def test_no_package_module_imports_scipy_sparse_at_import_time():
    # the sampler reaches scipy's sparse kernels only when it runs
    modules = sorted(Path(T.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        names = list(_import_time_imports(ast.parse(path.read_text())))
        assert not [m for m in names if m.startswith("scipy.sparse")], (path.name, names)
