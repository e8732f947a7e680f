"""Weighted channel attention against the plain-CBAM reference, spatial
attention against a loop oracle, and gating semantics."""

import numpy as np
import pytest

from gradcheck import FunctionModule, grad_check
from oracles import traced

from serpentseg.attention import (
    ChannelAttention,
    SpatialAttention,
    WeightedChannelAttention,
    attend,
)
from serpentseg.module import Module
from serpentseg.tensor import ContractViolation, Tensor


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def cbam_channel_reference(x, w0, w1):
    """Shared-MLP channel attention computed with plain numpy."""
    favg = x.mean(axis=(2, 3))
    fmax = x.max(axis=(2, 3))

    def mlp(v):
        return np.maximum(v @ w0.T, 0.0) @ w1.T

    return _sigmoid(mlp(favg) + mlp(fmax))[:, :, None, None]


def sam_reference(x, kernel, bias):
    """Stacked mean/max maps, loop 7x7 convolution, sigmoid."""
    n, c, h, w = x.shape
    stacked = np.stack([x.mean(axis=1), x.max(axis=1)], axis=1)
    sp = np.pad(stacked, ((0, 0), (0, 0), (3, 3), (3, 3)))
    out = np.zeros((n, 1, h, w))
    for nn in range(n):
        for y in range(h):
            for xx in range(w):
                acc = bias[0]
                for ci in range(2):
                    for i in range(7):
                        for j in range(7):
                            acc += kernel[0, ci, i, j] * sp[nn, ci, y + i, xx + j]
                out[nn, 0, y, xx] = acc
    return _sigmoid(out)


def tie_branches(w: WeightedChannelAttention):
    w.max.w0.data = w.avg.w0.data.copy()
    w.max.w1.data = w.avg.w1.data.copy()
    w.wavg.data[:] = 1.0
    w.wmax.data[:] = 1.0


class TestWeightedChannelAttention:
    def test_zero_max_weight_ignores_max_branch(self):
        rng = np.random.default_rng(0)
        att = WeightedChannelAttention(8, ratio=4, rng=rng)
        att.wmax.data[:] = 0.0
        x = rng.standard_normal((2, 8, 5, 5)).astype(np.float32)
        base = att(Tensor(x)).data
        att.max.w0.data = rng.standard_normal(att.max.w0.data.shape).astype(np.float32)
        att.max.w1.data = rng.standard_normal(att.max.w1.data.shape).astype(np.float32)
        np.testing.assert_allclose(att(Tensor(x)).data, base, atol=0)

    def test_spatially_constant_input(self):
        rng = np.random.default_rng(1)
        att = WeightedChannelAttention(4, ratio=2, rng=rng)
        v = rng.standard_normal(4).astype(np.float32)
        x = np.broadcast_to(v[None, :, None, None], (1, 4, 6, 6)).copy()
        out = att(Tensor(x)).data[0, :, 0, 0]

        def mlp(row, w0, w1):
            return np.maximum(row @ w0.T, 0.0) @ w1.T

        m_avg = mlp(v, att.avg.w0.data, att.avg.w1.data)
        m_max = mlp(v, att.max.w0.data, att.max.w1.data)
        want = _sigmoid(att.wavg.data * m_avg + att.wmax.data * m_max)
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_tied_branches_match_cbam_reference(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            att = WeightedChannelAttention(8, ratio=4, rng=np.random.default_rng(50 + trial))
            tie_branches(att)
            x = rng.standard_normal((2, 8, 4, 4)).astype(np.float32)
            ref = cbam_channel_reference(x.astype(np.float64),
                                         att.avg.w0.data.astype(np.float64),
                                         att.avg.w1.data.astype(np.float64))
            np.testing.assert_allclose(att(Tensor(x)).data, ref, atol=1e-6)

    def test_matches_plain_channel_attention_module(self):
        rng = np.random.default_rng(3)
        att = WeightedChannelAttention(8, ratio=4, rng=np.random.default_rng(60))
        tie_branches(att)
        cam = ChannelAttention(8, ratio=4, rng=np.random.default_rng(61))
        cam.w0.data = att.avg.w0.data.copy()
        cam.w1.data = att.avg.w1.data.copy()
        x = Tensor(rng.standard_normal((2, 8, 5, 5)).astype(np.float32))
        np.testing.assert_allclose(att(x).data, cam(x).data, atol=1e-6)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        att = WeightedChannelAttention(8, ratio=4, rng=rng)
        x = Tensor((5.0 * rng.standard_normal((3, 8, 6, 6))).astype(np.float32))
        out = att(x).data
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        att = WeightedChannelAttention(6, ratio=2, rng=rng)
        x = rng.standard_normal((2, 6, 4, 4)).astype(np.float32)
        base = att(Tensor(x)).data
        perm = rng.permutation(6)
        permuted = WeightedChannelAttention(6, ratio=2, rng=np.random.default_rng(5))
        permuted.avg.w0.data = att.avg.w0.data[:, perm].copy()
        permuted.avg.w1.data = att.avg.w1.data[perm, :].copy()
        permuted.max.w0.data = att.max.w0.data[:, perm].copy()
        permuted.max.w1.data = att.max.w1.data[perm, :].copy()
        permuted.wavg.data = att.wavg.data[perm].copy()
        permuted.wmax.data = att.wmax.data[perm].copy()
        out = permuted(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out, base[:, perm], atol=1e-6)

    def test_bad_ratio_rejected_at_construction(self):
        with pytest.raises(ContractViolation):
            WeightedChannelAttention(6, ratio=4, rng=np.random.default_rng(6))


class TestSpatialAttention:
    def test_constant_input_gives_constant_map(self):
        rng = np.random.default_rng(7)
        sam = SpatialAttention(rng=rng)
        x = Tensor(np.full((1, 3, 8, 8), 0.3, dtype=np.float32))
        out = sam(x).data
        interior = out[0, 0, 3:-3, 3:-3]
        assert np.ptp(interior) < 1e-6

    def test_zero_kernel_gives_half(self):
        sam = SpatialAttention(rng=np.random.default_rng(8))
        sam.kernel.data[:] = 0.0
        sam.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(9).standard_normal((2, 3, 6, 6)).astype(np.float32))
        np.testing.assert_allclose(sam(x).data, 0.5, atol=1e-7)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        sam = SpatialAttention(rng=rng)
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        ref = sam_reference(x.astype(np.float64), sam.kernel.data.astype(np.float64),
                            sam.bias.data.astype(np.float64))
        np.testing.assert_allclose(sam(Tensor(x)).data, ref, atol=1e-6)

    def test_output_inside_unit_interval(self):
        rng = np.random.default_rng(11)
        sam = SpatialAttention(rng=rng)
        out = sam(Tensor((4.0 * rng.standard_normal((2, 5, 7, 7))).astype(np.float32))).data
        assert np.all((out > 0.0) & (out < 1.0))


class _Gate(Module):
    """A stub attention module whose gate is a fixed tensor."""

    def __init__(self, gate):
        self.gate = gate

    def forward(self, x):
        return self.gate


def _attend_fixed(x, ca, sa):
    """``attend`` with the fixed channel gate ``ca`` and spatial map ``sa``."""
    return attend(x, _Gate(ca), _Gate(sa))


class TestApplyAttention:
    """``attend``'s channel-then-spatial gating, with fixed gates."""

    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        ca = Tensor(np.ones((2, 3, 1, 1), dtype=np.float32))
        sa = Tensor(np.ones((2, 1, 4, 4), dtype=np.float32))
        np.testing.assert_array_equal(_attend_fixed(Tensor(x), ca, sa).data, x)

    def test_zero_channel_attention_zeroes_output(self):
        x = Tensor(np.ones((1, 2, 3, 3), dtype=np.float32))
        ca = Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32))
        sa = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        np.testing.assert_array_equal(_attend_fixed(x, ca, sa).data, 0.0)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 4, 5))
        ca = rng.random((2, 3, 1, 1))
        sa = rng.random((2, 1, 4, 5))
        out = _attend_fixed(Tensor(x), Tensor(ca), Tensor(sa)).data
        want = np.empty_like(x)
        for n in range(2):
            for c in range(3):
                for h in range(4):
                    for w in range(5):
                        want[n, c, h, w] = x[n, c, h, w] * ca[n, c, 0, 0] * sa[n, 0, h, w]
        np.testing.assert_array_equal(out, want)

    def test_shape_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))
        ca, bad_ca = (Tensor(np.zeros((1, c, 1, 1), dtype=np.float32)) for c in (2, 3))
        sa, bad_sa = (Tensor(np.zeros((1, 1, s, 3), dtype=np.float32)) for s in (3, 2))
        with pytest.raises(ContractViolation, match=r"channel attention \(1, 3, 1, 1\)"):
            _attend_fixed(x, bad_ca, sa)
        with pytest.raises(ContractViolation, match=r"spatial attention \(1, 1, 2, 3\)"):
            _attend_fixed(x, ca, bad_sa)


class TestAttend:
    def test_gates_like_apply_attention_or_the_spatial_map_alone(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((2, 4, 5, 5)).astype(np.float32))
        ca = WeightedChannelAttention(4, ratio=2, rng=rng)
        sa = SpatialAttention(rng=rng)
        np.testing.assert_array_equal(attend(x, ca, sa).data, (x * ca(x) * sa(x)).data)
        np.testing.assert_array_equal(attend(x, None, sa).data, (x * sa(x)).data)


class _Composed(Module):
    """``attend`` with a learned spatial map and a channel gate of ``kind``
    (None for none)."""

    def __init__(self, rng, kind=WeightedChannelAttention, channels=4):
        super().__init__()
        self.ca = None if kind is None else kind(channels, ratio=2, rng=rng)
        self.sa = SpatialAttention(rng=rng)

    def forward(self, x):
        return attend(x, self.ca, self.sa)


class TestAttendTape:
    @pytest.mark.parametrize("kind", [WeightedChannelAttention, ChannelAttention, None])
    def test_grad_check_with_every_operand_taped(self, kind):
        # x, the channel gate and the spatial map all carry gradients, and x
        # reaches the loss through both gates too
        rng = np.random.default_rng(20)
        report = grad_check(_Composed(rng, kind), rng.standard_normal((2, 4, 5, 6)),
                            tolerance=1e-3)
        assert report.passed, str(report)

    @pytest.mark.parametrize("kind", [WeightedChannelAttention, ChannelAttention, None])
    def test_taped_gate_keeps_no_map_of_the_input_size_but_its_output(self, kind):
        # besides the output, the tape keeps the gates' small maps (the
        # spatial map, its stacked mean/max input, a uint8 max index and the
        # channel gate's pooled rows): 4.0-6.2 channels' worth of the 16
        # here; keeping the channel-gated map for the spatial map's gradient
        # added all 16
        rng = np.random.default_rng(21)
        mod = _Composed(rng, kind, channels=16)
        x = Tensor(rng.standard_normal((2, 16, 32, 32)).astype(np.float32), requires_grad=True)
        out, _, kept = traced(mod, x)
        assert kept - out.data.nbytes < 0.5 * x.data.nbytes, kept
        out.sum().backward()
        assert x.grad.shape == x.data.shape


class TestAttentionGradients:
    def test_wcam_grad_check(self):
        rng = np.random.default_rng(14)
        att = WeightedChannelAttention(4, ratio=2, rng=rng)
        report = grad_check(att, rng.standard_normal((2, 4, 4, 4)), tolerance=1e-3)
        assert report.passed, str(report)

    def test_sam_grad_check(self):
        rng = np.random.default_rng(15)
        sam = SpatialAttention(rng=rng)
        report = grad_check(sam, rng.standard_normal((1, 3, 6, 6)), tolerance=1e-3)
        assert report.passed, str(report)

    def test_cam_grad_check(self):
        rng = np.random.default_rng(16)
        cam = ChannelAttention(4, ratio=2, rng=rng)
        report = grad_check(cam, rng.standard_normal((2, 4, 4, 4)), tolerance=1e-3)
        assert report.passed, str(report)

    def test_composition_grad_check(self):
        rng = np.random.default_rng(17)
        mod = _Composed(rng)
        report = grad_check(mod, rng.standard_normal((1, 4, 5, 5)), tolerance=1e-3)
        assert report.passed, str(report)

    def test_apply_attention_grad_check(self):
        rng = np.random.default_rng(18)
        mod = FunctionModule(_attend_fixed)
        report = grad_check(
            mod,
            [rng.standard_normal((1, 2, 3, 3)), rng.random((1, 2, 1, 1)),
             rng.random((1, 1, 3, 3))],
            tolerance=1e-3,
        )
        assert report.passed, str(report)
