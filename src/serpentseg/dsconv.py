"""Snake convolution with pyramid offset prediction.

The operator samples nine points per output pixel that form a continuous
chain through the center: per-step displacements are predicted by a pyramid
of convolutions (kernel sizes 3/5/7/9, each sized to the chain distance it
serves), squashed by tanh so every step stays inside (-1, 1), and prefix-
summed outward in both directions at once. The chain values are read with
bilinear interpolation (border-clamped) and contracted against a
(Cout, Cin, 9) weight.

Everything between the offsets and the output works on pixel rows: points
are ordered (n, h, w, t), a point is one (x, y) pair, and samples are
channel-last, so each step is a linear map. A pixel's nine chain points are
its center plus one fixed (18, 16) prefix-sum matrix (``_prefix_matrix``)
times its 16 steps, giving one (N, H*W*9, 2) point tensor; the samples come
back as (N, H*W*9, Cin) rows; and the contraction (``chain_contract``) is
one ``linear`` over rows of 9*Cin samples, built from plain ops with no tape
entry of its own.

The chain points are read by ``tensor.grid_sample_points``, the bilinear
sampler that the decoder's upsampling shares.

Offset channel layout, for chain distance c in 1..4 with base = 4*(c-1):
    base+0: dx of the forward point t+c      base+1: dy of t+c
    base+2: dx of the backward point t-c     base+3: dy of t-c
Chain order everywhere is t-4 .. t+4, so the center sits at index 4.

Every convolution here, as everywhere in the package, is 'same': ``conv2d``
pads k // 2, so the output side is ceil(side / stride), here the input's.
The four pyramid levels run as one 9x9 convolution (``PyramidConv2d``):
each level's (4, Cin, k, k) kernel is embedded centred in the 9x9 support
with zeros around it, which at the 9x9 kernel's padding 4 computes exactly
that level's 'same' convolution, so one ``conv2d`` call serves all 16 offset
channels. The level kernels stay separate parameters ("pyramid.{k}.weight"),
and each receives the centre slice of the fused kernel's gradient.
"""
from __future__ import annotations

import math

import numpy as np

from .module import Conv2d, Module, Parameter, _uniform
from .tensor import (ContractViolation, Tensor, _check_bias, _data, _make, check_int, check_map,
                     concat, conv2d, grid_sample_points, linear, reshape, tanh, transpose)

PYRAMID_KERNELS = (3, 5, 7, 9)
CHAIN_LEN = 9
OFFSET_CHANNELS = 16  # 8 non-center points x 2 components

# atanh(0.95): initial steps of 0.95 px along the instance axis, so fresh
# instances start as near-straight rows/columns instead of collapsed points
INIT_STEP_BIAS = math.atanh(0.95)


def _prefix_matrix(dtype) -> np.ndarray:
    """(18, 16) map from a pixel's steps to its chain offsets.

    Row 2t + a is point t's offset along axis a (0: x, 1: y). Point t+c sums
    the forward steps of distances 1..c along that axis and point t-c
    subtracts the backward ones, a lower-triangular block each; the center
    rows are zero.
    """
    tri = np.tril(np.ones((4, 4), dtype=dtype))
    p = np.zeros((CHAIN_LEN, 2, OFFSET_CHANNELS), dtype=dtype)
    for a in range(2):
        p[5:, a, a::4] = tri
        p[3::-1, a, a + 2::4] = -tri
    return p.reshape(2 * CHAIN_LEN, OFFSET_CHANNELS)


def chain_coordinates(steps: Tensor) -> Tensor:
    """Chain points (N, H*W*9, 2) of the (N, 16, H, W) squashed steps.

    Points are ordered (n, h, w, t), t-4..t+4, with (x, y) last: each pixel's
    center plus its 16 steps times the prefix matrix. The backward is the
    transposed matmul.
    """
    n, c, h, w = check_map("chain_coordinates", steps, OFFSET_CHANNELS)
    sd = steps.data
    p = _prefix_matrix(sd.dtype)
    pts = (sd.reshape(n, c, h * w).transpose(0, 2, 1) @ p.T).reshape(n, h, w, CHAIN_LEN, 2)
    pts[..., 0] += np.arange(w, dtype=sd.dtype)[:, None]
    pts[..., 1] += np.arange(h, dtype=sd.dtype)[:, None, None]
    return _make(pts.reshape(n, h * w * CHAIN_LEN, 2), (steps, lambda g: (
        g.reshape(n, h * w, 2 * CHAIN_LEN) @ p).reshape(n, h, w, c).transpose(0, 3, 1, 2)))


def chain_contract(rows: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Contract per-pixel sample rows (N, H, W, 9*Cin), ordered (t, Cin), with
    a (Cout, Cin, 9) weight into (N, Cout, H, W): one ``linear``, whose
    channel-last output is handed on as a channel-first view."""
    wd = _data("chain_contract", weight)
    if wd.ndim != 3:
        raise ContractViolation(f"chain_contract: need a 3-d weight, got shape {wd.shape}")
    cout, cin, t = wd.shape
    check_map("chain_contract", rows, t * cin, "NHWC")
    _check_bias("chain_contract", bias, cout)
    return transpose(linear(rows, reshape(transpose(weight, (0, 2, 1)), (cout, t * cin)), bias),
                     (0, 3, 1, 2))


def _embed_kernels(weights: list[Tensor]) -> Tensor:
    """Stack kernels (Co_i, Cin, k_i, k_i) along Cout, each centred in a
    shared (sum Co_i, Cin, K, K) support, K the largest k_i."""
    size = max(wt.data.shape[-1] for wt in weights)
    rows = sum(wt.data.shape[0] for wt in weights)
    ref = weights[0].data
    data = np.zeros((rows, ref.shape[1], size, size), dtype=ref.dtype)
    pairs, row = [], 0
    for wt in weights:
        co, _, k, _ = wt.data.shape
        o = (size - k) // 2
        sl = (slice(row, row + co), slice(None), slice(o, o + k), slice(o, o + k))
        data[sl] = wt.data
        pairs.append((wt, lambda g, sl=sl: g[sl]))
        row += co
    return _make(data, *pairs)


class WeightBias(Module):
    """A bare weight and bias pair, for layers that apply them by hand."""

    def __init__(self, weight: Parameter, bias: Parameter):
        self.weight = weight
        self.bias = bias


class PyramidConv2d(Conv2d):
    """The pyramid levels (kernels 3/5/7/9, four channels each) as one 9x9
    'same' convolution; output channels 4i..4i+3 come from level i.

    Each level is a zero (4, Cin, k, k) kernel and a (4,) bias, held as the
    attribute "k"; iterating the module yields the levels in order. The fused
    kernel is assembled from the level parameters on every call, so it holds
    no parameters of its own.
    """

    def __init__(self, cin: int, bias: np.ndarray):
        for k in PYRAMID_KERNELS:
            setattr(self, str(k), WeightBias(
                Parameter(np.zeros((4, cin, k, k), dtype=np.float32)), Parameter(bias.copy())))

    def forward(self, x: Tensor) -> Tensor:
        levels = list(self)
        return conv2d(x, _embed_kernels([lvl.weight for lvl in levels]),
                      concat([lvl.bias for lvl in levels], axis=0))


class SnakeConv2d(Module):
    """Deformable chain convolution over 9 snake points per pixel.

    ``axis`` selects the initial chain orientation: fresh instances start as
    a straight 0.95-px-step row ("horizontal") or column ("vertical").
    ``frozen_offsets`` pins the chain to exact unit steps along the axis and
    detaches it from the tape (the fixed-geometry ablation variant).
    """

    def __init__(self, cin: int, cout: int, axis: str, rng: np.random.Generator,
                 frozen_offsets: bool = False):
        check_int("SnakeConv2d: cin", cin, 1)
        check_int("SnakeConv2d: cout", cout, 1)
        if axis not in ("horizontal", "vertical"):
            raise ContractViolation(f"axis must be horizontal|vertical, got {axis!r}")
        self.axis = axis
        self.cin = cin
        self.frozen_offsets = frozen_offsets
        bound = 1.0 / math.sqrt(cin * CHAIN_LEN)
        # set before ``pyramid``: checkpoint keys list chain.* first
        self.chain = WeightBias(Parameter(_uniform(rng, (cout, cin, CHAIN_LEN), bound)),
                                Parameter(_uniform(rng, (cout,), bound)))
        if not frozen_offsets:
            bias = ([INIT_STEP_BIAS, 0.0, INIT_STEP_BIAS, 0.0] if axis == "horizontal"
                    else [0.0, INIT_STEP_BIAS, 0.0, INIT_STEP_BIAS])
            self.pyramid = PyramidConv2d(cin, np.array(bias, np.float32))

    def compute_pyramid_offsets(self, x: Tensor) -> Tensor:
        """Predict tanh-squashed per-step displacements, (N, 16, H, W); the
        level with kernel 2c+1 serves chain distance c.

        Frozen instances carry no pyramid parameters: their steps are exact
        unit steps along the axis (a straight 9-point line).
        """
        n, _, h, w = check_map("SnakeConv2d.compute_pyramid_offsets", x, self.cin)
        if self.frozen_offsets:
            steps = np.zeros((n, OFFSET_CHANNELS, h, w), dtype=x.data.dtype)
            steps[:, (0 if self.axis == "horizontal" else 1)::2] = 1.0
            return Tensor(steps)
        return tanh(self.pyramid(x))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = check_map("SnakeConv2d", x, self.cin)
        points = chain_coordinates(self.compute_pyramid_offsets(x))
        sampled = reshape(grid_sample_points(x, points), (n, h, w, CHAIN_LEN * c))
        return chain_contract(sampled, self.chain.weight, self.chain.bias)
