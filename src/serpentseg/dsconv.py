"""Snake convolution with pyramid offset prediction.

The operator samples nine points per output pixel that form a continuous
chain through the center: per-step displacements are predicted by a pyramid
of convolutions (kernel sizes 3/5/7/9, each sized to the chain distance it
serves), squashed by tanh so every step stays inside (-1, 1), and prefix-
summed outward in both directions at once. The chain values are read with
bilinear interpolation (border-clamped) and contracted against a
(Cout, Cin, 9) weight.

Everything between the offsets and the output works on pixel rows: points
are ordered (n, h, w, t) and samples are channel-last, so each step is a
linear map. Per axis, a pixel's nine chain coordinates are its center plus
a fixed (9, 16) prefix-sum matrix (``_prefix_matrix``) times its 16 steps;
the samples come back as (N, H*W*9, Cin) rows; and the contraction is one
``linear`` over rows of 9*Cin samples.

Offset channel layout, for chain distance c in 1..4 with base = 4*(c-1):
    base+0: dx of the forward point t+c      base+1: dy of t+c
    base+2: dx of the backward point t-c     base+3: dy of t-c
Chain order everywhere is t-4 .. t+4, so the center sits at index 4.

The four pyramid levels run as one 9x9 convolution (``PyramidConv2d``):
each level's (4, Cin, k, k) kernel is embedded centred in the 9x9 support
with zeros around it, which with padding 4 computes exactly that level's
'same' convolution, so one ``conv2d`` call serves all 16 offset channels. The
level kernels stay separate parameters ("pyramid.{k}.weight"), and each
receives the centre slice of the fused kernel's gradient.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_array, get_index_dtype

from .module import Conv2d, Module, Parameter, _uniform
from .tensor import (ContractViolation, Tensor, _make, concat, conv2d, linear, reshape, tanh,
                     transpose)

PYRAMID_KERNELS = (3, 5, 7, 9)
CHAIN_LEN = 9
OFFSET_CHANNELS = 16  # 8 non-center points x 2 components

# atanh(0.95): initial steps of 0.95 px along the instance axis, so fresh
# instances start as near-straight rows/columns instead of collapsed points
INIT_STEP_BIAS = math.atanh(0.95)
# tanh(20) rounds to 1.0 even in float64: exact unit steps for frozen chains
STRAIGHT_BIAS = 20.0


def _prefix_matrix(component: int, dtype) -> np.ndarray:
    """(9, 16) map from the steps to chain offsets along one axis.

    ``component`` 0 is the x axis (dx channels), 1 the y axis. Row 4+c (point
    t+c) sums the forward steps of distances 1..c and row 4-c subtracts the
    backward ones, a lower-triangular block each; the center row is zero.
    """
    tri = np.tril(np.ones((4, 4), dtype=dtype))
    p = np.zeros((CHAIN_LEN, OFFSET_CHANNELS), dtype=dtype)
    p[5:, component::4] = tri
    p[3::-1, component + 2::4] = -tri
    return p


def _chain_axis(steps: Tensor, component: int, center: np.ndarray) -> Tensor:
    """One coordinate of the chain as pixel rows (N, H, W, 9): ``center``
    (H*W,) plus the prefix-sum matrix applied to the pixel's 16 steps."""
    sd = steps.data
    n, c, h, w = sd.shape
    p = _prefix_matrix(component, sd.dtype)
    rows = sd.reshape(n, c, h * w).transpose(0, 2, 1) @ p.T
    rows += center[:, None]

    def bwd(g):
        steps._accum((g.reshape(n, h * w, CHAIN_LEN) @ p).transpose(0, 2, 1).reshape(n, c, h, w))

    return _make(rows.reshape(n, h, w, CHAIN_LEN), (steps,), bwd)


def chain_coordinates(s: Tensor) -> tuple[Tensor, Tensor]:
    """Dense chain coordinates (xs, ys), each (N, 9, H, W), order t-4..t+4,
    from the (N, 16, H, W) squashed steps; both are transposed views of
    pixel rows (N, H, W, 9)."""
    n, c, h, w = s.data.shape
    if c != OFFSET_CHANNELS:
        raise ContractViolation(f"offset field needs 16 channels, got shape {s.data.shape}")
    dt = s.data.dtype
    centers = (np.tile(np.arange(w, dtype=dt), h), np.repeat(np.arange(h, dtype=dt), w))
    return tuple(transpose(_chain_axis(s, i, ctr), (0, 3, 1, 2))
                 for i, ctr in enumerate(centers))


def grid_sample_points(feature: Tensor, x: Tensor, y: Tensor) -> Tensor:
    """Bilinear reads of ``feature`` (N, C, H, W) at flat point lists (N, M),
    returned as channel-last rows (N, M, C).

    Coordinates are clamped to the border before weighting; the gradient with
    respect to a clamped coordinate is zero. Differentiable in the feature
    values and both coordinates.
    """
    fd, xd, yd = feature.data, x.data, y.data
    n, c, h, w = fd.shape
    if xd.shape != yd.shape or xd.shape[0] != n or xd.ndim != 2:
        raise ContractViolation(
            f"points {xd.shape}/{yd.shape} do not match feature {fd.shape}"
        )
    if not (np.isfinite(xd).all() and np.isfinite(yd).all()):
        raise ContractViolation("non-finite sampling coordinate")

    m = xd.shape[1]
    xc = np.clip(xd, 0.0, w - 1.0)
    yc = np.clip(yd, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xc), max(w - 2, 0))
    y0 = np.minimum(np.floor(yc), max(h - 2, 0))
    tx = (xc - x0).astype(fd.dtype, copy=False)
    ty = (yc - y0).astype(fd.dtype, copy=False)
    ux = 1.0 - tx
    uy = 1.0 - ty

    # Row n*M + m of the sampling matrix holds point m's corner weights
    # (00, 01, 10, 11) over the rows of the channel-last feature (N*H*W, C).
    # Corners stay in the point's own image, so the matrix is block diagonal
    # over the batch; along a side of length 1 the two corners coincide.
    shape = (n * m, n * h * w)
    idx_t = get_index_dtype(maxval=max(4 * n * m, n * h * w))
    cols = np.empty((n, m, 4), dtype=idx_t)
    i00 = y0.astype(idx_t) * w
    i00 += x0.astype(idx_t)
    i00 += (np.arange(n, dtype=idx_t) * (h * w))[:, None]
    sx, sy = min(w - 1, 1), min(h - 1, 1) * w
    cols[..., 0] = i00
    np.add(i00, sx, out=cols[..., 1])
    np.add(i00, sy, out=cols[..., 2])
    np.add(i00, sx + sy, out=cols[..., 3])
    cols = cols.reshape(-1)
    indptr = np.arange(0, 4 * n * m + 1, 4, dtype=idx_t)

    def corner_matrix(w00, w01, w10, w11):
        vals = np.empty((n, m, 4), dtype=fd.dtype)
        for i, wi in enumerate((w00, w01, w10, w11)):
            vals[..., i] = wi
        return csr_array((vals.reshape(-1), cols, indptr), shape=shape)

    sample = corner_matrix(ux * uy, tx * uy, ux * ty, tx * ty)
    rows = np.ascontiguousarray(fd.transpose(0, 2, 3, 1)).reshape(n * h * w, c)

    def bwd(g):
        gl = g.reshape(n * m, c)
        if feature.needs_grad:
            gf = (sample.T @ gl).reshape(n, h, w, c)
            feature._accum(np.ascontiguousarray(gf.transpose(0, 3, 1, 2)))
        if x.needs_grad:
            dx = ((corner_matrix(-uy, uy, -ty, ty) @ rows) * gl).sum(axis=1).reshape(n, m)
            x._accum(dx * ((xd >= 0.0) & (xd <= w - 1.0)))
        if y.needs_grad:
            dy = ((corner_matrix(-ux, -tx, ux, tx) @ rows) * gl).sum(axis=1).reshape(n, m)
            y._accum(dy * ((yd >= 0.0) & (yd <= h - 1.0)))

    return _make((sample @ rows).reshape(n, m, c), (feature, x, y), bwd)


def chain_contract(sampled: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Contract per-pixel samples (N, H, W, 9, Cin) with a (Cout, Cin, 9)
    weight into (N, Cout, H, W): one ``linear`` over rows of 9*Cin samples."""
    n, h, w, t, cin = sampled.data.shape
    cout = weight.data.shape[0]
    if weight.data.shape[1:] != (cin, t):
        raise ContractViolation(
            f"samples {sampled.data.shape} do not match weight {weight.data.shape}")
    rows = reshape(sampled, (n, h, w, t * cin))
    return transpose(linear(rows, reshape(transpose(weight, (0, 2, 1)), (cout, t * cin)), bias),
                     (0, 3, 1, 2))


def _embed_kernels(weights: list[Tensor]) -> Tensor:
    """Stack kernels (Co_i, Cin, k_i, k_i) along Cout, each centred in a
    shared (sum Co_i, Cin, K, K) support, K the largest k_i."""
    size = max(wt.data.shape[-1] for wt in weights)
    rows = sum(wt.data.shape[0] for wt in weights)
    ref = weights[0].data
    data = np.zeros((rows, ref.shape[1], size, size), dtype=ref.dtype)
    slices, row = [], 0
    for wt in weights:
        co, _, k, _ = wt.data.shape
        o = (size - k) // 2
        sl = (slice(row, row + co), slice(None), slice(o, o + k), slice(o, o + k))
        data[sl] = wt.data
        slices.append(sl)
        row += co

    def bwd(g):
        for wt, sl in zip(weights, slices):
            if wt.needs_grad:
                wt._accum(g[sl])

    return _make(data, tuple(weights), bwd)


class WeightBias(Module):
    """A bare weight and bias pair, for layers that apply them by hand."""

    def __init__(self, weight: Parameter, bias: Parameter):
        self.weight = weight
        self.bias = bias


class PyramidConv2d(Conv2d):
    """The pyramid levels (kernels 3/5/7/9, four channels each) as one 9x9
    convolution with padding 4; output channels 4i..4i+3 come from level i.

    Each level is a zero (4, Cin, k, k) kernel and a (4,) bias, held as the
    attribute "k"; iterating the module yields the levels in order. The fused
    kernel is assembled from the level parameters on every call, so it holds
    no parameters of its own.
    """

    def __init__(self, cin: int, bias: np.ndarray):
        self.stride = 1
        self.padding = PYRAMID_KERNELS[-1] // 2
        for k in PYRAMID_KERNELS:
            setattr(self, str(k), WeightBias(
                Parameter(np.zeros((4, cin, k, k), dtype=np.float32)), Parameter(bias.copy())))

    def __iter__(self):
        return iter(self._modules.values())

    def forward(self, x: Tensor) -> Tensor:
        levels = list(self)
        return conv2d(x, _embed_kernels([lvl.weight for lvl in levels]),
                      concat([lvl.bias for lvl in levels], axis=0),
                      padding=self.padding)


class SnakeConv2d(Module):
    """Deformable chain convolution over 9 snake points per pixel.

    ``axis`` selects the initial chain orientation: fresh instances start as
    a straight 0.95-px-step row ("horizontal") or column ("vertical").
    ``frozen_offsets`` pins the chain to exact unit steps along the axis and
    detaches it from the tape (the fixed-geometry ablation variant).
    """

    def __init__(self, cin: int, cout: int, axis: str, rng: np.random.Generator,
                 frozen_offsets: bool = False):
        if axis not in ("horizontal", "vertical"):
            raise ContractViolation(f"axis must be horizontal|vertical, got {axis!r}")
        self.axis = axis
        self.cin = cin
        self.cout = cout
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

        Frozen instances carry no pyramid parameters: their offsets are the
        constant saturated straight-chain pattern.
        """
        n, _, h, w = x.data.shape
        dt = x.data.dtype
        if self.frozen_offsets:
            pattern = np.zeros(OFFSET_CHANNELS, dtype=dt)
            start = 0 if self.axis == "horizontal" else 1
            pattern[start::4][0:4] = STRAIGHT_BIAS
            pattern[start + 2::4][0:4] = STRAIGHT_BIAS
            raw = np.broadcast_to(pattern.reshape(1, -1, 1, 1), (n, OFFSET_CHANNELS, h, w))
            return Tensor(np.tanh(raw))
        return tanh(self.pyramid(x))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.data.shape
        if c != self.cin:
            raise ContractViolation(
                f"input {x.data.shape} does not match configured {self.cin} channels"
            )
        xs, ys = chain_coordinates(self.compute_pyramid_offsets(x))
        xr, yr = (reshape(transpose(a, (0, 2, 3, 1)), (n, h * w * CHAIN_LEN)) for a in (xs, ys))
        sampled = reshape(grid_sample_points(x, xr, yr), (n, h, w, CHAIN_LEN, c))
        return chain_contract(sampled, self.chain.weight, self.chain.bias)
