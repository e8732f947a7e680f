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
back as (N, H*W*9, Cin) rows; and the contraction is one ``linear`` over
rows of 9*Cin samples.

The bilinear reads are a sparse matrix of corner weights over the feature
rows, built from the points and dropped after forward: the tape keeps only
the point tensor and, for the point gradient, the feature, and backward
rebuilds the corner indices and weights from the points, then the matrices
of the feature gradient and of the x and y derivatives one at a time.

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
from .tensor import (ContractViolation, Tensor, _make, _tape, concat, conv2d, linear, reshape,
                     tanh, transpose)

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
    sd = steps.data
    n, c, h, w = sd.shape
    if c != OFFSET_CHANNELS:
        raise ContractViolation(f"offset field needs 16 channels, got shape {sd.shape}")
    p = _prefix_matrix(sd.dtype)
    pts = (sd.reshape(n, c, h * w).transpose(0, 2, 1) @ p.T).reshape(n, h, w, CHAIN_LEN, 2)
    pts[..., 0] += np.arange(w, dtype=sd.dtype)[:, None]
    pts[..., 1] += np.arange(h, dtype=sd.dtype)[:, None, None]
    es = _tape(steps)

    def bwd(g):
        gs = g.reshape(n, h * w, 2 * CHAIN_LEN) @ p
        es._accum(gs.transpose(0, 2, 1).reshape(n, c, h, w))

    return _make(pts.reshape(n, h * w * CHAIN_LEN, 2), (es,), bwd)


def _corners(pd: np.ndarray, h: int, w: int, dtype):
    """CSR column indices (N*M*4,), row pointers (N*M+1,), weights
    (2, 2, N*M) and in-border mask (2, N*M) of bilinear reads at points
    (N, M, 2).

    Row n*M + m reads point m's corners over the rows of the channel-last
    feature (N*H*W, C), in the order (00, 01, 10, 11): corner 2a+b is y-step
    a and x-step b. The points are worked on axis-major (row 0 x, row 1 y),
    so each axis is one contiguous row: they are clamped to the border, and
    weight [a] holds (1 - t, t) along axis a. Corners stay in the point's
    own image, so the matrix is block diagonal over the batch; along a side
    of length 1 the two corners coincide.
    """
    n, m, _ = pd.shape
    pa = pd.reshape(n * m, 2).T.copy()  # clamped in place below
    hi = np.array([[w - 1], [h - 1]], dtype=pd.dtype)
    inside = (pa >= 0.0) & (pa <= hi)
    np.clip(pa, 0.0, hi, out=pa)
    lo = np.floor(pa)
    np.minimum(lo, np.maximum(hi - 1, 0), out=lo)
    wt = np.empty((2, 2, n * m), dtype=dtype)
    np.subtract(pa, lo, out=wt[:, 1])
    np.subtract(1.0, wt[:, 1], out=wt[:, 0])
    idx_t = get_index_dtype(maxval=max(4 * n * m, n * h * w))
    cols = np.empty((n, m, 4), dtype=idx_t)
    i00 = cols[..., 0]
    i00[...] = lo[1].reshape(n, m)
    i00 *= w
    i00 += lo[0].reshape(n, m).astype(idx_t)
    i00 += (np.arange(n, dtype=idx_t) * (h * w))[:, None]
    sx, sy = min(w - 1, 1), min(h - 1, 1) * w
    for corner, step in ((1, sx), (2, sy), (3, sx + sy)):
        np.add(i00, step, out=cols[..., corner])
    indptr = np.arange(0, 4 * n * m + 1, 4, dtype=idx_t)
    return cols.reshape(-1), indptr, wt, inside


def _corner_matrix(ay: np.ndarray, ax: np.ndarray, cols: np.ndarray, indptr: np.ndarray,
                   shape: tuple[int, int]) -> csr_array:
    """CSR matrix whose corner 2a+b of each row holds ``ay[a] * ax[b]``; each
    factor is a (2, N*M) weight pair or a constant (2,) pair."""
    vals = np.empty((indptr.size - 1, 4), dtype=np.result_type(ay, ax))
    for a in range(2):
        for b in range(2):
            np.multiply(ay[a], ax[b], out=vals[:, 2 * a + b])
    return csr_array((vals.reshape(-1), cols, indptr), shape=shape)


def _feature_rows(fd: np.ndarray) -> np.ndarray:
    n, c, h, w = fd.shape
    return np.ascontiguousarray(fd.transpose(0, 2, 3, 1)).reshape(n * h * w, c)


def grid_sample_points(feature: Tensor, points: Tensor) -> Tensor:
    """Bilinear reads of ``feature`` (N, C, H, W) at (x, y) points (N, M, 2),
    returned as channel-last rows (N, M, C).

    Points are clamped to the border before weighting; the gradient with
    respect to a clamped coordinate is zero. Differentiable in the feature
    values and the points.

    The tape keeps only the points, and the feature when the points need a
    gradient: forward builds the sparse sampling matrix of corner weights,
    applies it to the channel-last feature rows and drops both. Backward
    rebuilds the indices and weights from the points (``_corners``) and, one
    at a time, the matrices of the feature gradient (the sampling matrix,
    transposed) and of the x and y derivatives, whose corner weights are the
    sampling weights with the derivative's axis replaced by (-1, 1).
    """
    fd, pd = feature.data, points.data
    n, c, h, w = fd.shape
    if pd.ndim != 3 or pd.shape[0] != n or pd.shape[2] != 2:
        raise ContractViolation(f"points {pd.shape} do not match feature {fd.shape}: "
                                f"need (N, M, 2)")
    if not np.isfinite(pd).all():
        raise ContractViolation("non-finite sampling coordinate")

    m = pd.shape[1]
    shape = (n * m, n * h * w)
    cols, indptr, wt, _ = _corners(pd, h, w, fd.dtype)
    out = _corner_matrix(wt[1], wt[0], cols, indptr, shape) @ _feature_rows(fd)
    ef, ep = _tape(feature), _tape(points)
    dtype = fd.dtype
    fkept = fd if ep is not None else None  # only the point gradient reads the feature

    def bwd(g):
        cols, indptr, wt, inside = _corners(pd, h, w, dtype)
        gl = g.reshape(n * m, c)
        if ef is not None:
            gf = _corner_matrix(wt[1], wt[0], cols, indptr, shape).T @ gl
            ef._accum(np.ascontiguousarray(gf.reshape(n, h, w, c).transpose(0, 3, 1, 2)))
        if ep is None:
            return
        rows = _feature_rows(fkept)
        step = np.array([-1.0, 1.0], dtype=dtype)
        gp = np.empty((2, n * m), dtype=dtype)
        for a, (ay, ax) in enumerate(((wt[1], step), (step, wt[0]))):
            deriv = _corner_matrix(ay, ax, cols, indptr, shape) @ rows
            deriv *= gl
            gp[a] = deriv.sum(axis=1)
            del deriv  # before the next product is built
        gp *= inside
        ep._accum(gp.T.reshape(n, m, 2))

    return _make(out.reshape(n, m, c), (ef, ep), bwd)


def chain_contract(rows: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Contract per-pixel sample rows (N, H, W, 9*Cin), ordered (t, Cin), with
    a (Cout, Cin, 9) weight into (N, Cout, H, W): one ``linear``."""
    cout, cin, t = weight.data.shape
    if rows.data.ndim != 4 or rows.data.shape[3] != t * cin:
        raise ContractViolation(
            f"samples {rows.data.shape} do not match weight {weight.data.shape}")
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
    entries = tuple(_tape(wt) for wt in weights)

    def bwd(g):
        for e, sl in zip(entries, slices):
            if e is not None:
                e._accum(g[sl])

    return _make(data, entries, bwd)


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
        n, _, h, w = x.data.shape
        if self.frozen_offsets:
            steps = np.zeros((n, OFFSET_CHANNELS, h, w), dtype=x.data.dtype)
            steps[:, (0 if self.axis == "horizontal" else 1)::2] = 1.0
            return Tensor(steps)
        return tanh(self.pyramid(x))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.data.shape
        if c != self.cin:
            raise ContractViolation(
                f"input {x.data.shape} does not match configured {self.cin} channels"
            )
        points = chain_coordinates(self.compute_pyramid_offsets(x))
        sampled = reshape(grid_sample_points(x, points), (n, h, w, CHAIN_LEN * c))
        return chain_contract(sampled, self.chain.weight, self.chain.bias)
