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
rows, built and applied image by image in blocks of at most ``POINT_BLOCK``
points, forward and backward, so the sampler's scratch memory does not grow
with the map (``grid_sample_points``).

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

from .module import Conv2d, Module, Parameter, _uniform
from .tensor import (ContractViolation, Tensor, _make, concat, conv2d, linear, reshape, tanh,
                     transpose)

PYRAMID_KERNELS = (3, 5, 7, 9)
CHAIN_LEN = 9
OFFSET_CHANNELS = 16  # 8 non-center points x 2 components

# atanh(0.95): initial steps of 0.95 px along the instance axis, so fresh
# instances start as near-straight rows/columns instead of collapsed points
INIT_STEP_BIAS = math.atanh(0.95)

# Points ``grid_sample_points`` reads per block: a block's corner indices,
# weights and matrix values take about 3 MiB at float32, whatever the map size
POINT_BLOCK = 65536


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
    return _make(pts.reshape(n, h * w * CHAIN_LEN, 2), (steps, lambda g: (
        g.reshape(n, h * w, 2 * CHAIN_LEN) @ p).transpose(0, 2, 1).reshape(n, c, h, w)))


def _corners(pb: np.ndarray, first: int, h: int, w: int, idx_t, dtype):
    """CSR column indices (P*4,) and weights (2, 2, P) of bilinear reads at
    the (P, 2) points ``pb`` of one image, whose feature rows start at row
    ``first`` of the channel-last feature (N*H*W, C).

    Each point reads its corners over those rows, in the order (00, 01, 10,
    11): corner 2a+b is y-step a and x-step b. The points are worked on
    axis-major (row 0 x, row 1 y), so each axis is one contiguous row: they
    are clamped to the border, and weight [a] holds (1 - t, t) along axis a.
    Corners stay in the image, so the matrix is block diagonal over the
    batch; along a side of length 1 the two corners coincide.
    """
    pa = pb.T.copy()  # clamped in place below
    top = np.array([[w - 1], [h - 1]], dtype=pb.dtype)
    np.clip(pa, 0.0, top, out=pa)
    low = np.floor(pa)
    np.minimum(low, np.maximum(top - 1, 0), out=low)
    wt = np.empty((2, 2, pa.shape[1]), dtype=dtype)
    np.subtract(pa, low, out=wt[:, 1])
    np.subtract(1.0, wt[:, 1], out=wt[:, 0])
    x0, i00 = low.astype(idx_t)  # corner 00's row first + y * w + x, worked on contiguously
    i00 *= w
    i00 += x0
    i00 += first
    cols = np.empty((pa.shape[1], 4), dtype=idx_t)
    cols[:, 0] = i00
    sx, sy = min(w - 1, 1), min(h - 1, 1) * w
    for corner, step in ((1, sx), (2, sy), (3, sx + sy)):
        np.add(i00, step, out=cols[:, corner])
    return cols.reshape(-1), wt


def _blocks(pd: np.ndarray, m: int, shape: tuple, dtype):
    """The flat (N*M, 2) points ``pd`` of a (N, C, H, W) feature ``shape``,
    image by image, in blocks of at most ``POINT_BLOCK`` consecutive points
    of one image: yields (lo, hi, indptr, cols, wt) for points lo..hi, the
    CSR row pointers and ``_corners`` of the block, built when the block is
    taken. Indices are int32 when a block's corners and the feature rows fit
    in it, else int64: the rule scipy's sparse matrices apply."""
    n, _, h, w = shape
    size = max(min(POINT_BLOCK, m), 1)
    idx_t = np.int32 if max(4 * size, n * h * w) <= np.iinfo(np.int32).max else np.int64
    indptr = np.arange(0, 4 * size + 1, 4, dtype=idx_t)
    for img in range(n):
        for lo in range(img * m, (img + 1) * m, size):
            hi = min(lo + size, (img + 1) * m)
            yield (lo, hi, indptr[:hi - lo + 1]) + _corners(pd[lo:hi], img * h * w, h, w, idx_t,
                                                            dtype)


def _corner_values(ay: np.ndarray, ax: np.ndarray) -> np.ndarray:
    """CSR values whose corner 2a+b of each row holds ``ay[a] * ax[b]``; each
    factor is a (2, P) weight pair or a constant (2,) pair."""
    rows = np.broadcast_shapes(ay.shape[1:], ax.shape[1:])
    vals = np.empty(rows + (4,), dtype=np.result_type(ay, ax))
    for a in range(2):
        for b in range(2):
            np.multiply(ay[a], ax[b], out=vals[:, 2 * a + b])
    return vals.reshape(-1)


def _spmm(indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray, x: np.ndarray,
          y: np.ndarray, transposed: bool = False) -> None:
    """``y += A @ x``, or ``y += A.T @ x``, in place, for the CSR matrix A =
    (vals, cols, indptr) and C-contiguous (rows, C) ``x`` and ``y``.

    These are the kernels scipy's own products run (a single column by the
    one-vector kernel), called on the caller's output: the sums of a block
    go into the same buffer as those of the blocks before it, in the same
    order as one product of the whole matrix. The kernels write through
    ``y.ravel()``, which is ``y`` itself only when ``y`` is C-contiguous, so
    anything else is refused rather than summed into a discarded copy.
    ``scipy.sparse._sparsetools`` is private: it is imported here, not with
    the package, and ``test_spmm_matches_scipy_products`` pins what it does.
    """
    from scipy.sparse import _sparsetools

    for name, a in (("x", x), ("y", y)):
        if a.ndim != 2 or not a.flags.c_contiguous or a.dtype != vals.dtype:
            raise ContractViolation(f"_spmm: {name} must be C-contiguous 2-d {vals.dtype}, "
                                    f"got {a.shape} {a.dtype}")
    points = indptr.size - 1
    shape = (y.shape[0], points) if transposed else (points, x.shape[0])
    kind = "csc" if transposed else "csr"
    if x.shape[1] == 1:
        kernel = getattr(_sparsetools, kind + "_matvec")
        kernel(*shape, indptr, cols, vals, x.ravel(), y.ravel())
    else:
        kernel = getattr(_sparsetools, kind + "_matvecs")
        kernel(*shape, x.shape[1], indptr, cols, vals, x.ravel(), y.ravel())


def _feature_rows(fd: np.ndarray) -> np.ndarray:
    n, c, h, w = fd.shape
    return np.ascontiguousarray(fd.transpose(0, 2, 3, 1)).reshape(n * h * w, c)


def grid_sample_points(feature: Tensor, points: Tensor) -> Tensor:
    """Bilinear reads of ``feature`` (N, C, H, W) at (x, y) points (N, M, 2),
    returned as channel-last rows (N, M, C).

    Points are clamped to the border before weighting; the gradient with
    respect to a clamped coordinate is zero. Differentiable in the feature
    values and the points.

    The reads run image by image in blocks of at most ``POINT_BLOCK``
    consecutive points (``_blocks``), each built, applied and dropped before
    the next, so a call's scratch is bounded by the block, not the map.

    There are two gradient functions, each rebuilding the blocks from the
    points, which the tape keeps. The feature's adds each block's sampling
    matrix, transposed, times that block of the upstream gradient into the
    feature gradient. The points' keeps the feature too: per block, the x
    and y derivative matrices, whose corner weights are the sampling
    weights with the derivative's axis replaced by (-1, 1), times the
    feature rows, each reduced against the upstream gradient. When both
    need a gradient each block is built twice. The sparse products
    accumulate in place (``_spmm``), so every sum runs in point order, as
    one product of the whole map would: outputs and gradients do not depend
    on the block size.
    """
    fd, pd = feature.data, points.data
    if fd.ndim != 4:
        raise ContractViolation(f"feature must be (N, C, H, W), got shape {fd.shape}")
    n, c, h, w = fd.shape
    if pd.ndim != 3 or pd.shape[0] != n or pd.shape[2] != 2:
        raise ContractViolation(f"points {pd.shape} do not match feature {fd.shape}: "
                                f"need (N, M, 2)")
    if not np.isfinite(pd).all():
        raise ContractViolation("non-finite sampling coordinate")

    m = pd.shape[1]
    pflat = pd.reshape(n * m, 2)
    rows = _feature_rows(fd)
    out = np.zeros((n * m, c), dtype=fd.dtype)
    for lo, hi, indptr, cols, wt in _blocks(pflat, m, fd.shape, fd.dtype):
        _spmm(indptr, cols, _corner_values(wt[1], wt[0]), rows, out[lo:hi])
    dtype, shape = fd.dtype, fd.shape  # not ``fd``: only the points' function keeps it

    def grad_feature(g):
        gl = np.ascontiguousarray(g.reshape(n * m, c), dtype=dtype)
        gf = np.zeros((n * h * w, c), dtype=dtype)
        for lo, hi, indptr, cols, wt in _blocks(pflat, m, shape, dtype):
            _spmm(indptr, cols, _corner_values(wt[1], wt[0]), gl[lo:hi], gf, transposed=True)
        return np.ascontiguousarray(gf.reshape(n, h, w, c).transpose(0, 3, 1, 2))

    def grad_points(g):
        gl = np.ascontiguousarray(g.reshape(n * m, c), dtype=dtype)
        rows = _feature_rows(fd)
        step = np.array([-1.0, 1.0], dtype=dtype)
        gp = np.empty((n * m, 2), dtype=dtype)
        top = np.array([w - 1, h - 1], dtype=pflat.dtype)
        deriv = np.empty(min(POINT_BLOCK, m) * c, dtype=dtype)
        for lo, hi, indptr, cols, wt in _blocks(pflat, m, shape, dtype):
            gb = gl[lo:hi]
            d = deriv[:gb.size].reshape(gb.shape)
            for a, (ay, ax) in enumerate(((wt[1], step), (step, wt[0]))):
                d.fill(0)
                _spmm(indptr, cols, _corner_values(ay, ax), rows, d)
                d *= gb
                gp[lo:hi, a] = d.sum(axis=1)
            # a coordinate clamped to the border has no gradient
            gp[lo:hi] *= (pflat[lo:hi] >= 0.0) & (pflat[lo:hi] <= top)
        return gp.reshape(n, m, 2)

    return _make(out.reshape(n, m, c), (feature, grad_feature), (points, grad_points))


def chain_contract(rows: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Contract per-pixel sample rows (N, H, W, 9*Cin), ordered (t, Cin), with
    a (Cout, Cin, 9) weight into (N, Cout, H, W): one ``linear``, fed a contiguous gradient."""
    cout, cin, t = weight.data.shape
    if rows.data.ndim != 4 or rows.data.shape[3] != t * cin:
        raise ContractViolation(
            f"samples {rows.data.shape} do not match weight {weight.data.shape}")
    out = linear(rows, reshape(transpose(weight, (0, 2, 1)), (cout, t * cin)), bias)
    return _make(out.data.transpose(0, 3, 1, 2),
                 (out, lambda g: np.ascontiguousarray(g.transpose(0, 2, 3, 1))))


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
