"""Independent brute-force references shared across test modules.

Everything here is loop-level numpy/python with no imports from the package
under test, so oracle results cannot inherit production bugs. ``traced`` is
the tracemalloc harness the memory tests share. ``transpose_parameters`` and
``flip_parameters`` map a state dict to the parameters under which the model
commutes with a transpose or a W-flip of its input; they read parameter
names, shapes and the config's fields, not the package.
"""

import math
import tracemalloc

import numpy as np

PYRAMID_KERNELS = (3, 5, 7, 9)


def traced(fn, *args):
    """``fn(*args)`` under tracemalloc: (its result, the peak bytes traced
    while it ran, the bytes it left traced on return)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, now - before


def conv2d_oracle(x, w, b, stride=1, padding=0):
    n, cin, h, wid = x.shape
    cout, _, k, _ = w.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wid + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for nn in range(n):
        for co in range(cout):
            for y in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(k):
                            for j in range(k):
                                acc += w[co, ci, i, j] * xp[nn, ci, y * stride + i, xx * stride + j]
                    out[nn, co, y, xx] = acc + b[co]
    return out


def conv2d_grads_oracle(x, w, g, stride=1, padding=0):
    """Input and weight gradients of sum(g * conv2d_oracle(x, w, 0)), one
    kernel tap at a time: tap (i, j) reads the padded input at
    (y * stride + i, x * stride + j)."""
    _, _, h, wid = x.shape
    k = w.shape[2]
    ho, wo = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for i in range(k):
        for j in range(k):
            sl = (slice(None), slice(None), slice(i, i + stride * (ho - 1) + 1, stride),
                  slice(j, j + stride * (wo - 1) + 1, stride))
            gw[:, :, i, j] = np.einsum("nohw,nchw->oc", g, xp[sl])
            gxp[sl] += np.einsum("oc,nohw->nchw", w[:, :, i, j], g)
    return gxp[:, :, padding:padding + h, padding:padding + wid], gw


def bilinear_oracle(grid, px, py):
    """Clamped bilinear read of a 2-d array at a fractional point."""
    h, w = grid.shape
    cx = min(max(px, 0.0), w - 1.0)
    cy = min(max(py, 0.0), h - 1.0)
    x0 = min(int(math.floor(cx)), max(w - 2, 0))
    y0 = min(int(math.floor(cy)), max(h - 2, 0))
    tx, ty = cx - x0, cy - y0
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    return ((grid[y0, x0] * (1 - tx) + grid[y0, x1] * tx) * (1 - ty)
            + (grid[y1, x0] * (1 - tx) + grid[y1, x1] * tx) * ty)


def chain_points_oracle(center_hw, steps16):
    """Prefix-sum chain: independent re-statement of the iteration rule."""
    h, w = center_hw
    pts = [None] * 9
    pts[4] = (float(w), float(h))
    for c in range(1, 5):
        fx = sum(steps16[4 * (j - 1) + 0] for j in range(1, c + 1))
        fy = sum(steps16[4 * (j - 1) + 1] for j in range(1, c + 1))
        bx = sum(steps16[4 * (j - 1) + 2] for j in range(1, c + 1))
        by = sum(steps16[4 * (j - 1) + 3] for j in range(1, c + 1))
        pts[4 + c] = (w + fx, h + fy)
        pts[4 - c] = (w - bx, h - by)
    return pts


def naive_snake_forward(x, pyramid_ws, pyramid_bs, chain_w, chain_b):
    """Fully naive snake convolution: explicit loops over pyramid offset
    convolutions, bi-directional chain iteration, clamped bilinear sampling,
    and the chain contraction. Shares no code with the production path."""
    n, cin, h, w = x.shape
    cout = chain_w.shape[0]
    out = np.zeros((n, cout, h, w), dtype=np.float64)
    for nn in range(n):
        for hh in range(h):
            for ww in range(w):
                steps = np.zeros(16)
                for li, k in enumerate(PYRAMID_KERNELS):
                    pad = (k - 1) // 2
                    for oc in range(4):
                        acc = float(pyramid_bs[li][oc])
                        for ci in range(cin):
                            for i in range(k):
                                for j in range(k):
                                    yy, xx = hh + i - pad, ww + j - pad
                                    if 0 <= yy < h and 0 <= xx < w:
                                        acc += pyramid_ws[li][oc, ci, i, j] * x[nn, ci, yy, xx]
                        steps[4 * li + oc] = math.tanh(acc)
                pts = chain_points_oracle((hh, ww), steps)
                for co in range(cout):
                    acc = float(chain_b[co])
                    for ci in range(cin):
                        for t in range(9):
                            acc += chain_w[co, ci, t] * bilinear_oracle(
                                x[nn, ci], pts[t][0], pts[t][1])
                    out[nn, co, hh, ww] = acc
    return out


def clamped_row_conv_oracle(x, weights, bias, vertical=False):
    """1x9 (or 9x1) convolution with border-clamped sampling positions."""
    n, cin, h, w = x.shape
    cout = weights.shape[0]
    out = np.zeros((n, cout, h, w), dtype=np.float64)
    for nn in range(n):
        for hh in range(h):
            for ww in range(w):
                for co in range(cout):
                    acc = float(bias[co])
                    for ci in range(cin):
                        for t in range(9):
                            d = t - 4
                            if vertical:
                                yy = min(max(hh + d, 0), h - 1)
                                xx = ww
                            else:
                                yy = hh
                                xx = min(max(ww + d, 0), w - 1)
                            acc += weights[co, ci, t] * x[nn, ci, yy, xx]
                    out[nn, co, hh, ww] = acc
    return out


def _swap_branches(state, name):
    """The array that ``name`` takes from the other snake branch."""
    for a, b in ((".branch_h.", ".branch_v."), (".branch_v.", ".branch_h.")):
        if a in name:
            return np.asarray(state[name.replace(a, b)])
    return np.asarray(state[name])


def transpose_parameters(state, cfg):
    """The map T with ``model(xT; T theta) == model(x; theta)T``, xT the
    input with H and W swapped.

    Every spatial kernel is transposed: the (.., k, k) convs, pyramid levels
    and spatial-attention kernels, and the depthwise (C, 3, 3) ones. The two
    snake branches swap, and each pyramid level's (dx, dy, dx', dy') output
    channels become (dy, dx, dy', dx'). That swaps the first two thirds of a
    snake block's concat, so its channel attention (``w0`` columns, ``w1``
    rows, ``wavg``, ``wmax``) and its ``fuse`` input channels are permuted
    alike. Each ``attn.sr`` reads patches flattened (r_h, r_w, c), so its
    weight columns reorder to (r_w, r_h, c).
    """
    out = {}
    for name in state:
        a = _swap_branches(state, name)
        if ".pyramid." in name:
            a = a[[1, 0, 3, 2]]
        if name.startswith("enc.dsc.") and (".ca." in name or ".fuse.weight" in name):
            cb = cfg.snake_widths[int(name.split(".")[2])]
            perm = np.r_[cb:2 * cb, 0:cb, 2 * cb:3 * cb]
            a = a[:, perm] if name.endswith((".w0", ".fuse.weight")) else a[perm]
        if a.ndim == 4 or name.endswith(".dw_weight"):
            a = a.swapaxes(-1, -2)
        if name.endswith(".attn.sr.weight"):
            c, cols = a.shape
            r = math.isqrt(cols // c)
            a = a.reshape(c, r, r, c).swapaxes(1, 2).reshape(c, cols)
        out[name] = np.ascontiguousarray(a)
    return out


def flip_parameters(state):
    """The map T' of a snake encoder's state with ``enc(x[..., ::-1]; T'
    theta) == enc(x; theta)[..., ::-1]``, every output map flipped along W.

    Every kernel flips along W. A snake conv with pyramid offsets reads its
    chain backwards: each level's forward and backward steps swap and their
    dy channels change sign (tanh is odd), and the chain weights reverse
    along t. A frozen chain has no offsets to map: a horizontal one is read
    backwards, and a vertical one is its own mirror image.
    """
    out = {}
    for name, a in state.items():
        a = np.asarray(a)
        if ".pyramid." in name:
            sign = np.array([1.0, -1.0, 1.0, -1.0]).reshape((4,) + (1,) * (a.ndim - 1))
            a = a[[2, 3, 0, 1]] * sign
        learned = name.replace(".chain.weight", ".pyramid.3.weight") in state
        if name.endswith(".chain.weight") and (learned or ".branch_h." in name):
            a = a[..., ::-1]
        if a.ndim == 4:
            a = a[..., ::-1]
        out[name] = np.ascontiguousarray(a)
    return out
