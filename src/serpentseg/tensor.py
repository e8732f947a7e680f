"""Dense tensors with tape-based reverse-mode differentiation.

Every operation records a backward closure on the output node; ``backward()``
replays the tape in reverse topological order. Values are float32 on
production paths, but all ops preserve the incoming dtype so the gradient
checker can re-run a graph in float64.

Broadcasting is deliberately narrow: elementwise ops accept equal shapes or
equal-rank shapes where one operand has size-1 axes (bias-add and per-channel
or per-position scaling). Anything else raises ``ContractViolation``.
"""
from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf as _erf


class ContractViolation(ValueError):
    """An operation was called with inputs that break its contract."""


# a context variable, so a thread inside ``no_grad`` leaves other threads taping
_GRAD_ENABLED = contextvars.ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Tensor:
    """N-d array plus optional gradient buffer and tape linkage.

    Feature maps are (N, C, H, W), or channel-last (N, H, W, C) inside the
    transformer branch; losses are 0-d. ``grad`` is filled by ``backward()``
    and has the same shape as ``data``.
    """

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None

    # -- tape plumbing ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def needs_grad(self) -> bool:
        return self.requires_grad or bool(self._parents)

    def _accum(self, g: np.ndarray) -> None:
        # kept as given, even if shared: accumulation allocates, nothing writes .grad in place
        if self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape."""
        if self.data.size != 1:
            raise ContractViolation(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # leaf grads accumulate across calls; a kept intermediate grad
                # would be added in again by the next backward()
                node.grad = None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() requires a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def check_int(name: str, value, lowest: int) -> None:
    """Raise ``ContractViolation`` naming ``name`` unless ``value`` is an int
    (numpy integers included, bools not) of at least ``lowest``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lowest:
        raise ContractViolation(f"{name} must be an int >= {lowest}, got {value!r}")


def _check_bias(op: str, bias: Tensor | None, cout: int) -> None:
    """Raise ``ContractViolation`` unless ``bias`` is None or of shape (cout,)."""
    if bias is not None and bias.data.shape != (cout,):
        raise ContractViolation(f"{op}: bias {bias.data.shape} does not match {(cout,)}")


def _lift(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _make(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Create an op output, recording tape links only when grads can flow."""
    if not _GRAD_ENABLED.get():
        return Tensor(data)
    parents = tuple(p for p in parents if p.needs_grad)
    if not parents:
        return Tensor(data)
    out = Tensor(data)
    out._parents = parents
    out._backward = backward
    return out


def _check_broadcast(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape == b.shape:
        return
    # scalars mix freely; otherwise ranks must match and differing axes be 1
    if a.ndim == 0 or b.ndim == 0:
        return
    if a.ndim != b.ndim or any(
        sa != sb and sa != 1 and sb != 1 for sa, sb in zip(a.shape, b.shape)
    ):
        raise ContractViolation(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` by summing broadcast axes."""
    if g.shape == shape:
        return g
    if shape == ():
        return g.sum()
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic --------------------------------------------------

def _binary(a, b, op: str, data_fn, grad_a, grad_b) -> Tensor:
    """Elementwise ``data_fn(a, b)`` under the narrow broadcasting rule.

    A non-tensor operand is lifted to the other's dtype. ``grad_a`` and
    ``grad_b`` map ``(g, a.data, b.data)`` to each operand's gradient at the
    output shape, which is then summed back over that operand's size-1 axes.
    """
    if isinstance(a, Tensor):
        b = _lift(b, a)
    else:
        a = _lift(a, b)
    ad, bd = a.data, b.data
    _check_broadcast(ad, bd, op)

    def bwd(g):
        if a.needs_grad:
            a._accum(_unbroadcast(grad_a(g, ad, bd), ad.shape))
        if b.needs_grad:
            b._accum(_unbroadcast(grad_b(g, ad, bd), bd.shape))

    return _make(data_fn(ad, bd), (a, b), bwd)


def add(a, b) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g, ad, bd: g, lambda g, ad, bd: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g, ad, bd: g, lambda g, ad, bd: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, "mul", np.multiply,
                   lambda g, ad, bd: g * bd, lambda g, ad, bd: g * ad)


def div(a, b) -> Tensor:
    return _binary(a, b, "div", np.divide,
                   lambda g, ad, bd: g / bd, lambda g, ad, bd: -g * ad / (bd * bd))


def neg(a: Tensor) -> Tensor:
    return _unary(a, -a.data, lambda g: -g)


# -- reductions ---------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def bwd(g):
        if not (keepdims or axis is None):
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, shape).astype(g.dtype, copy=True))

    return _make(data, (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    if count == 0:
        raise ContractViolation(f"tmean: empty axis {axis} in shape {a.data.shape}")
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, 1.0 / float(count))


def max_along(a: Tensor, axis: int, keepdims: bool = True) -> Tensor:
    """Max over one axis; gradient routes to the first occurrence of the max,
    which backward finds, so a forward without the tape runs no argmax."""
    if a.data.shape[axis] == 0:
        raise ContractViolation(f"max_along: empty axis {axis} in shape {a.data.shape}")

    def bwd(g):
        idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)  # first occurrence on ties
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, idx, g if keepdims else np.expand_dims(g, axis), axis=axis)
        a._accum(buf)

    return _make(a.data.max(axis=axis, keepdims=keepdims), (a,), bwd)


# -- shape surgery ------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    data = a.data.reshape(shape)

    def bwd(g):
        a._accum(g.reshape(old))

    return _make(data, (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def bwd(g):
        a._accum(g.transpose(inv))

    return _make(data, (a,), bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        parts = np.split(g, splits, axis=axis)
        for t, p in zip(tensors, parts):
            if t.needs_grad:
                t._accum(p)

    return _make(data, tuple(tensors), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    data = a.data[sl].copy()

    def bwd(g):
        buf = np.zeros_like(a.data)
        buf[sl] = g
        a._accum(buf)

    return _make(data, (a,), bwd)


# -- pointwise nonlinearities -------------------------------------------------

def _unary(a: Tensor, data: np.ndarray, grad) -> Tensor:
    """Pointwise op with output ``data``; ``grad`` maps the upstream gradient
    to the input's."""
    def bwd(g):
        a._accum(grad(g))

    return _make(data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    return _unary(a, np.maximum(a.data, 0), lambda g: g * (a.data > 0))


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))
    return _unary(a, data, lambda g: g * data * (1.0 - data))


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return _unary(a, data, lambda g: g * (1.0 - data * data))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    return _unary(a, (x * cdf).astype(x.dtype),
                  lambda g: g * (cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI)).astype(x.dtype))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _unary(a, data, lambda g: g * data)


def log(a: Tensor) -> Tensor:
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def softmax(a: Tensor, axis: int) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        a._accum(data * (g - dot))

    return _make(data, (a,), bwd)


def log_softmax(a: Tensor, axis: int) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    p = np.exp(data)

    def bwd(g):
        a._accum(g - p * g.sum(axis=axis, keepdims=True))

    return _make(data, (a,), bwd)


# -- linear algebra -----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ContractViolation(f"matmul needs rank >= 2, got {ad.shape} @ {bd.shape}")
    if ad.ndim != bd.ndim or ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bd.shape[-2]:
        raise ContractViolation(f"matmul: incompatible shapes {ad.shape} @ {bd.shape}")
    data = ad @ bd

    def bwd(g):
        if a.needs_grad:
            a._accum(g @ bd.swapaxes(-1, -2))
        if b.needs_grad:
            b._accum(ad.swapaxes(-1, -2) @ g)

    return _make(data, (a, b), bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map of the last axis of (..., Cin) by a (Cout, Cin) weight.

    Leading axes are flattened into one row axis, so the map is one GEMM.
    """
    xd, wd = x.data, weight.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[1]:
        raise ContractViolation(
            f"linear: input {xd.shape} incompatible with weight {wd.shape}"
        )
    _check_bias("linear", bias, wd.shape[0])
    rows = xd.reshape(-1, wd.shape[1])
    data = rows @ wd.T
    if bias is not None:
        data = data + bias.data
    data = data.reshape(xd.shape[:-1] + (wd.shape[0],))

    def bwd(g):
        g2 = g.reshape(-1, wd.shape[0])
        if x.needs_grad:
            x._accum((g2 @ wd).reshape(xd.shape))
        if weight.needs_grad:
            weight._accum(g2.T @ rows)
        if bias is not None and bias.needs_grad:
            bias._accum(g2.sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(data, parents, bwd)


# -- convolution and pooling ---------------------------------------------------

def _kernel_rows(xd: np.ndarray, k: int, stride: int, padding: int):
    """The k kernel-row views of ``xd``'s window layout and the grid they span.

    The layout is the zero-padded (N, C, H + 2p, Wp) map stored channel-major
    as C flat rows, with Wp = W + 2p rounded up to Wq * stride and zeros after
    it, so every read stays inside; the input is written straight into it.
    Its k column shifts are copied once (a 1x1 kernel reads the layout
    itself): shift j holds ``flat[c, j + stride * m]`` at column m, so column
    m = (n * Hp + y) * Wq + x reads padded row y, column stride * x, and
    kernel row i is the same (C, k, cols) matrix offset by i * Wq columns,
    i padded rows further down. Returns the k (C, k, span) views and the
    (N, Hp, Wq) grid of their columns.
    """
    n, c, h, w = xd.shape
    hp = h + 2 * padding
    wq = -(-(w + 2 * padding) // stride)
    wp = wq * stride
    flat = np.zeros((c, n * hp * wp + (k - 1) * (wp + 1)), dtype=xd.dtype)
    flat[:, :n * hp * wp].reshape(c, n, hp, wp)[:, :, padding:padding + h,
                                                padding:padding + w] = xd.transpose(1, 0, 2, 3)
    span = n * hp * wq
    cols = span + (k - 1) * wq
    if k == 1:
        shifts = flat[:, None, :stride * (cols - 1) + 1:stride]
    else:
        shifts = np.empty((c, k, cols), dtype=xd.dtype)
        for j in range(k):
            shifts[:, j] = flat[:, j:j + stride * (cols - 1) + 1:stride]
    return [shifts[..., i * wq:i * wq + span] for i in range(k)], (n, hp, wq)


def _correlate(xd: np.ndarray, wd: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """(N, Cout, Ho, Wo) correlation of (N, C, H, W) with (Cout, C, k, k):
    one GEMM of ``wd[:, :, i, :]`` (Cout, C*k) per kernel row i, then the
    outputs are picked from the (N, Hp, Wq) grid of columns."""
    c, h, w = xd.shape[1:]
    cout, _, k, _ = wd.shape
    views, (n, hp, wq) = _kernel_rows(xd, k, stride, padding)
    wrows = np.ascontiguousarray(wd.transpose(2, 0, 1, 3)).reshape(k, cout, c * k)
    out = wrows[0] @ views[0].reshape(c * k, -1)
    for i in range(1, k):
        out += wrows[i] @ views[i].reshape(c * k, -1)
    ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    rows = out.reshape(cout, n, hp, wq)[:, :, :ho * stride:stride, :wo]
    return np.ascontiguousarray(rows.transpose(1, 0, 2, 3))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution (a correlation) with zero padding and square odd kernels.

    The input goes into the window layout of ``_kernel_rows``, and kernel
    row i is one GEMM against its view (``_correlate``). Grid positions
    outside Ho x Wo, the rows between images and those a stride skips among
    them, are computed and dropped.

    Backward keeps no window data. The weight gradient rebuilds the views
    from the input and runs k GEMMs against them. The input gradient is a
    correlation by the same code: the output gradient, spread back to
    stride 1 with zeros, against the flipped kernel with in- and
    out-channels swapped, at padding k - 1 - padding (at padding 0 and
    cropped when that is negative).
    """
    xd, wd = x.data, weight.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ContractViolation(f"conv2d: need 4-d input/weight, got {xd.shape}, {wd.shape}")
    check_int("conv2d: stride", stride, 1)
    check_int("conv2d: padding", padding, 0)
    n, cin, h, w = xd.shape
    cout, cin_w, kh, kw = wd.shape
    if cin != cin_w:
        raise ContractViolation(
            f"conv2d: input channels {xd.shape} do not match weight {wd.shape}"
        )
    if kh != kw or kh % 2 == 0:
        raise ContractViolation(f"conv2d: kernel must be square and odd, got {wd.shape}")
    k = kh
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ContractViolation(
            f"conv2d: kernel {wd.shape} does not fit input {xd.shape} with padding {padding}"
        )
    _check_bias("conv2d", bias, cout)
    data = _correlate(xd, wd, stride, padding)
    if bias is not None:
        data += bias.data.reshape(1, cout, 1, 1)

    def bwd(g):
        if weight.needs_grad:
            views, (_, hp, wq) = _kernel_rows(xd, k, stride, padding)
            # g back onto the zeroed grid columns ``_correlate`` picked it from
            gq = np.zeros((cout, n, hp, wq), dtype=g.dtype)
            gq[:, :, :g.shape[2] * stride:stride, :g.shape[3]] = g.transpose(1, 0, 2, 3)
            gq = gq.reshape(cout, -1)
            gw = np.stack([gq @ view.reshape(cin * k, -1).T for view in views])
            del views  # freed before the input gradient allocates its buffers
            weight._accum(gw.reshape(k, cout, cin, k).transpose(1, 2, 0, 3))
        if x.needs_grad:
            g1 = g
            if stride > 1:
                g1 = np.zeros((n, cout, h + 2 * padding - k + 1, w + 2 * padding - k + 1),
                              dtype=g.dtype)
                g1[:, :, ::stride, ::stride] = g
            pad = k - 1 - padding
            gx = _correlate(g1, wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, max(pad, 0))
            x._accum(gx if pad >= 0 else gx[:, :, -pad:h - pad, -pad:w - pad])
        if bias is not None and bias.needs_grad:
            bias._accum(g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(data, parents, bwd)


def _padded_shifts(xd: np.ndarray) -> list:
    """The nine shifts (i, j), row-major, of channel-last (N, H, W, C) ``xd``
    zero-padded by 1: shift (i, j) reads padded row y + i, column x + j at
    (y, x). Each is an (N, H, W * C) view, so a tap runs along whole rows."""
    n, h, w, c = xd.shape
    xp = np.zeros((n, h + 2, w + 2, c), dtype=xd.dtype)
    xp[:, 1:-1, 1:-1] = xd
    rows = xp.reshape(n, h + 2, (w + 2) * c)
    return [rows[:, i:i + h, j * c:(j + w) * c] for i in range(3) for j in range(3)]


def _correlate_depthwise(xd: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 correlation of (N, H, W, C) with (C, 3, 3), padding 1:
    nine shifted multiply-adds, each tap's channel weights tiled along a row."""
    n, h, w, c = xd.shape
    taps = np.tile(wd.reshape(c, 9).T, w)
    out = np.zeros((n, h, w * c), dtype=xd.dtype)
    for view, tap in zip(_padded_shifts(xd), taps):
        out += view * tap
    return out.reshape(xd.shape)


def depthwise_conv3x3(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-channel 3x3 convolution, padding 1, of a channel-last (N, H, W, C)
    map. Weight shape (C, 3, 3), bias shape (C,).

    The input gradient is the same per-channel correlation, of the output
    gradient with the flipped kernel; the weight gradient contracts the output
    gradient with the nine shifts of the padded input.
    """
    xd, wd = x.data, weight.data
    if xd.ndim != 4:
        raise ContractViolation(f"depthwise_conv3x3: need a 4-d input, got {xd.shape}")
    if wd.shape != (xd.shape[3], 3, 3):
        raise ContractViolation(
            f"depthwise_conv3x3: weight {wd.shape} does not match input {xd.shape}"
        )
    _check_bias("depthwise_conv3x3", bias, xd.shape[3])
    data = _correlate_depthwise(xd, wd)
    if bias is not None:
        data += bias.data

    def bwd(g):
        if x.needs_grad:
            x._accum(_correlate_depthwise(g, wd[:, ::-1, ::-1]))
        if weight.needs_grad:
            g_rows = g.reshape(g.shape[0], g.shape[1], -1)
            gw = np.stack([np.einsum("nyk,nyk->k", g_rows, view) for view in _padded_shifts(xd)])
            weight._accum(gw.reshape(9, -1, wd.shape[0]).sum(axis=1).T.reshape(wd.shape))
        if bias is not None and bias.needs_grad:
            bias._accum(g.sum(axis=(0, 1, 2)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(data, parents, bwd)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; ties go to the first position in row-major scan."""
    if x.data.ndim != 4:
        raise ContractViolation(f"max_pool2: need a 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ContractViolation(f"max_pool2: H and W must be even, got {x.data.shape}")
    # window axis first: the max is then three elementwise maxima of whole maps
    win = transpose(reshape(x, (n, c, h // 2, 2, w // 2, 2)), (3, 5, 0, 1, 2, 4))
    return max_along(reshape(win, (4, n, c, h // 2, w // 2)), axis=0, keepdims=False)


def _interp_matrix(n_in: int, factor: int, dtype) -> np.ndarray:
    """Half-pixel-center linear interpolation matrix (n_in*factor, n_in)."""
    n_out = n_in * factor
    src = np.clip((np.arange(n_out) + 0.5) / factor - 0.5, 0.0, n_in - 1.0)
    lo = src.astype(np.intp)  # src >= 0, so truncation is floor
    t = src - lo
    rows = np.arange(n_out)
    m = np.zeros((n_out, n_in), dtype=dtype)
    m[rows, lo] = 1.0 - t
    # rows clamped to the last input have t == 0 and add nothing here
    m[rows, np.minimum(lo + 1, n_in - 1)] += t
    return m


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling with half-pixel sample centers."""
    check_int("upsample_bilinear: factor", factor, 2)
    if x.data.ndim != 4:
        raise ContractViolation(f"upsample_bilinear: need a 4-d input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    ry = _interp_matrix(h, factor, x.data.dtype)
    rx = _interp_matrix(w, factor, x.data.dtype)
    data = ry @ x.data @ rx.T

    def bwd(g):
        x._accum(ry.T @ g @ rx)

    return _make(data, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis of (..., C), then scale and shift: token rows
    (N, L, C) and channel-last maps (N, H, W, C) alike."""
    xd = x.data
    if xd.ndim < 2 or gain.data.shape != (xd.shape[-1],) or shift.data.shape != (xd.shape[-1],):
        raise ContractViolation(
            f"layer_norm: input {xd.shape} with gain {gain.data.shape}, shift {shift.data.shape}"
        )
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    data = xhat * gain.data + shift.data
    lead = tuple(range(xd.ndim - 1))

    def bwd(g):
        if gain.needs_grad:
            gain._accum((g * xhat).sum(axis=lead))
        if shift.needs_grad:
            shift._accum(g.sum(axis=lead))
        if x.needs_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x._accum(inv * (gx - m1 - xhat * m2))

    return _make(data, (x, gain, shift), bwd)
