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

    Feature maps are (N, C, H, W); token sequences are (N, L, C); losses are
    0-d. ``grad`` is filled by ``backward()`` and has the same shape as
    ``data``.
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
        if self.grad is None:
            self.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
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
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def check_int(name: str, value, lowest: int) -> None:
    """Raise ``ContractViolation`` naming ``name`` unless ``value`` is an int
    (numpy integers included, bools not) of at least ``lowest``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lowest:
        raise ContractViolation(f"{name} must be an int >= {lowest}, got {value!r}")


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
        if axis is None:
            a._accum(np.broadcast_to(g, shape).astype(g.dtype, copy=True))
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        a._accum(np.broadcast_to(gg, shape).astype(g.dtype, copy=True))

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

def _window_layout(xd: np.ndarray, k: int, stride: int, padding: int):
    """The zero-padded (N, C, H, W) map as ``(stride, C, length)`` flat rows.

    The padded height and width are rounded up to Hq*stride and Wq*stride,
    and padded row q*stride + b becomes row q of phase b, so each phase is a
    channel-major (C, N, Hq, Wp) block, flattened. (k - 1) // stride + 1 zero
    rows follow it, so every read of ``_shifts`` stays inside. Returns the
    flat map, Hq and Wq.
    """
    n, c, h, w = xd.shape
    hq = -(-(h + 2 * padding) // stride)
    wq = -(-(w + 2 * padding) // stride)
    wp = wq * stride
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, hq * stride - h - padding),
                     (padding, wp - w - padding)))
    flat = np.zeros((stride, c, n * hq + (k - 1) // stride + 1, wp), dtype=xd.dtype)
    flat[:, :, :n * hq].reshape(stride, c, n, hq, wp)[...] = \
        xp.reshape(n, c, hq, stride, wp).transpose(3, 1, 0, 2, 4)
    return flat.reshape(stride, c, -1), hq, wq


def _from_window_layout(gflat: np.ndarray, shape: tuple, stride: int, padding: int,
                        hq: int, wq: int) -> np.ndarray:
    """Adjoint of ``_window_layout``: the (N, C, H, W) interior of a flat map."""
    n, c, h, w = shape
    wp = wq * stride
    phases = gflat.reshape(stride, c, -1, wp)[:, :, :n * hq].reshape(stride, c, n, hq, wp)
    gxp = phases.transpose(2, 1, 3, 0, 4).reshape(n, c, hq * stride, wp)
    return np.ascontiguousarray(gxp[:, :, padding:padding + h, padding:padding + w])


def _shifts(flat: np.ndarray, k: int, stride: int, cols: int) -> np.ndarray:
    """The k column shifts of a flat map, (stride, C*k, cols).

    Row ``c * k + j`` of phase b holds ``flat[b, c, j + stride * m]`` at column
    m: one strided copy per shift j, for all phases and channels at once. A
    1x1 kernel has one shift, which is a view of ``flat`` itself.
    """
    phases, c, _ = flat.shape
    if k == 1:
        return flat[:, :, :stride * (cols - 1) + 1:stride]
    out = np.empty((phases, c, k, cols), dtype=flat.dtype)
    for j in range(k):
        out[:, :, j] = flat[:, :, j:j + stride * (cols - 1) + 1:stride]
    return out.reshape(phases, c * k, cols)


def _kernel_rows(shifts: np.ndarray, k: int, stride: int, wq: int, span: int):
    """(i, view) per kernel row i = a * stride + b: the ``span`` columns of
    phase b's shift matrix that row i reads, a rows of Wq further on."""
    for i in range(k):
        a, b = divmod(i, stride)
        yield i, shifts[b, ..., a * wq:a * wq + span]


def _add_kernel_row(gflat: np.ndarray, i: int, grad: np.ndarray, stride: int, wq: int) -> None:
    """Adjoint of kernel row i's view: add its (C, k, span) gradient onto the
    flat positions it was read from, one strided add per column shift."""
    a, b = divmod(i, stride)
    span = grad.shape[-1]
    for j in range(grad.shape[1]):
        start = j + a * wq * stride
        gflat[b, :, start:start + stride * (span - 1) + 1:stride] += grad[:, j]


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution with zero padding and square odd kernels.

    The input goes into the window layout of ``_window_layout`` and its k
    column shifts are copied once (``_shifts``, C*k rows; a 1x1 kernel reads
    the layout itself). Output position
    (n, y, x) is column ``(n * Hq + y) * Wq + x`` of every phase, and moving a
    column a*Wq further on reads a*stride padded rows further down, so kernel
    row i = a*stride + b is one GEMM of ``weight[:, :, i, :]`` (Cout, C*k)
    against phase b's shift matrix offset by a*Wq. Positions outside Ho x Wo,
    the rows between images among them, are computed and dropped.

    Backward keeps no window data. The weight gradient rebuilds the shifts
    from the input and runs k GEMMs against the same views; the input
    gradient is k GEMMs ``weight[:, :, i, :].T @ grad``, each added back onto
    the flat map by ``_add_kernel_row``, then ``_from_window_layout``.
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
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    if ho < 1 or wo < 1:
        raise ContractViolation(
            f"conv2d: kernel {wd.shape} does not fit input {xd.shape} with padding {padding}"
        )

    flat, hq, wq = _window_layout(xd, k, stride, padding)
    flat_shape = flat.shape
    span = n * hq * wq
    cols = span + (k - 1) // stride * wq
    wrows = np.ascontiguousarray(wd.transpose(2, 0, 1, 3)).reshape(k, cout, cin * k)
    views = _kernel_rows(_shifts(flat, k, stride, cols), k, stride, wq, span)
    i, view = next(views)
    out = wrows[i] @ view
    for i, view in views:
        out += wrows[i] @ view
    data = np.ascontiguousarray(out.reshape(cout, n, hq, wq)[:, :, :ho, :wo].transpose(1, 0, 2, 3))
    if bias is not None:
        data += bias.data.reshape(1, cout, 1, 1)

    def bwd(g):
        # position-major, so the weight-gradient GEMMs read it contiguously
        gq = np.zeros((n, hq, wq, cout), dtype=g.dtype)
        gq[:, :ho, :wo] = g.transpose(0, 2, 3, 1)
        gq = gq.reshape(span, cout)
        if weight.needs_grad:
            shifts = _shifts(_window_layout(xd, k, stride, padding)[0], k, stride, cols)
            gw = np.stack([view @ gq for _, view in _kernel_rows(shifts, k, stride, wq, span)])
            del shifts  # freed before the input gradient allocates its buffers
            weight._accum(gw.reshape(k, cin, k, cout).transpose(3, 1, 0, 2))
        if x.needs_grad:
            gflat = np.zeros(flat_shape, dtype=g.dtype)
            dview = np.empty((cin * k, span), dtype=g.dtype)
            for i in range(k):
                np.matmul(wrows[i].T, gq.T, out=dview)
                _add_kernel_row(gflat, i, dview.reshape(cin, k, span), stride, wq)
            x._accum(_from_window_layout(gflat, xd.shape, stride, padding, hq, wq))
        if bias is not None and bias.needs_grad:
            bias._accum(g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(data, parents, bwd)


def depthwise_conv3x3(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-channel 3x3 convolution, padding 1. Weight shape (C, 3, 3).

    Runs on the window layout of ``conv2d`` with stride 1: the (C, 3, cols)
    shift matrix holds each channel's three column taps, and kernel row i
    contracts each channel's three weights with it offset by i rows of Wq.
    The input gradient adds ``weight[:, i] * grad`` back onto the flat map
    row by row through ``_add_kernel_row``.
    """
    xd, wd = x.data, weight.data
    n, c, h, w = xd.shape
    if wd.shape != (c, 3, 3):
        raise ContractViolation(
            f"depthwise_conv3x3: weight {wd.shape} does not match input {xd.shape}"
        )
    flat, hq, wq = _window_layout(xd, 3, 1, 1)
    flat_shape = flat.shape
    span = n * hq * wq
    cols = span + 2 * wq

    def taps(flat):
        return _kernel_rows(_shifts(flat, 3, 1, cols).reshape(1, c, 3, cols), 3, 1, wq, span)

    out = sum(np.einsum("cj,cjm->cm", wd[:, i], view) for i, view in taps(flat))
    data = np.ascontiguousarray(out.reshape(c, n, hq, wq)[:, :, :h, :w].transpose(1, 0, 2, 3))
    if bias is not None:
        data += bias.data.reshape(1, c, 1, 1)

    def bwd(g):
        gq = np.zeros((c, n, hq, wq), dtype=g.dtype)
        gq[:, :, :h, :w] = g.transpose(1, 0, 2, 3)
        gq = gq.reshape(c, span)
        if x.needs_grad:
            gflat = np.zeros(flat_shape, dtype=g.dtype)
            for i in range(3):
                _add_kernel_row(gflat, i, wd[:, i, :, None] * gq[:, None], 1, wq)
            x._accum(_from_window_layout(gflat, xd.shape, 1, 1, hq, wq))
        if weight.needs_grad:
            views = taps(_window_layout(xd, 3, 1, 1)[0])
            weight._accum(np.stack([np.einsum("cm,cjm->cj", gq, view) for _, view in views],
                                   axis=1))
        if bias is not None and bias.needs_grad:
            bias._accum(g.sum(axis=(0, 2, 3)))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(data, parents, bwd)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; ties go to the first position in row-major scan."""
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
    if factor < 2:
        raise ContractViolation(f"upsample_bilinear: factor must be >= 2, got {factor}")
    n, c, h, w = x.data.shape
    ry = _interp_matrix(h, factor, x.data.dtype)
    rx = _interp_matrix(w, factor, x.data.dtype)
    data = ry @ x.data @ rx.T

    def bwd(g):
        x._accum(ry.T @ g @ rx)

    return _make(data, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each (n, l) row of (N, L, C) over C, then scale and shift."""
    xd = x.data
    if xd.ndim != 3 or gain.data.shape != (xd.shape[-1],) or shift.data.shape != (xd.shape[-1],):
        raise ContractViolation(
            f"layer_norm: input {xd.shape} with gain {gain.data.shape}, shift {shift.data.shape}"
        )
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    data = xhat * gain.data + shift.data

    def bwd(g):
        if gain.needs_grad:
            gain._accum((g * xhat).sum(axis=(0, 1)))
        if shift.needs_grad:
            shift._accum(g.sum(axis=(0, 1)))
        if x.needs_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x._accum(inv * (gx - m1 - xhat * m2))

    return _make(data, (x, gain, shift), bwd)
