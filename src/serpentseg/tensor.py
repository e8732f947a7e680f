"""Dense tensors with tape-based reverse-mode differentiation.

Every op hands ``_make`` its output and one (operand, fn) pair per operand,
``fn`` mapping the output's gradient to that operand's. ``_make`` keeps the
pairs of the operands a gradient reaches and records them in one backward
closure in the output's tape entry; ``backward()`` replays the tape in
reverse topological order. Values are float32 on production paths, but all
ops preserve the incoming dtype so the gradient checker can re-run a graph
in float64.

The tape is a graph of entries (``_Entry``), kept apart from the values.
Only tensors that gradients reach have one: a ``requires_grad`` leaf (a
``Parameter``, say), whose entry holds its gradient, and an op output with a
taped operand, whose entry also holds its parents' entries and its backward
closure, but no array. An output's value is freed once the caller drops it,
unless a gradient function reads it; a dropped pair frees whatever its
function captured. The rule for every gradient function: capture only the
arrays its own formula reads, never a tensor.

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


class _Entry:
    """The tape node of a tensor that gradients reach: its gradient, its
    parents' entries and its backward closure; no array. A taped op output's
    entry, made by ``_make``, outlives the output; a leaf's has no parents or
    closure and accumulates its gradient across ``backward()``."""

    __slots__ = ("grad", "_parents", "_backward")

    def __init__(self, parents: tuple = (), backward=None):
        self.grad = None
        self._parents = parents
        self._backward = backward

    def _accum(self, g: np.ndarray) -> None:
        # kept as given, even if shared: accumulation allocates, nothing writes .grad in place
        if self.grad is None:
            self.grad = np.asarray(g)
        else:
            self.grad = self.grad + g


class Tensor:
    """N-d array plus optional gradient buffer and tape linkage.

    Feature maps are (N, C, H, W), or channel-last (N, H, W, C) inside the
    transformer branch; losses are 0-d. ``grad`` is filled by ``backward()``
    and has the same shape as ``data``. ``grad``, ``_parents`` and
    ``_backward`` live in the tensor's ``_Entry``, the node the tape records,
    which only a ``requires_grad`` leaf or a taped op output has; without
    one they read None, () and None, and setting ``grad`` or ``_backward``
    gives the tensor a leaf entry.
    """

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self._entry = _Entry() if requires_grad else None  # ``_make`` gives taped outputs theirs

    # -- tape plumbing ------------------------------------------------------

    def _node(self) -> _Entry:
        if self._entry is None:
            self._entry = _Entry()
        return self._entry

    grad = property(lambda t: getattr(t._entry, "grad", None),
                    lambda t, g: setattr(t._node(), "grad", g))
    _parents = property(lambda t: getattr(t._entry, "_parents", ()))
    _backward = property(lambda t: getattr(t._entry, "_backward", None),
                         lambda t, f: setattr(t._node(), "_backward", f))

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape."""
        if self.data.size != 1:
            raise ContractViolation(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        self.grad = np.ones_like(self.data)  # first: an untaped scalar gets its entry
        topo: list = []
        seen: set[int] = set()
        stack: list[tuple] = [(self._entry, False)]
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


def _is_int(value) -> bool:
    """Whether ``value`` is an int, numpy integers included, bools not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_int(name: str, value, lowest: int) -> None:
    """Raise ``ContractViolation`` naming ``name`` unless ``value`` is an int
    (``_is_int``) of at least ``lowest``."""
    if not _is_int(value) or value < lowest:
        raise ContractViolation(f"{name} must be an int >= {lowest}, got {value!r}")


def _check_axis(op: str, axis, shape: tuple, single: bool = False) -> tuple:
    """The axes ``axis`` names in ``shape``: an int (``_is_int``), or, unless
    ``single``, a tuple of them or None (every axis). Negative axes count
    from the end. Anything else raises ``ContractViolation`` naming ``op``."""
    many = not single and (axis is None or isinstance(axis, tuple))
    axes = (axis,) if not many else tuple(range(len(shape))) if axis is None else axis
    if not all(_is_int(ax) for ax in axes):
        kind = "an int, a tuple of ints or None" if many else "an int"
        raise ContractViolation(f"{op}: axis {axis!r} of shape {shape} must be {kind}")
    if any(not -len(shape) <= ax < len(shape) for ax in axes):
        raise ContractViolation(f"{op}: axis {axis} out of range for shape {shape}")
    return axes


def _check_bias(op: str, bias: Tensor | None, cout: int) -> None:
    """Raise ``ContractViolation`` unless ``bias`` is None or of shape (cout,)."""
    if bias is not None and bias.data.shape != (cout,):
        raise ContractViolation(f"{op}: bias {bias.data.shape} does not match {(cout,)}")


def _tape(t: Tensor) -> _Entry | None:
    """The entry the tape records for ``t``: its own, which only tensors that
    gradients reach have, or None. Under ``no_grad`` it is always None, so
    nothing is taped."""
    return t._entry if _GRAD_ENABLED.get() else None


def _make(data: np.ndarray, *grads) -> Tensor:
    """An op output of value ``data``, given one (operand, fn) pair per
    operand: ``fn`` maps the output's gradient to the operand's, and an
    absent operand (a None bias) is None.

    This is the one place the tape is recorded. The pairs of operands that
    ``_tape`` finds an entry for go into one backward closure, which adds
    each ``fn(g)`` into its operand's entry, in the order given; the others
    are dropped, and with them whatever their ``fn`` captured. The output
    gets an entry only when a pair is kept.
    """
    out = Tensor(data)
    kept = [(e, fn) for t, fn in grads if t is not None and (e := _tape(t)) is not None]
    if kept:
        def backward(g):
            for e, fn in kept:
                e._accum(fn(g))

        out._entry = _Entry(tuple(e for e, _ in kept), backward)
    return out


# -- elementwise arithmetic --------------------------------------------------

def _operands(a, b, op: str) -> tuple[Tensor, Tensor]:
    """``a`` and ``b`` as tensors, a non-tensor lifted to the other's dtype,
    after checking the narrow broadcasting rule: equal shapes, a 0-d
    operand, or equal ranks whose differing axes are 1 on one side."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    elif not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    sa, sb = a.data.shape, b.data.shape
    if sa != sb and sa != () and sb != () and (len(sa) != len(sb) or any(
            x != y and x != 1 and y != 1 for x, y in zip(sa, sb))):
        raise ContractViolation(f"{op}: incompatible shapes {sa} and {sb}")
    return a, b


def _summed(t: Tensor, fn, out: tuple):
    """The pair of an elementwise operand ``t`` of an output of shape
    ``out``: ``fn``'s gradient, at that shape, summed back over the axes
    ``t`` was broadcast along."""
    shape = t.data.shape
    if shape == out:
        return t, fn
    if shape == ():
        return t, lambda g: fn(g).sum()
    axes = tuple(i for i, (o, s) in enumerate(zip(out, shape)) if s == 1 and o != 1)
    return t, lambda g: fn(g).sum(axis=axes, keepdims=True)


def add(a, b) -> Tensor:
    a, b = _operands(a, b, "add")
    data = a.data + b.data
    return _make(data, _summed(a, lambda g: g, data.shape), _summed(b, lambda g: g, data.shape))


def sub(a, b) -> Tensor:
    a, b = _operands(a, b, "sub")
    data = a.data - b.data
    return _make(data, _summed(a, lambda g: g, data.shape), _summed(b, lambda g: -g, data.shape))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b, "mul")
    ad, bd = a.data, b.data
    data = ad * bd
    return _make(data, _summed(a, lambda g: g * bd, data.shape),
                 _summed(b, lambda g: g * ad, data.shape))


def div(a, b) -> Tensor:
    a, b = _operands(a, b, "div")
    ad, bd = a.data, b.data
    data = ad / bd
    return _make(data, _summed(a, lambda g: g / bd, data.shape),
                 _summed(b, lambda g: -g * ad / (bd * bd), data.shape))


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a, lambda g: -g))


# -- reductions ---------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    _check_axis("tsum", axis, a.data.shape)
    shape = a.data.shape

    def grad(g):
        if not (keepdims or axis is None):
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).astype(g.dtype, copy=True)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a, grad))


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    count = math.prod(a.data.shape[ax] for ax in _check_axis("tmean", axis, a.data.shape))
    if count == 0:
        raise ContractViolation(f"tmean: empty axis {axis} in shape {a.data.shape}")
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, 1.0 / float(count))


def max_along(a: Tensor, axis: int, keepdims: bool = True) -> Tensor:
    """Max over one axis; gradient routes to the first occurrence of the max.

    A taped forward keeps that position, in the smallest unsigned type that
    holds the axis length, instead of its input; a forward without the tape
    runs no argmax."""
    ad = a.data
    _check_axis("max_along", axis, ad.shape, single=True)
    if ad.shape[axis] == 0:
        raise ContractViolation(f"max_along: empty axis {axis} in shape {ad.shape}")
    data = ad.max(axis=axis, keepdims=keepdims)
    if _tape(a) is None:
        return Tensor(data)
    shape, dtype = ad.shape, ad.dtype
    # first occurrence on ties
    idx = np.expand_dims(np.argmax(ad, axis=axis), axis).astype(
        np.min_scalar_type(shape[axis] - 1))

    def grad(g):
        buf = np.zeros(shape, dtype=dtype)
        np.put_along_axis(buf, idx, g if keepdims else np.expand_dims(g, axis), axis=axis)
        return buf

    return _make(data, (a, grad))


# -- shape surgery ------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ContractViolation(f"reshape: cannot reshape {old} to {shape}") from None
    return _make(data, (a, lambda g: g.reshape(old)))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    try:
        data = a.data.transpose(axes)
    except ValueError:
        raise ContractViolation(
            f"transpose: axes {axes} do not permute the axes of shape {a.data.shape}") from None
    inv = tuple(np.argsort([ax % data.ndim for ax in axes]))
    return _make(data, (a, lambda g: g.transpose(inv)))


def concat(tensors, axis: int) -> Tensor:
    """Join one or more tensors along ``axis``; ranks and the other axes must agree."""
    tensors = list(tensors)
    shapes = [t.data.shape for t in tensors]
    if shapes:
        _check_axis("concat", axis, shapes[0], single=True)
    if len({(len(s), s[:axis] + s[axis:][1:]) for s in shapes}) != 1:
        raise ContractViolation(f"concat: shapes {shapes} do not agree off axis {axis}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    pairs, lo = [], 0
    for t in tensors:
        sl = (slice(None),) * (axis % data.ndim) + (slice(lo, lo + t.data.shape[axis]),)
        pairs.append((t, lambda g, sl=sl: g[sl]))
        lo = sl[-1].stop
    return _make(data, *pairs)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Positions start..start + length of ``axis``, which must lie inside it."""
    _check_axis("narrow", axis, a.data.shape, single=True)
    if not (_is_int(start) and _is_int(length)):
        raise ContractViolation(f"narrow: start {start!r} and length {length!r} of axis {axis} "
                                f"of shape {a.data.shape} must be ints")
    if start < 0 or length < 0 or start + length > a.data.shape[axis]:
        raise ContractViolation(f"narrow: start {start}, length {length} leave axis {axis} "
                                f"of shape {a.data.shape}")
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    shape, dtype = a.data.shape, a.data.dtype

    def grad(g):
        buf = np.zeros(shape, dtype=dtype)
        buf[sl] = g
        return buf

    return _make(a.data[sl].copy(), (a, grad))


# -- pointwise nonlinearities -------------------------------------------------

def relu(a: Tensor) -> Tensor:
    # the output is positive where the input is, so the mask reads the output
    data = np.maximum(a.data, 0)
    return _make(data, (a, lambda g: g * (data > 0)))


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))
    return _make(data, (a, lambda g: g * data * (1.0 - data)))


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return _make(data, (a, lambda g: g * (1.0 - data * data)))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    return _make((x * cdf).astype(x.dtype), (a, lambda g: g * (
        cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI)).astype(x.dtype)))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _make(data, (a, lambda g: g * data))


def log(a: Tensor) -> Tensor:
    ad = a.data
    return _make(np.log(ad), (a, lambda g: g / ad))


def softmax(a: Tensor, axis: int) -> Tensor:
    _check_axis("softmax", axis, a.data.shape)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)
    return _make(data, (a, lambda g: data * (g - (g * data).sum(axis=axis, keepdims=True))))


def log_softmax(a: Tensor, axis: int) -> Tensor:
    _check_axis("log_softmax", axis, a.data.shape)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    p = np.exp(data)
    return _make(data, (a, lambda g: g - p * g.sum(axis=axis, keepdims=True)))


# -- linear algebra -----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ContractViolation(f"matmul needs rank >= 2, got {ad.shape} @ {bd.shape}")
    if ad.ndim != bd.ndim or ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bd.shape[-2]:
        raise ContractViolation(f"matmul: incompatible shapes {ad.shape} @ {bd.shape}")
    # each operand's gradient reads the other operand
    return _make(ad @ bd, (a, lambda g: g @ bd.swapaxes(-1, -2)),
                 (b, lambda g: ad.swapaxes(-1, -2) @ g))


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
    xshape, cout = xd.shape, wd.shape[0]
    return _make(data.reshape(xshape[:-1] + (cout,)),
                 (x, lambda g: (g.reshape(-1, cout) @ wd).reshape(xshape)),
                 (weight, lambda g: g.reshape(-1, cout).T @ rows),
                 (bias, lambda g: g.reshape(-1, cout).sum(axis=0)))


# -- convolution and pooling ---------------------------------------------------

# Bytes a correlation band may hold: its column shifts and the two buffers of
# its outputs, sized to stay in cache instead of copying all k shifts of a
# whole map (cache blocking: Goto & van de Geijn, "Anatomy of High-Performance
# Matrix Multiplication", ACM TOMS 2008)
CONV_TILE_BYTES = 2 << 20


def _kernel_tiles(xd: np.ndarray, k: int, stride: int, padding: int, cout: int):
    """Bands of one image's output rows, each with its k kernel-row views.

    Image n is read through its zero-padded (C, H + 2p, Wp) map, Wp = W + 2p
    rounded up to Wq * stride. A band of output rows o0..o1 computes grid
    rows stride * o0 .. stride * (o1 - 1): grid column y * Wq + x of the band
    reads padded row stride * o0 + y, column stride * x. No layout of the
    whole map is built: a band zero-fills one reused (C, rows + k, Wp) slab
    with the padded rows it reads, its own and the k below, copying the
    image's rows into it by two clipped slices. Shift j, ``slab[c, j + stride
    * m]`` at band column m, is copied into one more buffer, and kernel row i
    is the (C, k, cols) shift matrix offset by i * Wq columns. Bands are sized
    so that this buffer and two (``cout``, cols) buffers of the band's
    outputs fit in ``CONV_TILE_BYTES`` (the slab, about 1/k of the shifts,
    comes on top), but hold at least one output row.

    Yields (n, ys, views): the image, the slice of its output rows and the k
    (C, k, grid rows, Wq) views of the band's kernel rows, valid until the
    next band is taken. Output row o0 + r is the band's grid row stride * r.
    """
    n, c, h, w = xd.shape
    ho = (h + 2 * padding - k) // stride + 1
    wq = -(-(w + 2 * padding) // stride)
    wp = wq * stride
    rows = (CONV_TILE_BYTES // (xd.itemsize * wq) - c * k * (k - 1)) // (c * k + 2 * cout)
    band = min((max(rows, 1) - 1) // stride + 1, ho)
    grid = (band - 1) * stride + 1
    slab = np.empty(c * (grid + k) * wp, dtype=xd.dtype)
    buf = np.empty(c * k * (grid + k - 1) * wq, dtype=xd.dtype)
    for nn in range(n):
        for o0 in range(0, ho, band):
            ys = slice(o0, min(o0 + band, ho))
            r = (ys.stop - o0 - 1) * stride + 1
            top = o0 * stride - padding  # the input row of the slab's first row
            padded = slab[:c * (r + k) * wp].reshape(c, r + k, wp)
            padded.fill(0)
            # the image rows it reads; y0 == y1 for a band wholly in the padding
            y0, y1 = (min(max(y, 0), h) for y in (top, top + r + k))
            padded[:, y0 - top:y1 - top, padding:padding + w] = xd[nn, :, y0:y1]
            cols = (r + k - 1) * wq
            shifts = buf[:c * k * cols].reshape(c, k, cols)
            for j in range(k):
                shifts[:, j] = padded.reshape(c, -1)[:, j:j + stride * cols:stride]
            yield nn, ys, [shifts[..., i * wq:(i + r) * wq].reshape(c, k, r, wq)
                           for i in range(k)]


def _correlate(xd: np.ndarray, wd: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """(N, Cout, Ho, Wo) correlation of (N, C, H, W) with (Cout, C, k, k).

    Per band of ``_kernel_tiles``: one GEMM of ``wd[:, :, i, :]`` (Cout, C*k)
    per kernel row i, summed in one band-sized buffer, whose every stride-th
    grid row, cropped to Wo, is the band's output rows.
    """
    c, h, w = xd.shape[1:]
    cout, _, k, _ = wd.shape
    ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    wrows = np.ascontiguousarray(wd.transpose(2, 0, 1, 3)).reshape(k, cout, c * k)
    out = np.empty((xd.shape[0], cout, ho, wo), dtype=np.result_type(xd, wd))
    acc = part = None
    for nn, ys, views in _kernel_tiles(xd, k, stride, padding, cout):
        rows, wq = views[0].shape[2:]
        if acc is None:  # sized by the first band, the largest
            acc, part = np.empty((2, cout * rows * wq), dtype=out.dtype)
        t = acc[:cout * rows * wq].reshape(cout, -1)
        np.matmul(wrows[0], views[0].reshape(c * k, -1), out=t)
        for i in range(1, k):
            p = part[:t.size].reshape(t.shape)
            np.matmul(wrows[i], views[i].reshape(c * k, -1), out=p)
            t += p
        out[nn, :, ys] = t.reshape(cout, rows, wq)[:, ::stride, :wo]
    return out


def _correlate_weight_grad(xd: np.ndarray, g: np.ndarray, k: int, stride: int,
                           padding: int) -> np.ndarray:
    """(Cout, C, k, k) weight gradient of ``_correlate`` of ``xd`` for the
    output gradient ``g``: each band spreads its rows of ``g`` onto its grid
    rows, the inverse of ``_correlate``'s crop, and adds one GEMM per kernel
    row against them."""
    c, cout, wo = xd.shape[1], g.shape[1], g.shape[3]
    gw = np.zeros((k, c * k, cout), dtype=np.result_type(xd, g))
    for nn, ys, views in _kernel_tiles(xd, k, stride, padding, cout):
        gt = np.zeros((cout,) + views[0].shape[2:], dtype=g.dtype)
        gt[:, ::stride, :wo] = g[nn, :, ys]
        for i, view in enumerate(views):
            # (C*k, cols) @ (cols, Cout): BLAS splits the C*k rows over the
            # cores, where the long cols as the output's inner axis would not
            gw[i] += view.reshape(c * k, -1) @ gt.reshape(cout, -1).T
    return gw.reshape(k, c, k, cout).transpose(3, 1, 0, 2)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution (a correlation) with zero padding and square odd kernels.

    A pointwise conv (k = 1, padding 0, stride 1) is one batched GEMM of the
    images' pixels in every direction. Any other conv reads each image
    through the bands of ``_kernel_tiles``, and kernel row i is one GEMM
    against its view (``_correlate``). Grid positions outside Ho x Wo, the
    k - 1 columns on the right and the rows a stride skips, are computed and
    dropped.

    Bounded working set: only the input and the output are whole. Each band
    pads its own input rows and copies its k column shifts (``_kernel_tiles``),
    so besides the two maps a forward holds one band, whatever their area.

    Backward keeps no window data. The weight gradient runs in the same bands
    (``_correlate_weight_grad``), whose buffers are freed before the input
    gradient: a correlation, by ``_correlate``, of the output gradient (at
    stride > 1 first spread onto a zeroed map, the one whole-map scratch
    left) with the flipped kernel, in- and out-channels swapped, at padding
    k - 1 - padding (at padding 0 and cropped when that is negative).
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
    if cin == 0 or cout == 0:
        raise ContractViolation(f"conv2d: weight {wd.shape} has no input or output channels")
    if kh != kw or kh % 2 == 0:
        raise ContractViolation(f"conv2d: kernel must be square and odd, got {wd.shape}")
    k = kh
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ContractViolation(
            f"conv2d: kernel {wd.shape} does not fit input {xd.shape} with padding {padding}"
        )
    _check_bias("conv2d", bias, cout)
    if k == 1 and padding == 0 and stride == 1:
        wm, xm = wd.reshape(cout, cin), xd.reshape(n, cin, h * w)
        data = (wm @ xm).reshape(n, cout, h, w)
        grad_w = lambda g: (g.reshape(n, cout, -1) @ xm.swapaxes(1, 2)).sum(0).reshape(wd.shape)
        grad_x = lambda g: (wm.T @ g.reshape(n, cout, -1)).reshape(xd.shape)
    else:
        data = _correlate(xd, wd, stride, padding)
        grad_w = lambda g: _correlate_weight_grad(xd, g, k, stride, padding)

        def grad_x(g):
            if stride > 1:
                g1 = np.zeros((n, cout, h + 2 * padding - k + 1, w + 2 * padding - k + 1),
                              dtype=g.dtype)
                g1[:, :, ::stride, ::stride] = g
                g = g1
            pad = k - 1 - padding
            gx = _correlate(g, wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, max(pad, 0))
            return gx if pad >= 0 else gx[:, :, -pad:h - pad, -pad:w - pad]
    if bias is not None:
        data += bias.data.reshape(1, cout, 1, 1)
    # the weight gradient first: its buffers are freed before the input gradient's
    return _make(data, (weight, grad_w), (x, grad_x), (bias, lambda g: g.sum(axis=(0, 2, 3))))


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

    def grad_w(g):
        g_rows = g.reshape(g.shape[0], g.shape[1], -1)
        gw = np.stack([np.einsum("nyk,nyk->k", g_rows, view) for view in _padded_shifts(xd)])
        return gw.reshape(9, -1, wd.shape[0]).sum(axis=1).T.reshape(wd.shape)

    return _make(data, (x, lambda g: _correlate_depthwise(g, wd[:, ::-1, ::-1])),
                 (weight, grad_w), (bias, lambda g: g.sum(axis=(0, 1, 2))))


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
    return _make(ry @ x.data @ rx.T, (x, lambda g: ry.T @ g @ rx))


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
    gd = gain.data
    data = xhat * gd + shift.data
    lead = tuple(range(xd.ndim - 1))

    def grad_x(g):
        gx = g * gd
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - m1 - xhat * m2)

    return _make(data, (gain, lambda g: (g * xhat).sum(axis=lead)),
                 (shift, lambda g: g.sum(axis=lead)), (x, grad_x))
