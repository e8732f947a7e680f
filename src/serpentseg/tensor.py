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
closure, but no array. Nothing else has one, and no setter adds one:
``requires_grad`` reads whether a tensor has an entry. An output's value is
freed once the caller drops it, unless a gradient function reads it; a
dropped pair frees whatever its function captured. The rule for every
gradient function: capture only the arrays its own formula reads, never a
tensor.

``backward()`` consumes the tape: once a node's closure has run, it is
swapped for ``_consumed``, so each node's arrays go as the backward passes
it and a train step's memory peaks in its forward. The entries stay, with
their parents but no arrays, and a second ``backward()`` that reaches one
raises ``ContractViolation`` before it changes any gradient.

One layout rule: a gradient function always receives a C-contiguous
gradient. ``_make``'s closure copies a strided one once, before any of the
node's functions runs, so no op copies a gradient for its layout and any op
may return a strided view (a ``transpose``, a slice) as its operand's
gradient.

One gate for outside arrays: every array-like the package takes (a
``Tensor``'s data, a lifted operand, an image, a mask, a state value) enters
through ``check_array``, which refuses all but bool, int and float arrays.
One cast: every one that becomes float data (a ``Parameter``'s data, a
lifted operand, an image, a state value) does so through ``check_float``,
which refuses a NaN or Inf in the result, an overflow of the cast included.

One dtype rule: a ``Tensor`` holds float32 or float64 data. ``Tensor.data``'s
setter, which construction runs too, refuses any other dtype after
``check_array``, so no op sees bool, int or float16 data.

One map rule: a feature map is 4-d, (N, C, H, W), or channel-last
(N, H, W, C) inside the transformer branch. Every op and module that takes
one checks it, and its channel count where it knows one, with ``check_map``,
which raises ``ContractViolation`` naming the op and the shape.

Broadcasting is deliberately limited: elementwise ops accept equal shapes or
equal-rank shapes where one operand has size-1 axes (bias-add and per-channel
or per-position scaling). Anything else raises ``ContractViolation``.

The one bilinear sampler, ``grid_sample_points``, reads the snake chains and
the points of ``upsample_bilinear``.
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


def _consumed(g):
    """The backward closure of a node whose closure an earlier ``backward()``
    ran and dropped; ``backward()`` refuses to reach such a node."""
    raise ContractViolation("backward(): an earlier backward() consumed this tape")


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
    which only a ``requires_grad`` leaf or a taped op output has, and
    ``requires_grad`` reads whether it has one. Without one they read None,
    () and None; setting ``grad`` to None or ``_backward`` to anything does
    nothing, and setting ``grad`` to an array raises ``ContractViolation``.
    """

    def __init__(self, data, requires_grad: bool = False):
        self.data = data
        self._entry = _Entry() if requires_grad else None  # ``_make`` gives taped outputs theirs

    def _set_data(self, value) -> None:
        arr = check_array("Tensor: data", value)
        if arr.dtype not in (np.float32, np.float64):
            raise ContractViolation(f"Tensor: data must be float32 or float64, got {arr.dtype}")
        self._data = arr

    data = property(lambda t: t._data, _set_data)

    # -- tape plumbing ------------------------------------------------------

    def _set_grad(self, g) -> None:
        if self._entry is not None:
            self._entry.grad = g
        elif g is not None:
            raise ContractViolation(
                f"cannot set the gradient of an untaped tensor of shape {self.data.shape}")

    def _set_backward(self, fn) -> None:
        if self._entry is not None:
            self._entry._backward = fn

    requires_grad = property(lambda t: t._entry is not None)
    grad = property(lambda t: getattr(t._entry, "grad", None), _set_grad)
    _parents = property(lambda t: getattr(t._entry, "_parents", ()))
    _backward = property(lambda t: getattr(t._entry, "_backward", None), _set_backward)

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded tape, consuming it.

        Each node's closure is swapped for ``_consumed`` as soon as it has
        run, so the arrays it captured are freed as the backward passes the
        node, not when the loss is dropped; the node keeps its parents. A
        later ``backward()`` that would reach a consumed node, from this loss
        or from a new one built on it, raises ``ContractViolation`` before it
        changes any gradient. Leaf gradients accumulate across calls on
        different tapes. A gradient function that raises leaves every gradient
        as it was; the nodes that had run stay consumed.
        """
        if self.data.size != 1:
            raise ContractViolation(
                f"backward() requires a scalar, got shape {self.data.shape}"
            )
        if self._entry is None:
            raise ContractViolation(f"backward() of an untaped tensor of shape {self.data.shape}: "
                                    f"made under no_grad, or from no taped input")
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
            if node._backward is _consumed:  # checked before any gradient changes
                raise ContractViolation(
                    f"backward() of a loss of shape {self.data.shape}: an earlier backward() "
                    f"consumed this tape; run the forward again to backpropagate again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        # ``_accum`` never writes a gradient in place, so these references are the old values
        before = [(node, node.grad) for node in topo]
        try:
            self.grad = np.ones_like(self.data)
            for node in reversed(topo):
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
                    # leaf grads accumulate across calls; an intermediate's grad
                    # and closure go now, and with the closure every array its
                    # gradient functions captured
                    node.grad, node._backward = None, _consumed
        except BaseException:
            for node, grad in before:
                node.grad = grad
            raise

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

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() requires a scalar, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def _is_int(value) -> bool:
    """Whether ``value`` is an int, numpy integers included, bools not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_array(name: str, value) -> np.ndarray:
    """``value`` as an array (``np.asarray``); a ragged sequence, or a dtype
    other than bool, int or float (a complex one would lose its imaginary part
    to a cast), raises ``ContractViolation`` naming it as ``name``."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ContractViolation(f"{name} is a ragged sequence, not an array") from None
    if arr.dtype.kind not in "biuf":
        raise ContractViolation(f"{name} must be a bool, int or float array, got {arr.dtype}")
    return arr


def check_float(name: str, value, dtype) -> np.ndarray:
    """``value`` (``check_array``) cast to the float ``dtype``; a NaN or Inf in
    the result, a value beyond ``dtype``'s range included, raises
    ``ContractViolation`` naming ``name``, the shape and ``dtype``."""
    arr = check_array(name, value)
    with np.errstate(over="ignore"):  # a value out of range becomes Inf, refused below
        arr = arr.astype(dtype, copy=False)
    if not np.isfinite(arr).all():
        raise ContractViolation(f"{name} of shape {arr.shape} has NaN or Inf values as {arr.dtype}")
    return arr


def check_int(name: str, value, lowest: int) -> None:
    """Raise ``ContractViolation`` naming ``name`` unless ``value`` is an int
    (``_is_int``) of at least ``lowest``."""
    if not _is_int(value) or value < lowest:
        raise ContractViolation(f"{name} must be an int >= {lowest}, got {value!r}")


def check_entries(name: str, values, length: int) -> None:
    """Raise ``ContractViolation`` naming ``name`` unless ``values`` is a tuple
    or list of ``length`` entries."""
    if not isinstance(values, (tuple, list)) or len(values) != length:
        raise ContractViolation(f"{name} needs a tuple or list of {length} entries, "
                                f"got {values!r}")


def _check_axis(op: str, axis, shape: tuple, single=False, nonempty=False) -> tuple:
    """The axes, from 0, that ``axis`` names in ``shape``: an int (``_is_int``; negative counts
    from the end) or, unless ``single``, a tuple of distinct ones or None (every axis). Anything
    else, or with ``nonempty`` an axis of length 0, raises ``ContractViolation`` naming ``op``."""
    many = not single and (axis is None or isinstance(axis, tuple))
    axes = (axis,) if not many else tuple(range(len(shape))) if axis is None else axis
    if not all(_is_int(ax) for ax in axes):
        kind = "an int, a tuple of ints or None" if many else "an int"
        raise ContractViolation(f"{op}: axis {axis!r} of shape {shape} must be {kind}")
    if any(not -len(shape) <= ax < len(shape) for ax in axes):
        raise ContractViolation(f"{op}: axis {axis} out of range for shape {shape}")
    axes = tuple(ax % len(shape) for ax in axes)
    if len(set(axes)) != len(axes):
        raise ContractViolation(f"{op}: axis {axis} repeats an axis of shape {shape}")
    if nonempty and any(shape[ax] == 0 for ax in axes):
        raise ContractViolation(f"{op}: empty axis {axis} in shape {shape}")
    return axes


def _data(op: str, t) -> np.ndarray:
    """The array of ``op``'s operand ``t``, which must be a ``Tensor``: anything
    else raises ``ContractViolation`` naming ``op`` and its type."""
    if not isinstance(t, Tensor):
        raise ContractViolation(f"{op}: needs a Tensor, got {type(t).__name__}")
    return t.data


def check_map(op: str, t: Tensor, channels: int | None = None, layout: str = "NCHW") -> tuple:
    """The shape of ``t``, a 4-d feature map in ``layout``: ``"NCHW"``, or
    ``"NHWC"`` for a channel-last map, with ``channels`` on its C axis unless
    that is None. Anything else raises ``ContractViolation`` naming ``op``."""
    shape, c = _data(op, t).shape, layout.index("C")
    if len(shape) == 4 and channels in (None, shape[c]):
        return shape
    dims = ", ".join(str(channels) if a == "C" and channels is not None else a for a in layout)
    raise ContractViolation(f"{op}: need an ({dims}) map, got shape {shape}")


def _check_bias(op: str, bias: Tensor | None, cout: int) -> None:
    """Raise ``ContractViolation`` unless ``bias`` is None or of shape (cout,)."""
    if bias is not None and _data(op, bias).shape != (cout,):
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

    The closure hands every ``fn`` a C-contiguous ``g``, copying a strided
    one first: the only layout copy of a gradient. ``g.copy()``, not
    ``np.ascontiguousarray``, which would turn a 0-d gradient into shape (1,).
    """
    out = Tensor(data)
    kept = [(e, fn) for t, fn in grads if t is not None and (e := _tape(t)) is not None]
    if kept:
        def backward(g):
            if not g.flags.c_contiguous:
                g = g.copy()
            for e, fn in kept:
                e._accum(fn(g))

        out._entry = _Entry(tuple(e for e, _ in kept), backward)
    return out


# -- elementwise arithmetic --------------------------------------------------

def _lift(value, other, op: str) -> Tensor:
    """``op``'s non-tensor operand ``value`` as a tensor of the tensor ``other``'s
    dtype (``check_float``), which names it by its type."""
    if not isinstance(other, Tensor):
        raise ContractViolation(f"{op}: needs a tensor and a bool, int or float array, got "
                                f"{type(value).__name__} and {type(other).__name__}")
    return Tensor(check_float(f"{op}: {type(value).__name__} operand", value, other.data.dtype))


def _operands(a, b, op: str) -> tuple[Tensor, Tensor]:
    """``a`` and ``b`` as tensors, after checking the limited broadcasting
    rule: equal shapes, a 0-d operand, or equal ranks whose differing axes
    are 1 on one side. One operand must be a tensor; the other is lifted to
    its dtype only if it converts to a bool, int or float array that is finite
    in that dtype (``_lift``)."""
    if not isinstance(a, Tensor):
        a = _lift(a, b, op)
    elif not isinstance(b, Tensor):
        b = _lift(b, a, op)
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
    return _make(-_data("neg", a), (a, lambda g: -g))


# -- reductions ---------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    shape = _data("tsum", a).shape
    _check_axis("tsum", axis, shape)

    def grad(g):
        if not (keepdims or axis is None):
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, shape).astype(g.dtype, copy=True)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a, grad))


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    axes = _check_axis("tmean", axis, _data("tmean", a).shape, nonempty=True)
    count = math.prod(a.data.shape[ax] for ax in axes)
    s = tsum(a, axis=axis, keepdims=keepdims)
    return mul(s, 1.0 / float(count))


def max_along(a: Tensor, axis: int, keepdims: bool = True) -> Tensor:
    """Max over one axis; gradient routes to the first occurrence of the max.

    A taped forward keeps that position, in the smallest unsigned type that
    holds the axis length, instead of its input; a forward without the tape
    runs no argmax."""
    ad = _data("max_along", a)
    _check_axis("max_along", axis, ad.shape, single=True, nonempty=True)
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
    old = _data("reshape", a).shape
    try:
        data = a.data.reshape(shape)
    except (TypeError, ValueError):
        raise ContractViolation(f"reshape: cannot reshape {old} to {shape!r}") from None
    return _make(data, (a, lambda g: g.reshape(old)))


def transpose(a: Tensor, axes) -> Tensor:
    ad = _data("transpose", a)
    try:
        axes = tuple(axes)
        data = ad.transpose(axes)
    except (TypeError, ValueError):
        raise ContractViolation(
            f"transpose: axes {axes!r} do not permute the axes of shape {a.data.shape}") from None
    inv = tuple(np.argsort([ax % data.ndim for ax in axes]))
    return _make(data, (a, lambda g: g.transpose(inv)))


def concat(tensors, axis: int) -> Tensor:
    """Join one or more tensors along ``axis``; ranks and the other axes must agree."""
    try:
        tensors = list(tensors)
    except TypeError:
        raise ContractViolation(f"concat: needs an iterable of Tensors, got "
                                f"{type(tensors).__name__}") from None
    shapes = [_data("concat", t).shape for t in tensors]
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


# -- pointwise nonlinearities -------------------------------------------------

def relu(a: Tensor) -> Tensor:
    # the output is positive where the input is, so the mask reads the output
    data = np.maximum(_data("relu", a), 0)
    return _make(data, (a, lambda g: g * (data > 0)))


def sigmoid(a: Tensor) -> Tensor:
    # exp(-a) overflows to inf below about -88.7 in float32, and the value, 0, is exact
    with np.errstate(over="ignore"):
        data = 1.0 / (1.0 + np.exp(-_data("sigmoid", a)))
    return _make(data, (a, lambda g: g * data * (1.0 - data)))


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(_data("tanh", a))
    return _make(data, (a, lambda g: g * (1.0 - data * data)))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(a: Tensor) -> Tensor:
    x = _data("gelu", a)
    cdf = 0.5 * (1.0 + _erf(x * _INV_SQRT2))
    return _make(x * cdf, (a, lambda g: g * (cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI))))


def exp(a: Tensor) -> Tensor:
    data = np.exp(_data("exp", a))
    return _make(data, (a, lambda g: g * data))


def log(a: Tensor) -> Tensor:
    ad = _data("log", a)
    return _make(np.log(ad), (a, lambda g: g / ad))


def softmax(a: Tensor, axis: int) -> Tensor:
    """``exp(log_softmax(a, axis))``: the one normalizer, and its gradient, is ``log_softmax``."""
    _check_axis("softmax", axis, _data("softmax", a).shape, nonempty=True)
    return exp(log_softmax(a, axis))


def log_softmax(a: Tensor, axis: int) -> Tensor:
    _check_axis("log_softmax", axis, _data("log_softmax", a).shape, nonempty=True)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse
    # the probabilities are computed only if a backward asks for them
    return _make(data, (a, lambda g: g - np.exp(data) * g.sum(axis=axis, keepdims=True)))


# -- linear algebra -----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = _data("matmul", a), _data("matmul", b)
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
    xd, wd = _data("linear", x), _data("linear", weight)
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


def _kernel_tiles(xd: np.ndarray, k: int, stride: int, cout: int):
    """Bands of one image's output rows, each with its k kernel-row views.

    The one geometry of every conv: 'same', padding p = k // 2, so the output
    side is ceil(side / stride). Image n is read through its zero-padded
    (C, H + 2p, Wp) map, Wp = W + 2p rounded up to Wq * stride. A band of
    output rows o0..o1 computes grid rows stride * o0 .. stride * (o1 - 1):
    grid column y * Wq + x of the band reads padded row stride * o0 + y,
    column stride * x. No layout of the whole map is built: a band zero-fills
    one reused (C, rows + k, Wp) slab with the padded rows it reads, its own
    and the k below, copying the image's rows into it by two clipped slices.
    Shift j, ``slab[c, j + stride * m]`` at band column m, is copied into one
    more buffer, and kernel row i is the (C, k, cols) shift matrix offset by
    i * Wq columns. Bands are sized so that this buffer and two (``cout``,
    cols) buffers of the band's outputs fit in ``CONV_TILE_BYTES`` (the slab,
    about 1/k of the shifts, comes on top), but hold at least one output row.

    Yields (n, ys, views): the image, the slice of its output rows and the k
    (C, k, grid rows, Wq) views of the band's kernel rows, valid until the
    next band is taken. Output row o0 + r is the band's grid row stride * r.
    """
    n, c, h, w = xd.shape
    p = k // 2
    ho = (h - 1) // stride + 1
    wq = -(-(w + 2 * p) // stride)
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
            top = o0 * stride - p  # the input row of the slab's first row
            padded = slab[:c * (r + k) * wp].reshape(c, r + k, wp)
            padded.fill(0)
            y0, y1 = (min(max(y, 0), h) for y in (top, top + r + k))
            padded[:, y0 - top:y1 - top, p:p + w] = xd[nn, :, y0:y1]
            cols = (r + k - 1) * wq
            shifts = buf[:c * k * cols].reshape(c, k, cols)
            for j in range(k):
                shifts[:, j] = padded.reshape(c, -1)[:, j:j + stride * cols:stride]
            yield nn, ys, [shifts[..., i * wq:(i + r) * wq].reshape(c, k, r, wq)
                           for i in range(k)]


def _correlate(xd: np.ndarray, wd: np.ndarray, stride: int) -> np.ndarray:
    """(N, Cout, Ho, Wo) 'same' correlation of (N, C, H, W) with (Cout, C, k, k).

    Per band of ``_kernel_tiles``: one GEMM of ``wd[:, :, i, :]`` (Cout, C*k)
    per kernel row i, summed in one band-sized buffer, whose every stride-th
    grid row, cropped to Wo, is the band's output rows.
    """
    c, h, w = xd.shape[1:]
    cout, _, k, _ = wd.shape
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    wrows = np.ascontiguousarray(wd.transpose(2, 0, 1, 3)).reshape(k, cout, c * k)
    out = np.empty((xd.shape[0], cout, ho, wo), dtype=np.result_type(xd, wd))
    acc = part = None
    for nn, ys, views in _kernel_tiles(xd, k, stride, cout):
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


def _correlate_weight_grad(xd: np.ndarray, g: np.ndarray, k: int, stride: int) -> np.ndarray:
    """(Cout, C, k, k) weight gradient of ``_correlate`` of ``xd`` for the
    output gradient ``g``: each band spreads its rows of ``g`` onto its grid
    rows, the inverse of ``_correlate``'s crop, and adds one GEMM per kernel
    row against them."""
    c, cout, wo = xd.shape[1], g.shape[1], g.shape[3]
    gw = np.zeros((k, c * k, cout), dtype=np.result_type(xd, g))
    for nn, ys, views in _kernel_tiles(xd, k, stride, cout):
        gt = np.zeros((cout,) + views[0].shape[2:], dtype=g.dtype)
        gt[:, ::stride, :wo] = g[nn, :, ys]
        for i, view in enumerate(views):
            # (C*k, cols) @ (cols, Cout): BLAS splits the C*k rows over the
            # cores, where the long cols as the output's inner axis would not
            gw[i] += view.reshape(c * k, -1) @ gt.reshape(cout, -1).T
    return gw.reshape(k, c, k, cout).transpose(3, 1, 0, 2)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1) -> Tensor:
    """2-d 'same' convolution (a correlation) with square odd kernels: zero
    padding k // 2, so the output side is ceil(side / stride).

    A pointwise conv (k = 1, stride 1) is one batched GEMM of the images'
    pixels in every direction. Any other conv reads each image through the
    bands of ``_kernel_tiles``, and kernel row i is one GEMM against its view
    (``_correlate``). Grid positions outside Ho x Wo, the k - 1 columns on the
    right and the rows a stride skips, are computed and dropped.

    Bounded working set: only the input and the output are whole. Each band
    pads its own input rows and copies its k column shifts (``_kernel_tiles``),
    so besides the two maps a forward holds one band, whatever their area.

    Backward keeps no window data. The weight gradient runs in the same bands
    (``_correlate_weight_grad``), whose buffers are freed before the input
    gradient: the 'same' correlation, by ``_correlate``, of the output
    gradient (at stride > 1 first spread onto a zeroed (N, Cout, H, W) map,
    the one whole-map scratch left) with the flipped kernel, in- and
    out-channels swapped.
    """
    n, cin, h, w = check_map("conv2d", x)
    xd, wd = x.data, _data("conv2d", weight)
    if h == 0 or w == 0:
        raise ContractViolation(f"conv2d: empty map {xd.shape}")
    if wd.ndim != 4:
        raise ContractViolation(f"conv2d: need a 4-d weight, got shape {wd.shape}")
    check_int("conv2d: stride", stride, 1)
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
    _check_bias("conv2d", bias, cout)
    if k == 1 and stride == 1:
        wm, xm = wd.reshape(cout, cin), xd.reshape(n, cin, h * w)
        data = (wm @ xm).reshape(n, cout, h, w)
        gm = lambda g: g.reshape(n, cout, h * w)  # not -1, which an empty batch cannot infer
        grad_w = lambda g: (gm(g) @ xm.swapaxes(1, 2)).sum(0).reshape(wd.shape)
        grad_x = lambda g: (wm.T @ gm(g)).reshape(xd.shape)
    else:
        data = _correlate(xd, wd, stride)
        grad_w = lambda g: _correlate_weight_grad(xd, g, k, stride)

        def grad_x(g):
            if stride > 1:
                g1 = np.zeros((n, cout, h, w), dtype=g.dtype)
                g1[:, :, ::stride, ::stride] = g
                g = g1
            return _correlate(g, wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1)
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
    check_map("depthwise_conv3x3", x, layout="NHWC")
    xd, wd = x.data, _data("depthwise_conv3x3", weight)
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
    n, c, h, w = check_map("max_pool2", x)
    if h % 2 or w % 2:
        raise ContractViolation(f"max_pool2: H and W must be even, got {x.data.shape}")
    # window axis first: the max is then three elementwise maxima of whole maps
    win = transpose(reshape(x, (n, c, h // 2, 2, w // 2, 2)), (3, 5, 0, 1, 2, 4))
    return max_along(reshape(win, (4, n, c, h // 2, w // 2)), axis=0, keepdims=False)


# -- bilinear sampling ----------------------------------------------------------

# Points ``grid_sample_points`` reads per block: a block's corner indices,
# weights and matrix values take about 3 MiB at float32, whatever the map size
POINT_BLOCK = 65536


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


def _blocks(pd: np.ndarray, shape: tuple, dtype):
    """The (N, M, 2) points ``pd`` of a (N, C, H, W) feature ``shape``,
    image by image as given, in blocks of at most ``POINT_BLOCK``
    consecutive points of one image: yields (img, lo, hi, indptr, cols, wt)
    for points lo..hi of image img, the CSR row pointers and ``_corners`` of
    the block, built when the block is taken. Indices are int32 when a
    block's corners and the feature rows fit in it, else int64: the rule
    scipy's sparse matrices apply."""
    n, _, h, w = shape
    m = pd.shape[1]
    size = max(min(POINT_BLOCK, m), 1)
    idx_t = np.int32 if max(4 * size, n * h * w) <= np.iinfo(np.int32).max else np.int64
    indptr = np.arange(0, 4 * size + 1, 4, dtype=idx_t)
    for img in range(n):
        for lo in range(0, m, size):
            hi = min(lo + size, m)
            yield (img, lo, hi, indptr[:hi - lo + 1]) + _corners(pd[img, lo:hi], img * h * w, h,
                                                                 w, idx_t, dtype)


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


def _sampler_grads(g: np.ndarray, pd: np.ndarray, shape: tuple, dtype, feature: bool,
                   fd: np.ndarray | None) -> tuple:
    """The gradients of ``grid_sample_points``' output for the upstream ``g``,
    in one walk of the blocks of the points ``pd``, each block's corners
    built once: the feature's, of ``shape``, if ``feature``, and the points',
    which reads the feature ``fd``, unless that is None; an absent one is None.

    The feature's adds each block's sampling matrix, transposed, times that
    block of ``g`` into channel-last rows, returned as a channel-first view.
    The points' takes, per block, the x and y derivative matrices, whose
    corner weights are the sampling weights with the derivative's axis
    replaced by (-1, 1), times the feature rows, each reduced against ``g``.
    """
    n, c, h, w = shape
    m = pd.shape[1]
    g = g.astype(dtype, copy=False)
    gf = np.zeros((n * h * w, c), dtype=dtype) if feature else None
    gp = None
    if fd is not None:
        rows = _feature_rows(fd)
        step = np.array([-1.0, 1.0], dtype=dtype)
        gp = np.empty((n, m, 2), dtype=dtype)
        top = np.array([w - 1, h - 1], dtype=pd.dtype)
        deriv = np.empty(min(POINT_BLOCK, m) * c, dtype=dtype)
    for img, lo, hi, indptr, cols, wt in _blocks(pd, shape, dtype):
        gb = g[img, lo:hi]
        if gf is not None:
            _spmm(indptr, cols, _corner_values(wt[1], wt[0]), gb, gf, transposed=True)
        if gp is None:
            continue
        d = deriv[:gb.size].reshape(gb.shape)
        for a, (ay, ax) in enumerate(((wt[1], step), (step, wt[0]))):
            d.fill(0)
            _spmm(indptr, cols, _corner_values(ay, ax), rows, d)
            np.einsum("pc,pc->p", d, gb, out=gp[img, lo:hi, a])
        # a coordinate clamped to the border has no gradient
        gp[img, lo:hi] *= (pd[img, lo:hi] >= 0.0) & (pd[img, lo:hi] <= top)
    if gf is not None:
        gf = gf.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    return gf, gp


def grid_sample_points(feature: Tensor, points: Tensor) -> Tensor:
    """Bilinear reads of ``feature`` (N, C, H, W) at (x, y) points (N, M, 2),
    in any layout (one grid broadcast over the batch, say), returned as
    channel-last rows (N, M, C).

    Points are clamped to the border before weighting; the gradient with
    respect to a clamped coordinate is zero. Differentiable in the feature
    values and the points.

    The reads run image by image in blocks of at most ``POINT_BLOCK``
    consecutive points (``_blocks``), each built, applied and dropped before
    the next, so a call's scratch is bounded by the block, not the map.

    Backward rebuilds the blocks from the points, which the tape keeps, and
    takes both gradients in one walk of them (``_sampler_grads``): when both
    operands are taped, the feature's function computes both and holds the
    points' for the points' function, which ``_make`` calls next with the
    same gradient. Only a taped points operand keeps the feature. The sparse
    products accumulate in place (``_spmm``), so every sum runs in point
    order, as one product of the whole map would: outputs and gradients do
    not depend on the block size.
    """
    n, c, h, w = check_map("grid_sample_points", feature)
    fd, pd = feature.data, _data("grid_sample_points", points)
    if pd.ndim != 3 or pd.shape[0] != n or pd.shape[2] != 2:
        raise ContractViolation(f"grid_sample_points: points {pd.shape} do not match "
                                f"feature {fd.shape}: need (N, M, 2)")
    if not np.isfinite(pd).all():
        raise ContractViolation("grid_sample_points: non-finite sampling coordinate")

    m = pd.shape[1]
    rows = _feature_rows(fd)
    out = np.zeros((n, m, c), dtype=fd.dtype)
    for img, lo, hi, indptr, cols, wt in _blocks(pd, fd.shape, fd.dtype):
        _spmm(indptr, cols, _corner_values(wt[1], wt[0]), rows, out[img, lo:hi])
    dtype, shape = fd.dtype, fd.shape
    kept = fd if _tape(points) is not None else None  # only the points' gradient reads it
    held = []

    def grad_feature(g):
        gf, gp = _sampler_grads(g, pd, shape, dtype, True, kept)
        if gp is not None:
            held.append(gp)
        return gf

    def grad_points(g):
        return held.pop() if held else _sampler_grads(g, pd, shape, dtype, False, kept)[1]

    return _make(out, (feature, grad_feature), (points, grad_points))


def upsample_bilinear(x: Tensor) -> Tensor:
    """Bilinear 2x upsampling with half-pixel sample centers: ``grid_sample_points``
    reads each output pixel's center, mapped onto the input, as an (N, C, 2H, 2W) view."""
    n, c, h, w = check_map("upsample_bilinear", x)
    ho, wo = 2 * h, 2 * w
    pts = np.empty((ho, wo, 2), dtype=x.data.dtype)
    pts[..., 0] = (np.arange(wo) + 0.5) / 2 - 0.5
    pts[..., 1] = ((np.arange(ho) + 0.5) / 2 - 0.5)[:, None]
    # one grid, broadcast over the batch: the tape keeps it once
    rows = grid_sample_points(x, Tensor(np.broadcast_to(pts.reshape(1, -1, 2), (n, ho * wo, 2))))
    return transpose(reshape(rows, (n, ho, wo, c)), (0, 3, 1, 2))


LN_EPS = 1e-5  # the variance floor of ``layer_norm``


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Normalize the last axis of (..., C), then scale and shift: token rows
    (N, L, C) and channel-last maps (N, H, W, C) alike."""
    xd, gd, sd = (_data("layer_norm", t) for t in (x, gain, shift))
    if xd.ndim < 2 or gd.shape != (xd.shape[-1],) or sd.shape != (xd.shape[-1],):
        raise ContractViolation(
            f"layer_norm: input {xd.shape} with gain {gd.shape}, shift {sd.shape}"
        )
    _check_axis("layer_norm", -1, xd.shape, nonempty=True)
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (xd - mu) * inv
    data = xhat * gd + sd
    lead = tuple(range(xd.ndim - 1))

    def grad_x(g):
        gx = g * gd
        m1 = gx.mean(axis=-1, keepdims=True)
        m2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - m1 - xhat * m2)

    return _make(data, (gain, lambda g: (g * xhat).sum(axis=lead)),
                 (shift, lambda g: g.sum(axis=lead)), (x, grad_x))
