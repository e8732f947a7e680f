"""One table, ``OPS``, of how to call every op: the one place the operand,
map, tape and gradient tests learn it. Adding an op is one row (``Op``): its
call, its operands' shapes and the rules it keeps. A row's id is the name
the op's messages start with, optionally followed by ``-variant``; an entry
point whose messages name the first module it calls (``SnakeBlock``,
``FusionStage``) keeps its own name and gives the callee's in ``map``.

The drivers: ``test_ops_name_an_operand_that_is_not_a_tensor`` and
``test_tape_frees_arrays_that_backward_does_not_read`` (test_tensor.py),
``test_bad_map_raises_naming_callee_and_shape`` (test_maps.py), and
``test_gradients_match_finite_differences`` (test_ops.py), whose
``test_every_public_op_has_a_row`` fails for a public function of
``tensor.py`` or ``dsconv.py`` without a row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from serpentseg import tensor as T
from serpentseg.attention import (ChannelAttention, SpatialAttention, WeightedChannelAttention,
                                  _pooled_rows, attend)
from serpentseg.dsconv import SnakeConv2d, _embed_kernels, chain_contract, chain_coordinates
from serpentseg.encoders import (EfficientSelfAttention, MixTransformerEncoder, SnakeBlock,
                                 SnakeEncoder)
from serpentseg.model import FusionStage, ModelConfig, SnakeFormer, combined_loss


def _positive(rng, shape):
    """Values in [0.5, 1.5): a divisor, or a log's argument."""
    return rng.uniform(0.5, 1.5, shape)


def _off_kink(rng, shape):
    """Values at least 0.1 from relu's kink at 0."""
    return rng.uniform(0.1, 1.5, shape) * rng.choice([-1.0, 1.0], shape)


def _inside(h, w):
    """A sampler of (x, y) points at least 0.1 inside an (H, W) map, clear
    of the border clamp's kink."""
    return lambda rng, shape: rng.uniform(0.1, (w - 1.1, h - 1.1), shape)


@dataclass(frozen=True)
class Op:
    """How to call one op or entry point, and the rules it keeps.

    ``call`` takes one ``Tensor`` per operand, in the order of ``shapes``
    (operand name -> one valid shape); the names label test ids.
    ``tensors``: the operand positions at which a list or an ndarray raises
    ``ContractViolation`` "<op>: needs a Tensor, got <type>", <op> the id up
    to any ``-variant``, or a map's 3-d name; binary elementwise ops lift
    such an operand instead, so they list none.
    ``map``: operand 0 is a feature map; (its channel axis or None, the name
    a 3-d map's message starts with, the name a wrong channel count's does).
    ``tape``: patterns "<operands>-><output>", one letter each: "f" taped,
    and freed once the caller drops it; "k" taped and kept (a gradient reads
    it); "." untaped. ``grad``: grad-check every operand in float64 at 1e-3.
    ``draw``: operand name -> sampler ``(rng, shape) -> array`` of valid
    values; standard normal otherwise.
    """

    call: Callable
    shapes: dict
    tensors: tuple = ()
    map: tuple | None = None
    tape: tuple = ()
    grad: bool = True
    draw: dict = field(default_factory=dict)

    def operands(self, rng, dtype=np.float64) -> list[np.ndarray]:
        normal = np.random.Generator.standard_normal
        return [self.draw.get(name, normal)(rng, shape).astype(dtype)
                for name, shape in self.shapes.items()]


def _own(op: str, axis=1):
    """``map`` of an op whose messages name itself, with channel axis
    ``axis``, or None if it takes any channel count."""
    return (axis, op, op if axis is not None else None)


def _entry(call, shape, map_):
    """The row of an entry point of one feature map, which builds its own
    module: the operand and map rules only."""
    return Op(call, {"x": shape}, tensors=(0,), map=map_, grad=False)


def _rng():
    return np.random.default_rng(0)


_MODEL = dict(snake_widths=(2, 2, 4, 4, 4), transformer_widths=(4, 4, 8, 8),
              transformer_heads=(1, 1, 2, 2), decoder_widths=(4, 4, 4, 4, 4), wcam_ratio=2)
_A = {"a": (2, 3)}
_AB = {"a": (2, 3), "b": (2, 3)}
_A3 = {"a": (2, 3, 4)}
_A4 = {"a": (2, 3, 4, 4)}
_BIASED = {"weight": (3, 2, 3, 3), "bias": (3,)}  # conv2d's, after its input

OPS = {
    # elementwise arithmetic
    "add": Op(T.add, _AB, tape=("ff->f",)),
    "sub": Op(T.sub, _AB, tape=("ff->f",)),
    "mul": Op(T.mul, {"a": (2, 3), "b": (1, 3)}, tape=("f.->f", ".f->f")),
    "div": Op(T.div, _AB, tape=("f.->f",), draw={"b": _positive}),
    "neg": Op(T.neg, _A, tensors=(0,), tape=("f->f",)),
    # reductions and shape surgery
    "tsum": Op(lambda a: T.tsum(a, axis=1), _A3, tensors=(0,), tape=("f->f",)),
    "tsum-keepdims": Op(lambda a: T.tsum(a, axis=1, keepdims=True), _A3),
    "tmean": Op(lambda a: T.tmean(a, axis=1), _A3, tensors=(0,), tape=("f->f",)),
    "max_along": Op(lambda a: T.max_along(a, axis=1), _A3, tensors=(0,), tape=("f->f",)),
    "reshape": Op(lambda a: T.reshape(a, (3, 4)), {"a": (2, 6)}, tensors=(0,), tape=("f->f",)),
    "transpose": Op(lambda a: T.transpose(a, (2, 0, 1)), _A3, tensors=(0,), tape=("f->f",)),
    "concat": Op(lambda a, b: T.concat([a, b], axis=1), {"a": (2, 3), "b": (2, 2)},
                 tensors=(0, 1), tape=("ff->f",)),
    # pointwise nonlinearities and normalizers
    "relu": Op(T.relu, _A4, tensors=(0,), tape=("f->k",), draw={"a": _off_kink}),
    "sigmoid": Op(T.sigmoid, _A4, tensors=(0,), tape=("f->k",)),
    "tanh": Op(T.tanh, _A4, tensors=(0,), tape=("f->k",)),
    "gelu": Op(T.gelu, _A4, tensors=(0,), tape=("k->f",)),
    "exp": Op(T.exp, _A, tensors=(0,), tape=("f->k",)),
    "log": Op(T.log, _A, tensors=(0,), tape=("k->f",), draw={"a": _positive}),
    "softmax": Op(lambda a: T.softmax(a, axis=-1), {"a": (2, 2, 5)}, tensors=(0,)),
    "log_softmax": Op(lambda a: T.log_softmax(a, axis=1), _A3, tensors=(0,), tape=("f->k",)),
    "layer_norm": Op(T.layer_norm, {"x": (2, 3, 6), "gain": (6,), "shift": (6,)},
                     tensors=(0, 1, 2), tape=("fkf->f",)),
    "layer_norm-map": Op(T.layer_norm, {"x": (2, 3, 2, 6), "gain": (6,), "shift": (6,)}),
    # linear algebra, convolution and pooling
    "matmul": Op(T.matmul, {"a": (2, 3, 4), "b": (2, 4, 5)}, tensors=(0, 1), tape=("f.->f",)),
    "linear": Op(T.linear, {"x": (2, 4), "weight": (3, 4), "bias": (3,)}, tensors=(0, 1, 2),
                 tape=("f..->f",)),
    "linear-3d": Op(T.linear, {"x": (2, 3, 4), "weight": (3, 4), "bias": (3,)},
                    tape=("f..->f",)),
    "conv2d": Op(T.conv2d, {"x": (1, 2, 5, 5)} | _BIASED, tensors=(0, 1, 2),
                 map=_own("conv2d"), tape=("f..->f",)),
    "conv2d-strided": Op(lambda x, w, b: T.conv2d(x, w, b, stride=2),
                         {"x": (1, 2, 6, 6)} | _BIASED, tape=("f..->f",)),
    "depthwise_conv3x3": Op(T.depthwise_conv3x3,
                            {"x": (2, 4, 4, 3), "weight": (3, 3, 3), "bias": (3,)},
                            tensors=(0, 1, 2), map=_own("depthwise_conv3x3", 3),
                            tape=("f..->f",)),
    "depthwise_conv3x3-nobias": Op(T.depthwise_conv3x3, {"x": (2, 4, 5, 3), "weight": (3, 3, 3)}),
    "max_pool2": Op(T.max_pool2, {"x": (2, 2, 4, 4)}, tensors=(0,), map=_own("max_pool2", None),
                    tape=("f->f",)),
    # channel attention's (N, C) mean and max rows
    "_pooled_rows-mean": Op(lambda x: _pooled_rows(x)[0], _A4),
    "_pooled_rows-max": Op(lambda x: _pooled_rows(x)[1], _A4),
    # bilinear sampling
    "grid_sample_points": Op(T.grid_sample_points, {"feature": (1, 2, 4, 5), "points": (1, 6, 2)},
                             tensors=(0, 1), map=_own("grid_sample_points", None),
                             tape=("f.->f",), draw={"points": _inside(4, 5)}),
    "upsample_bilinear": Op(T.upsample_bilinear, {"x": (1, 2, 3, 3)}, tensors=(0,),
                            map=_own("upsample_bilinear", None), tape=("f->f",)),
    # the snake convolution's ops
    "chain_coordinates": Op(chain_coordinates, {"steps": (1, 16, 2, 3)}, tensors=(0,),
                            map=_own("chain_coordinates"), tape=("f->f",)),
    "chain_contract": Op(chain_contract, {"rows": (1, 2, 3, 18), "weight": (3, 2, 9),
                                          "bias": (3,)},
                         tensors=(0, 1, 2), map=_own("chain_contract", 3), tape=("f..->f",)),
    "_embed_kernels": Op(lambda *ws: _embed_kernels(list(ws)),
                         {"w3": (4, 2, 3, 3), "w5": (4, 2, 5, 5)}, tape=("ff->f",)),
    # modules and entry points that take a feature map
    "SnakeConv2d": _entry(lambda x: SnakeConv2d(3, 4, "horizontal", _rng())(x), (1, 3, 8, 8),
                          _own("SnakeConv2d")),
    "compute_pyramid_offsets": _entry(
        lambda x: SnakeConv2d(3, 4, "vertical", _rng()).compute_pyramid_offsets(x),
        (1, 3, 8, 8), _own("SnakeConv2d.compute_pyramid_offsets")),
    "ChannelAttention": _entry(lambda x: ChannelAttention(8, 4, rng=_rng())(x), (1, 8, 4, 4),
                               _own("ChannelAttention")),
    "WeightedChannelAttention": _entry(lambda x: WeightedChannelAttention(8, 4, rng=_rng())(x),
                                       (1, 8, 4, 4), _own("WeightedChannelAttention")),
    "SpatialAttention": _entry(lambda x: SpatialAttention(rng=_rng())(x), (1, 3, 8, 8),
                               _own("SpatialAttention", None)),
    "attend": _entry(lambda x: attend(x, WeightedChannelAttention(8, 4, rng=_rng()),
                                      SpatialAttention(rng=_rng())),
                     (1, 8, 4, 4), _own("attend", None)),
    # the composites raise in the first module they call; so do the
    # encoders, which keep no channel count, for a wrong count
    "SnakeBlock": _entry(lambda x: SnakeBlock(3, 4, _rng(), ratio=2)(x), (1, 3, 8, 8),
                         (1, "SnakeConv2d", "SnakeConv2d")),
    "SnakeEncoder": _entry(lambda x: SnakeEncoder(1, (2,) * 5, _rng(), ratio=2)(x),
                           (1, 1, 16, 16), (1, "SnakeEncoder", "SnakeConv2d")),
    "MixTransformerEncoder": _entry(
        lambda x: MixTransformerEncoder(1, (4, 4, 8, 8), (1,) * 4, (1, 1, 2, 2), _rng())(x),
        (1, 1, 32, 32), (1, "MixTransformerEncoder", "conv2d")),
    "EfficientSelfAttention": _entry(lambda x: EfficientSelfAttention(8, 2, 2, _rng())(x),
                                     (1, 4, 4, 8), _own("EfficientSelfAttention", 3)),
    "FusionStage": _entry(lambda x: FusionStage(8, 4, _rng(), ratio=4)([x]), (1, 8, 4, 4),
                          (1, "attend", "WeightedChannelAttention")),
    "SnakeFormer": _entry(lambda x: SnakeFormer(ModelConfig(**_MODEL))(x), (1, 1, 32, 32),
                          _own("SnakeFormer")),
    "combined_loss": _entry(lambda x: combined_loss(x, np.zeros((1, 4, 4), dtype=np.uint8)),
                            (1, 2, 4, 4), _own("combined_loss")),
}

