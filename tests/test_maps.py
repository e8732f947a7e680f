"""The map rule: every public entry point that takes a feature map rejects a
3-d map, and a map whose channel count it knows to be wrong, with a
``ContractViolation`` naming itself and the shape."""

import numpy as np
import pytest

from serpentseg import tensor as T
from serpentseg.attention import (
    ChannelAttention,
    SpatialAttention,
    WeightedChannelAttention,
    attend,
)
from serpentseg.dsconv import SnakeConv2d, chain_contract, chain_coordinates
from serpentseg.encoders import (
    EfficientSelfAttention,
    MixTransformerEncoder,
    SnakeBlock,
    SnakeEncoder,
)
from serpentseg.model import FusionStage, ModelConfig, SnakeFormer, combined_loss
from serpentseg.tensor import ContractViolation, Tensor


def _zeros(shape):
    return Tensor(np.zeros(shape, dtype=np.float32))


def _rng():
    return np.random.default_rng(0)


def _snake(x):
    return SnakeConv2d(3, 4, "horizontal", _rng())(x)


def _offsets(x):
    return SnakeConv2d(3, 4, "vertical", _rng()).compute_pyramid_offsets(x)


def _model(x):
    cfg = ModelConfig(snake_widths=(2, 2, 4, 4, 4), transformer_widths=(4, 4, 8, 8),
                      transformer_heads=(1, 1, 2, 2), decoder_widths=(4, 4, 4, 4, 4),
                      wcam_ratio=2)
    return SnakeFormer(cfg)(x)


# id: (a valid map's shape, its channel axis if the callee knows the count,
# the call, the name a 3-d map's message starts with, and a wrong count's).
# The composites SnakeBlock and FusionStage raise in the first module they
# call; so do the encoders, which keep no channel count, for a wrong count
CASES = {
    "conv2d": ((1, 3, 8, 8), 1, lambda x: T.conv2d(x, _zeros((2, 3, 3, 3))),
               "conv2d", "conv2d"),
    "depthwise_conv3x3": ((1, 8, 8, 3), 3, lambda x: T.depthwise_conv3x3(x, _zeros((3, 3, 3))),
                          "depthwise_conv3x3", "depthwise_conv3x3"),
    "max_pool2": ((1, 3, 8, 8), None, T.max_pool2, "max_pool2", None),
    "grid_sample_points": ((1, 3, 8, 8), None,
                           lambda x: T.grid_sample_points(x, _zeros((1, 5, 2))),
                           "grid_sample_points", None),
    "upsample_bilinear": ((1, 3, 8, 8), None, T.upsample_bilinear,
                          "upsample_bilinear", None),
    "chain_coordinates": ((1, 16, 4, 4), 1, chain_coordinates,
                          "chain_coordinates", "chain_coordinates"),
    "chain_contract": ((1, 4, 4, 18), 3,
                       lambda x: chain_contract(x, _zeros((5, 2, 9)), _zeros((5,))),
                       "chain_contract", "chain_contract"),
    "SnakeConv2d": ((1, 3, 8, 8), 1, _snake, "SnakeConv2d", "SnakeConv2d"),
    "compute_pyramid_offsets": ((1, 3, 8, 8), 1, _offsets, "SnakeConv2d.compute_pyramid_offsets",
                                "SnakeConv2d.compute_pyramid_offsets"),
    "ChannelAttention": ((1, 8, 4, 4), 1, lambda x: ChannelAttention(8, 4, rng=_rng())(x),
                         "ChannelAttention", "ChannelAttention"),
    "WeightedChannelAttention": ((1, 8, 4, 4), 1,
                                 lambda x: WeightedChannelAttention(8, 4, rng=_rng())(x),
                                 "WeightedChannelAttention", "WeightedChannelAttention"),
    "SpatialAttention": ((1, 3, 8, 8), None, lambda x: SpatialAttention(rng=_rng())(x),
                         "SpatialAttention", None),
    "attend": ((1, 8, 4, 4), None, lambda x: attend(
        x, WeightedChannelAttention(8, 4, rng=_rng()), SpatialAttention(rng=_rng())),
        "attend", None),
    "SnakeBlock": ((1, 3, 8, 8), 1, lambda x: SnakeBlock(3, 2, 4, _rng(), ratio=2)(x),
                   "SnakeConv2d", "SnakeConv2d"),
    "SnakeEncoder": ((1, 1, 16, 16), 1, lambda x: SnakeEncoder(1, (2,) * 5, _rng(), ratio=2)(x),
                     "SnakeEncoder", "SnakeConv2d"),
    "MixTransformerEncoder": ((1, 1, 32, 32), 1, lambda x: MixTransformerEncoder(
        1, (4, 4, 8, 8), (1,) * 4, (1, 1, 2, 2), _rng())(x),
        "MixTransformerEncoder", "conv2d"),
    "EfficientSelfAttention": ((1, 4, 4, 8), 3,
                               lambda x: EfficientSelfAttention(8, 2, 2, _rng())(x),
                               "EfficientSelfAttention", "EfficientSelfAttention"),
    "FusionStage": ((1, 8, 4, 4), 1, lambda x: FusionStage(8, 4, _rng(), ratio=4)([x]),
                    "attend", "WeightedChannelAttention"),
    "SnakeFormer": ((1, 1, 32, 32), 1, _model, "SnakeFormer", "SnakeFormer"),
    "combined_loss": ((1, 2, 4, 4), 1,
                      lambda x: combined_loss(x, np.zeros((1, 4, 4), dtype=np.uint8)),
                      "combined_loss", "combined_loss"),
}


def _bad_maps():
    for name, (shape, axis, call, rank_name, count_name) in CASES.items():
        yield pytest.param(shape[1:], call, rank_name, id=f"{name}-3d")
        if axis is not None:
            wide = tuple(s + (i == axis) for i, s in enumerate(shape))
            yield pytest.param(wide, call, count_name, id=f"{name}-channels")


@pytest.mark.parametrize("shape,call,named", list(_bad_maps()))
def test_bad_map_raises_naming_callee_and_shape(shape, call, named):
    # unpacking a 3-d shape into four names raises a plain ValueError, which
    # is not a ContractViolation
    with pytest.raises(ContractViolation) as err:
        call(_zeros(shape))
    msg = str(err.value)
    assert msg.startswith(f"{named}: ") and str(shape) in msg, msg
