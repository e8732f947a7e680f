"""Dual-branch encoders.

The snake branch stacks attention-fused blocks (two snake convolutions plus a
standard convolution in parallel) with 2x2 max pooling in between, producing
features at 1/1 .. 1/16 resolution. The transformer branch is a lightweight
hierarchical encoder with overlapping patch embedding, reduced-key/value
self-attention, a depthwise-conv FFN, and no positional encodings, producing
features at 1/4 .. 1/32 resolution. Inside a stage every module works on one
channel-last (N, H, W, C) map, so the spatial shape travels with the tensor;
each stage returns its map as (N, C, H, W) like the snake branch.
"""
from __future__ import annotations

import math

import numpy as np

from .attention import ChannelAttention, SpatialAttention, WeightedChannelAttention, attend
from .dsconv import SnakeConv2d
from .module import Conv2d, LayerNorm, Linear, Module, Parameter, _uniform
from .tensor import (
    ContractViolation,
    Tensor,
    check_entries,
    check_int,
    check_map,
    concat,
    depthwise_conv3x3,
    gelu,
    matmul,
    max_pool2,
    relu,
    reshape,
    softmax,
    transpose,
)

CONV_MODES = ("vanilla", "dsconv", "enhanced")
CHANNEL_ATTENTION_MODES = ("none", "cam", "wcam")
# key/value reduction of stage i, on its 1/2^(i+2) grid: SegFormer's Mix-Transformer
# uses these in every variant, B0 to B5 (Xie et al., arXiv 2105.15203)
MIT_REDUCTIONS = (8, 4, 2, 1)


def make_channel_attention(mode: str, channels: int, ratio: int,
                           rng: np.random.Generator):
    if mode == "wcam":
        return WeightedChannelAttention(channels, ratio=ratio, rng=rng)
    if mode == "cam":
        return ChannelAttention(channels, ratio=ratio, rng=rng)
    if mode == "none":
        return None
    raise ContractViolation(f"channel attention mode must be one of "
                            f"{CHANNEL_ATTENTION_MODES}, got {mode!r}")


class SnakeBlock(Module):
    """Three parallel convolutions -> channel+spatial attention -> fusion -> residual.

    Each branch is ``cout`` wide, and their order in the concatenation is
    fixed: horizontal snake, vertical snake, standard 3x3. ``conv_mode``
    swaps the two snake branches for the ablations (frozen straight chains,
    or plain 3x3 convolutions).
    """

    def __init__(self, cin: int, cout: int, rng: np.random.Generator,
                 conv_mode: str = "enhanced", channel_attention: str = "wcam",
                 ratio: int = 8):
        if conv_mode not in CONV_MODES:
            raise ContractViolation(f"conv mode must be one of {CONV_MODES}, got {conv_mode!r}")
        if conv_mode == "vanilla":
            self.branch_h = Conv2d(cin, cout, 3, rng=rng)
            self.branch_v = Conv2d(cin, cout, 3, rng=rng)
        else:
            frozen = conv_mode == "dsconv"
            self.branch_h = SnakeConv2d(cin, cout, "horizontal", rng, frozen_offsets=frozen)
            self.branch_v = SnakeConv2d(cin, cout, "vertical", rng, frozen_offsets=frozen)
        self.local = Conv2d(cin, cout, 3, rng=rng)
        self.ca = make_channel_attention(channel_attention, 3 * cout, ratio, rng)
        self.sa = SpatialAttention(rng=rng)
        self.fuse = Conv2d(3 * cout, cout, 3, rng=rng)
        self.proj = Conv2d(cin, cout, 1, rng=rng) if cin != cout else None

    def forward(self, x: Tensor) -> Tensor:
        cat = relu(concat([self.branch_h(x), self.branch_v(x), self.local(x)], axis=1))
        fused = self.fuse(attend(cat, self.ca, self.sa))
        res = x if self.proj is None else self.proj(x)
        return fused + res


class SnakeEncoder(Module):
    """Five snake blocks with max pooling in between: 1/1 .. 1/16 features."""

    def __init__(self, cin: int, widths, rng: np.random.Generator,
                 conv_mode: str = "enhanced", channel_attention: str = "wcam",
                 ratio: int = 8):
        check_entries("SnakeEncoder: widths", widths, 5)
        for i, (prev, w) in enumerate(zip((cin, *widths), widths)):
            setattr(self, str(i), SnakeBlock(prev, w, rng, conv_mode=conv_mode,
                                             channel_attention=channel_attention, ratio=ratio))

    def forward(self, x: Tensor) -> list[Tensor]:
        h, w = check_map("SnakeEncoder", x)[2:]
        if h % 16 or w % 16:
            raise ContractViolation(f"snake encoder needs H, W divisible by 16, got {x.data.shape}")
        feats = []
        for stage in self:
            x = stage(max_pool2(x) if feats else x)
            feats.append(x)
        return feats


class EfficientSelfAttention(Module):
    """Multi-head attention over the positions of an (N, H, W, C) map, with
    keys/values taken from a spatially reduced map.

    The reduction is a non-overlapping RxR patch flatten followed by a linear
    map and layer norm (equivalent to a stride-R, kernel-R convolution).
    """

    def __init__(self, c: int, heads: int, reduction: int,
                 rng: np.random.Generator):
        for name, value in (("c", c), ("heads", heads), ("reduction", reduction)):
            check_int(f"EfficientSelfAttention: {name}", value, 1)
        if c % heads:
            raise ContractViolation(f"channels {c} not divisible by heads {heads}")
        self.c = c
        self.heads = heads
        self.reduction = reduction
        self.q = Linear(c, c, rng=rng)
        self.k = Linear(c, c, rng=rng)
        self.v = Linear(c, c, rng=rng)
        self.o = Linear(c, c, rng=rng)
        if reduction > 1:
            self.sr = Linear(c * reduction * reduction, c, rng=rng)
            self.sr_norm = LayerNorm(c)

    def _reduce(self, x: Tensor) -> Tensor:
        r = self.reduction
        n, h, w, c = x.data.shape
        grid = reshape(x, (n, h // r, r, w // r, r, c))
        patches = reshape(transpose(grid, (0, 1, 3, 2, 4, 5)),
                          (n, (h // r) * (w // r), r * r * c))
        return self.sr_norm(self.sr(patches))

    def forward(self, x: Tensor) -> Tensor:
        r = self.reduction
        n, h, w, c = check_map("EfficientSelfAttention", x, self.c, "NHWC")
        if h % r or w % r:
            raise ContractViolation(f"EfficientSelfAttention: H, W must be divisible by "
                                    f"reduction {r}, got shape {x.data.shape}")
        kv_src = self._reduce(x) if r > 1 else x
        d = c // self.heads

        def split_heads(t, tokens):
            return transpose(reshape(t, (n, tokens, self.heads, d)), (0, 2, 1, 3))

        q = split_heads(self.q(x), h * w)
        k = split_heads(self.k(kv_src), (h // r) * (w // r))
        v = split_heads(self.v(kv_src), (h // r) * (w // r))
        scores = matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(d))
        probs = softmax(scores, axis=-1)
        ctx = matmul(probs, v)
        merged = reshape(transpose(ctx, (0, 2, 1, 3)), (n, h, w, c))
        return self.o(merged)


class MixFFN(Module):
    """Linear expand, 3x3 depthwise conv, gelu, project; all on the (N, H, W, C) map."""

    def __init__(self, c: int, rng: np.random.Generator):
        hidden = 4 * c
        # fc1 draws from rng first but is set after dw_*, whose keys come first
        fc1 = Linear(c, hidden, rng=rng)
        self.dw_weight = Parameter(_uniform(rng, (hidden, 3, 3), 1.0 / 3.0))
        self.dw_bias = Parameter(np.zeros(hidden, dtype=np.float32))
        self.fc1 = fc1
        self.fc2 = Linear(hidden, c, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(depthwise_conv3x3(self.fc1(x), self.dw_weight, self.dw_bias)))


class TransformerBlock(Module):
    def __init__(self, c: int, heads: int, reduction: int, rng: np.random.Generator):
        self.norm1 = LayerNorm(c)
        self.attn = EfficientSelfAttention(c, heads, reduction, rng)
        self.norm2 = LayerNorm(c)
        self.ffn = MixFFN(c, rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        return x + self.ffn(self.norm2(x))


class OverlapPatchEmbed(Module):
    """Strided overlapping 'same' convolution to a normed channel-last map:
    k7/s4 first, k3/s2 after."""

    def __init__(self, cin: int, cout: int, first: bool, rng: np.random.Generator):
        k, s = (7, 4) if first else (3, 2)
        self.conv = Conv2d(cin, cout, k, stride=s, rng=rng)
        self.norm = LayerNorm(cout)

    def forward(self, x: Tensor) -> Tensor:
        return self.norm(transpose(self.conv(x), (0, 2, 3, 1)))


class TransformerStage(Module):
    """Patch embedding, blocks and norm on the channel-last map; returns (N, C, H, W)."""

    def __init__(self, cin: int, cout: int, depth: int, heads: int, reduction: int,
                 first: bool, rng: np.random.Generator):
        self.embed = OverlapPatchEmbed(cin, cout, first, rng)
        for b in range(depth):
            setattr(self, str(b), TransformerBlock(cout, heads, reduction, rng))
        self.norm = LayerNorm(cout)

    def forward(self, x: Tensor) -> Tensor:
        for child in self:  # embed, the blocks "0", "1", ..., norm
            x = child(x)
        return transpose(x, (0, 3, 1, 2))


class MixTransformerEncoder(Module):
    """Four-stage hierarchical encoder: 1/4, 1/8, 1/16, 1/32 feature maps."""

    def __init__(self, cin: int, widths, depths, heads, rng: np.random.Generator):
        for name, values in (("widths", widths), ("depths", depths), ("heads", heads)):
            check_entries(f"MixTransformerEncoder: {name}", values, 4)
        for i, prev in enumerate((cin, *widths[:3])):
            setattr(self, str(i), TransformerStage(prev, widths[i], depths[i], heads[i],
                                                   MIT_REDUCTIONS[i], first=(i == 0), rng=rng))

    def forward(self, x: Tensor) -> list[Tensor]:
        h, w = check_map("MixTransformerEncoder", x)[2:]
        if h % 32 or w % 32:
            raise ContractViolation(
                f"transformer encoder needs H, W divisible by 32, got {x.data.shape}"
            )
        feats = []
        for stage in self:
            x = stage(x)
            feats.append(x)
        return feats
