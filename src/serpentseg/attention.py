"""Channel and spatial attention.

``WeightedChannelAttention`` runs two independent ``ChannelAttention``
bottleneck MLPs over the average- and max-pooled channel descriptors and
mixes them with learnable per-channel weights before the sigmoid.
``ChannelAttention`` is the plain shared-MLP variant kept for ablations.
``SpatialAttention`` is the stacked mean/max map followed by a 7x7
convolution and sigmoid. ``attend``, the gate the snake blocks and fusion
stages share, applies the channel gate, if any, and the spatial map in one op.
"""
from __future__ import annotations

import numpy as np

from .module import Module, Parameter, _uniform
from .tensor import (
    ContractViolation,
    Tensor,
    _make,
    check_int,
    check_map,
    concat,
    conv2d,
    linear,
    max_along,
    mul,
    relu,
    reshape,
    sigmoid,
    tmean,
)


def _pooled_rows(x: Tensor) -> tuple[Tensor, Tensor]:
    """The (N, C) spatial mean and max descriptors of an (N, C, H, W) map."""
    n, c, h, w = x.data.shape
    if h * w < 1:
        raise ContractViolation(f"channel attention: empty spatial extent {x.data.shape}")
    fmax = max_along(reshape(x, (n, c, h * w)), axis=2, keepdims=False)
    return tmean(x, axis=(2, 3)), fmax


class WeightedChannelAttention(Module):
    """Per-channel gate in (0, 1) from weighted avg/max MLP branches."""

    def __init__(self, channels: int, ratio: int = 8, *, rng: np.random.Generator):
        self.channels = channels
        self.avg = ChannelAttention(channels, ratio=ratio, rng=rng)
        self.max = ChannelAttention(channels, ratio=ratio, rng=rng)
        # unit branch weights recover plain channel attention at init
        self.wavg = Parameter(np.ones(channels, dtype=np.float32))
        self.wmax = Parameter(np.ones(channels, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        n, c = check_map("WeightedChannelAttention", x, self.channels)[:2]
        favg, fmax = _pooled_rows(x)
        mixed = (mul(self.avg.mlp(favg), reshape(self.wavg, (1, c)))
                 + mul(self.max.mlp(fmax), reshape(self.wmax, (1, c))))
        return reshape(sigmoid(mixed), (n, c, 1, 1))


class ChannelAttention(Module):
    """Shared-MLP channel attention: sigmoid(MLP(avg) + MLP(max))."""

    def __init__(self, channels: int, ratio: int = 8, *, rng: np.random.Generator):
        check_int("ChannelAttention: channels", channels, 1)
        check_int("ChannelAttention: ratio", ratio, 1)
        if channels % ratio:
            raise ContractViolation(
                f"reduction ratio {ratio} does not divide {channels} channels"
            )
        hidden = channels // ratio
        self.channels = channels
        self.w0 = Parameter(_uniform(rng, (hidden, channels), 1.0 / np.sqrt(channels)))
        self.w1 = Parameter(_uniform(rng, (channels, hidden), 1.0 / np.sqrt(hidden)))

    def mlp(self, v: Tensor) -> Tensor:
        """The bottleneck MLP over (N, C) channel descriptors."""
        return linear(relu(linear(v, self.w0)), self.w1)

    def forward(self, x: Tensor) -> Tensor:
        n, c = check_map("ChannelAttention", x, self.channels)[:2]
        favg, fmax = _pooled_rows(x)
        return reshape(sigmoid(self.mlp(favg) + self.mlp(fmax)), (n, c, 1, 1))


class SpatialAttention(Module):
    """Per-pixel gate from the stacked channel-mean and channel-max maps."""

    def __init__(self, *, rng: np.random.Generator):
        self.kernel = Parameter(_uniform(rng, (1, 2, 7, 7), 1.0 / np.sqrt(2 * 49)))
        self.bias = Parameter(np.zeros(1, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        check_map("SpatialAttention", x)
        mean_map = tmean(x, axis=1, keepdims=True)
        max_map = max_along(x, axis=1, keepdims=True)
        stacked = concat([mean_map, max_map], axis=1)
        return sigmoid(conv2d(stacked, self.kernel, self.bias))


def attend(x: Tensor, ca: Module | None, sa: SpatialAttention) -> Tensor:
    """Gate (N, C, H, W) ``x`` channel-wise with the (N, C, 1, 1) gate of
    ``ca``, unless it is None, then spatially with the (N, 1, H, W) map of
    ``sa``, in one op whose gradients recompute the channel-gated map."""
    n, c, h, w = check_map("attend", x)
    sa_map = sa(x)
    if sa_map.data.shape != (n, 1, h, w):
        raise ContractViolation(f"spatial attention {sa_map.data.shape} does not match "
                                f"input {x.data.shape}")
    if ca is None:
        return mul(x, sa_map)
    ca_gate = ca(x)
    if ca_gate.data.shape != (n, c, 1, 1):
        raise ContractViolation(f"channel attention {ca_gate.data.shape} does not match "
                                f"input {x.data.shape}")
    xd, cd, sd = x.data, ca_gate.data, sa_map.data
    data = xd * cd
    data *= sd
    gx = lambda g: (g * xd).reshape(n, c, h * w)  # a gate's gradient: gx(g) @ the other gate
    return _make(data, (x, lambda g: g * sd * cd),
                 (ca_gate, lambda g: (gx(g) @ sd.reshape(n, h * w, 1)).reshape(n, c, 1, 1)),
                 (sa_map, lambda g: (cd.reshape(n, 1, c) @ gx(g)).reshape(n, 1, h, w)))
