"""Fusion decoder, full dual-branch model, training loss, and optimizer.

Decoding starts from the transformer's 1/32 map and climbs one scale per
stage; snake-branch features join at 1/16 .. 1/1 and transformer features at
1/32 .. 1/4, with the previous stage's output bilinearly upsampled into every
concatenation. A final 1x1 convolution produces two logit channels at input
resolution.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .attention import SpatialAttention, attend
from .encoders import (
    CHANNEL_ATTENTION_MODES,
    CONV_MODES,
    MixTransformerEncoder,
    SnakeEncoder,
    make_channel_attention,
)
from .metrics import MetricsReport, aggregate, evaluate_pair
from .module import Conv2d, Module
from .tensor import (
    ContractViolation,
    Tensor,
    check_int,
    concat,
    exp,
    log_softmax,
    mul,
    narrow,
    no_grad,
    relu,
    softmax,
    tmean,
    tsum,
    upsample_bilinear,
)


class TrainingError(RuntimeError):
    """Non-finite loss or gradient during optimization."""


@dataclass
class ModelConfig:
    image_channels: int = 1
    snake_widths: tuple = (8, 16, 32, 64, 128)
    transformer_widths: tuple = (16, 32, 64, 128)
    transformer_depths: tuple = (1, 1, 1, 1)
    transformer_heads: tuple = (1, 2, 4, 8)
    transformer_reductions: tuple = (8, 4, 2, 1)
    decoder_widths: tuple = (64, 48, 32, 24, 16)  # scales 1/16, 1/8, 1/4, 1/2, 1/1
    wcam_ratio: int = 8
    seed: int = 0
    conv_mode: str = "enhanced"
    channel_attention: str = "wcam"

    def validate(self):
        for name in ("image_channels", "wcam_ratio"):
            check_int(name, getattr(self, name), 1)
        for name, length, lowest in (("snake_widths", 5, 1), ("decoder_widths", 5, 1),
                                     ("transformer_widths", 4, 1), ("transformer_heads", 4, 1),
                                     ("transformer_reductions", 4, 1),
                                     ("transformer_depths", 4, 0)):
            values = getattr(self, name)
            if len(values) != length:
                raise ContractViolation(f"{name} needs {length} entries")
            for value in values:
                check_int(name, value, lowest)
        if self.conv_mode not in CONV_MODES:
            raise ContractViolation(f"conv_mode must be one of {CONV_MODES}")
        if self.channel_attention not in CHANNEL_ATTENTION_MODES:
            raise ContractViolation(
                f"channel_attention must be one of {CHANNEL_ATTENTION_MODES}")
        for i, (width, heads) in enumerate(zip(self.transformer_widths, self.transformer_heads)):
            if width % heads:
                raise ContractViolation(f"transformer_heads[{i}] = {heads} does not divide "
                                        f"transformer_widths[{i}] = {width}")
        if self.channel_attention != "none":
            gated = [(f"3 * snake_widths[{i}]", 3 * w) for i, w in enumerate(self.snake_widths)]
            gated += [(f"the input of decoder stage {name}", cin)
                      for name, (cin, _) in self.fusion_widths().items()]
            for where, width in gated:
                if width % self.wcam_ratio:
                    raise ContractViolation(f"wcam_ratio {self.wcam_ratio} does not divide "
                                            f"{where} = {width}")
        return self

    def fusion_widths(self) -> dict[str, tuple[int, int]]:
        """(input, output) widths of the decoder stages, deepest first."""
        sw, tw, dw = self.snake_widths, self.transformer_widths, self.decoder_widths
        # the deepest stage refines the lone 1/32 transformer map at its own width
        return {"s32": (tw[3], tw[3]),
                "s16": (sw[4] + tw[2] + tw[3], dw[0]),
                "s8": (sw[3] + tw[1] + dw[0], dw[1]),
                "s4": (sw[2] + tw[0] + dw[1], dw[2]),
                "s2": (sw[1] + dw[2], dw[3]),
                "s1": (sw[0] + dw[3], dw[4])}


def tiny_config(seed: int = 0, **overrides) -> ModelConfig:
    """Small widths for CPU-scale experiments and the acceptance runs."""
    cfg = ModelConfig(
        snake_widths=(4, 8, 12, 16, 24),
        transformer_widths=(8, 16, 24, 32),
        transformer_heads=(1, 2, 2, 4),
        decoder_widths=(24, 16, 12, 8, 8),
        wcam_ratio=4,
        seed=seed,
    )
    try:
        cfg = replace(cfg, **overrides)
    except TypeError as e:
        raise ContractViolation(f"tiny_config: {e}") from None
    return cfg.validate()


class FusionStage(Module):
    """Concatenate available features, gate, smooth with two convs, add residual."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator,
                 channel_attention: str = "wcam", ratio: int = 8):
        self.ca = make_channel_attention(channel_attention, cin, ratio, rng)
        self.sa = SpatialAttention(rng=rng)
        self.conv1 = Conv2d(cin, cout, 3, padding=1, rng=rng)
        self.conv2 = Conv2d(cout, cout, 3, padding=1, rng=rng)
        self.proj = Conv2d(cin, cout, 1, rng=rng) if cin != cout else None

    def forward(self, parts: list[Tensor]) -> Tensor:
        shapes = {p.data.shape[2:] for p in parts}
        if len(shapes) != 1:
            raise ContractViolation(
                f"fusion inputs disagree spatially: {[p.data.shape for p in parts]}"
            )
        cat = concat(parts, axis=1) if len(parts) > 1 else parts[0]
        h = relu(self.conv1(attend(cat, self.ca, self.sa)))
        h = self.conv2(h)
        res = cat if self.proj is None else self.proj(cat)
        return h + res


class SnakeFormer(Module):
    """Dual-branch crack segmentation network with attention-fused decoding."""

    def __init__(self, cfg: ModelConfig):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.enc = Module()
        self.enc.dsc = SnakeEncoder(cfg.image_channels, cfg.snake_widths, rng,
                                    conv_mode=cfg.conv_mode,
                                    channel_attention=cfg.channel_attention,
                                    ratio=cfg.wcam_ratio)
        self.enc.mit = MixTransformerEncoder(cfg.image_channels, cfg.transformer_widths,
                                             cfg.transformer_depths, cfg.transformer_heads,
                                             cfg.transformer_reductions, rng)
        self.dec = Module()
        for name, (cin, cout) in cfg.fusion_widths().items():
            setattr(self.dec, name, FusionStage(cin, cout, rng,
                                                channel_attention=cfg.channel_attention,
                                                ratio=cfg.wcam_ratio))
        self.head = Conv2d(cfg.decoder_widths[4], 2, 1, rng=rng)  # background and crack logits

    def forward(self, image: Tensor) -> Tensor:
        if image.data.ndim != 4:
            raise ContractViolation(f"image must be (N, C, H, W), got shape {image.data.shape}")
        if not np.isfinite(image.data).all():
            raise ContractViolation(f"image of shape {image.data.shape} has NaN or Inf values")
        h, w = image.data.shape[2:]
        # 32 for the 1/32 scale, and stage i's reduction must divide its 1/2^(i+2) grid
        side, why = 32, ""
        for i, (r, depth) in enumerate(zip(self.cfg.transformer_reductions,
                                           self.cfg.transformer_depths)):
            if depth and 32 % (r << (i + 2)):
                side = math.lcm(side, r << (i + 2))
                why += f", transformer_reductions[{i}] = {r} on the 1/{4 << i} grid"
        if h % side or w % side:
            raise ContractViolation(f"image sides must be multiples of {side}{why}; "
                                    f"got {image.data.shape}")
        dsc = self.enc.dsc(image)   # 1/1, 1/2, 1/4, 1/8, 1/16
        mit = self.enc.mit(image)   # 1/4, 1/8, 1/16, 1/32
        dec = self.dec
        d = dec.s32([mit[3]])
        d = dec.s16([dsc[4], mit[2], upsample_bilinear(d, 2)])
        d = dec.s8([dsc[3], mit[1], upsample_bilinear(d, 2)])
        d = dec.s4([dsc[2], mit[0], upsample_bilinear(d, 2)])
        d = dec.s2([dsc[1], upsample_bilinear(d, 2)])
        d = dec.s1([dsc[0], upsample_bilinear(d, 2)])
        return self.head(d)


def combined_loss(logits: Tensor, target) -> Tensor:
    """Mean pixel cross-entropy plus soft Dice on the crack-class probability."""
    t = np.asarray(target)
    n, c, h, w = logits.data.shape
    if c != 2:
        raise ContractViolation(f"expected 2 logit channels, got {logits.data.shape}")
    if t.shape != (n, h, w):
        raise ContractViolation(
            f"target shape {t.shape} does not match logits {logits.data.shape}"
        )
    if not np.isin(t, (0, 1)).all():
        raise ContractViolation("target mask must be binary")
    t = t.astype(logits.data.dtype).reshape(n, 1, h, w)
    tt = Tensor(t)
    lsm = log_softmax(logits, axis=1)
    l0 = narrow(lsm, 1, 0, 1)
    l1 = narrow(lsm, 1, 1, 1)
    ce = -tmean(mul(tt, l1) + mul(Tensor(1.0 - t), l0))
    p1 = exp(l1)
    eps = 1.0
    inter = tsum(mul(p1, tt))
    dice = 1.0 - (2.0 * inter + eps) / (tsum(p1) + float(t.sum()) + eps)
    return ce + dice


def predict_probabilities(model: SnakeFormer, images) -> np.ndarray:
    """Crack-class probability maps for a (N, C, H, W) image batch, given as
    any array-like that converts to float32."""
    try:
        batch = np.asarray(images, dtype=np.float32)
    except (TypeError, ValueError) as e:
        raise ContractViolation(
            f"images of type {type(images).__name__} are not a numeric array: {e}") from None
    with no_grad():
        logits = model(Tensor(batch))
        probs = softmax(logits, axis=1)
    return probs.data[:, 1]


def predict_masks(model: SnakeFormer, images: np.ndarray,
                  threshold: float = 0.5) -> np.ndarray:
    return (predict_probabilities(model, images) > threshold).astype(np.uint8)


class Adam:
    """Adam with decoupled weight decay applied before the moment update."""

    def __init__(self, named_params, lr: float = 1e-4, weight_decay: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.named = list(named_params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named]
        self.v = [np.zeros_like(p.data) for _, p in self.named]

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for i, (name, p) in enumerate(self.named):
            g = p.grad
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in {name}")
            if self.weight_decay:
                p.data = p.data - self.lr * self.weight_decay * p.data
            self.m[i] = self.b1 * self.m[i] + (1.0 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1.0 - self.b2) * g * g
            mhat = self.m[i] / bc1
            vhat = self.v[i] / bc2
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)


@dataclass
class EpochRecord:
    """``val`` is the ``mean`` dict of ``evaluate_model`` on the validation
    pairs, keyed by metric name; ``seconds`` includes validation."""
    epoch: int
    train_loss: float
    val: dict[str, float]
    seconds: float


@dataclass
class TrainResult:
    records: list[EpochRecord] = field(default_factory=list)
    best_state: dict | None = None
    best_iou: float = -1.0
    best_epoch: int = 0


def _as_batch(pairs, indices) -> tuple[np.ndarray, np.ndarray]:
    """Stacked images and masks of ``pairs[i]``, ``i`` in ``indices``; one shape each."""
    samples = [pairs[i] for i in indices]
    for k, role in enumerate(("image", "mask")):
        first = np.shape(samples[0][k])
        for i, s in zip(indices, samples):
            if np.shape(s[k]) != first:
                raise ContractViolation(
                    f"{role} of pair {i} has shape {np.shape(s[k])} but {role} of pair "
                    f"{indices[0]} has {first}; one batch holds one size")
    imgs = np.stack([s[0] for s in samples])[:, None, :, :].astype(np.float32)
    masks = np.stack([s[1] for s in samples]).astype(np.uint8)
    return imgs, masks


def evaluate_model(model: SnakeFormer, pairs, batch_size: int = 8) -> MetricsReport:
    """``aggregate`` of ``evaluate_pair`` on each pair's thresholded prediction
    and mask; ``per_image`` follows ``pairs``, ``mean``/``std`` are keyed by metric name."""
    check_int("batch_size", batch_size, 1)
    if not pairs:
        raise ContractViolation("evaluate_model: no (image, mask) pairs to score")
    per_image = []
    for lo in range(0, len(pairs), batch_size):
        imgs, masks = _as_batch(pairs, range(lo, min(lo + batch_size, len(pairs))))
        per_image += map(evaluate_pair, predict_masks(model, imgs), masks)
    return aggregate(per_image)


def train_loop(model: SnakeFormer, train_pairs, val_pairs, epochs: int,
               batch_size: int, lr: float = 1e-4, weight_decay: float = 1e-4,
               seed: int = 0, log=None) -> TrainResult:
    """Deterministic training: shuffling, batching, and updates all derive
    from ``seed``. Keeps the state dict of the best-validation-IoU epoch."""
    check_int("epochs", epochs, 1)
    check_int("batch_size", batch_size, 1)
    if not train_pairs:
        raise ContractViolation("training set is empty")
    if not val_pairs:
        raise ContractViolation("validation set is empty: the best epoch is chosen by "
                                "validation IoU")
    rng = np.random.default_rng(seed)
    opt = Adam(model.named_parameters(), lr=lr, weight_decay=weight_decay)
    result = TrainResult()
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_pairs))
        losses = []
        for bi, lo in enumerate(range(0, len(order), batch_size)):
            imgs, masks = _as_batch(train_pairs, order[lo:lo + batch_size])
            logits = model(Tensor(imgs))
            loss = combined_loss(logits, masks)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss at epoch {epoch} batch {bi}")
            model.zero_grad()
            loss.backward()
            opt.step()
            losses.append(value)
        val = evaluate_model(model, val_pairs, batch_size).mean
        rec = EpochRecord(epoch, float(np.mean(losses)), val, time.perf_counter() - t0)
        result.records.append(rec)
        if log is not None:
            log(rec)
        if val["iou"] > result.best_iou:
            result.best_iou = val["iou"]
            result.best_epoch = epoch
            result.best_state = model.state_dict()
    return result
