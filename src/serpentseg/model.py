"""Fusion decoder, full dual-branch model, training loss, and optimizer.

Decoding starts from the transformer's 1/32 map and climbs one scale per
stage; snake-branch features join at 1/16 .. 1/1 and transformer features at
1/32 .. 1/4, with the previous stage's output bilinearly upsampled into every
concatenation. A final 1x1 convolution produces two logit channels at input
resolution.
"""
from __future__ import annotations

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
from .metrics import MetricsReport, aggregate, check_binary, evaluate_pair
from .module import Conv2d, Module, Parameter
from .tensor import (
    ContractViolation,
    Tensor,
    check_array,
    check_entries,
    check_float,
    check_int,
    check_map,
    concat,
    exp,
    log_softmax,
    mul,
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
    """Widths, depths, modes and seed of ``SnakeFormer``; ``validate`` checks them.

    The input is (N, ``image_channels``, H, W), with H and W multiples of 32.
    ``snake_widths`` are the snake branch's channels at 1/1 .. 1/16, and
    ``transformer_widths``, ``_depths`` and ``_heads`` the channels, blocks and
    heads of the Mix-Transformer stages at 1/4 .. 1/32, whose key/value
    reduction ratios are ``encoders.MIT_REDUCTIONS``. ``decoder_widths`` are the
    fusion stages' outputs, ``wcam_ratio`` divides channel attention's hidden
    width, ``seed`` draws every parameter, and ``conv_mode`` and
    ``channel_attention`` are one of ``CONV_MODES`` and ``CHANNEL_ATTENTION_MODES``.
    """
    image_channels: int = 1
    snake_widths: tuple = (8, 16, 32, 64, 128)
    transformer_widths: tuple = (16, 32, 64, 128)
    transformer_depths: tuple = (1, 1, 1, 1)
    transformer_heads: tuple = (1, 2, 4, 8)
    decoder_widths: tuple = (64, 48, 32, 24, 16)  # scales 1/16, 1/8, 1/4, 1/2, 1/1
    wcam_ratio: int = 8
    seed: int = 0
    conv_mode: str = "enhanced"
    channel_attention: str = "wcam"

    def validate(self):
        for name, lowest in (("image_channels", 1), ("wcam_ratio", 1), ("seed", 0)):
            check_int(name, getattr(self, name), lowest)
        for name, length, lowest in (("snake_widths", 5, 1), ("decoder_widths", 5, 1),
                                     ("transformer_widths", 4, 1), ("transformer_heads", 4, 1),
                                     ("transformer_depths", 4, 0)):
            values = getattr(self, name)
            check_entries(name, values, length)
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
        self.conv1 = Conv2d(cin, cout, 3, rng=rng)
        self.conv2 = Conv2d(cout, cout, 3, rng=rng)
        self.proj = Conv2d(cin, cout, 1, rng=rng) if cin != cout else None

    def forward(self, parts: list[Tensor]) -> Tensor:
        cat = parts[0] if len(parts) == 1 else concat(parts, axis=1)
        h = relu(self.conv1(attend(cat, self.ca, self.sa)))
        h = self.conv2(h)
        res = cat if self.proj is None else self.proj(cat)
        return h + res


class SnakeFormer(Module):
    """Dual-branch crack segmentation network with attention-fused decoding."""

    def __init__(self, cfg: ModelConfig):
        if not isinstance(cfg, ModelConfig):
            raise ContractViolation(f"SnakeFormer: cfg must be a ModelConfig, got "
                                    f"{type(cfg).__name__}")
        cfg.validate()
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.enc = Module()
        self.enc.dsc = SnakeEncoder(cfg.image_channels, cfg.snake_widths, rng,
                                    conv_mode=cfg.conv_mode,
                                    channel_attention=cfg.channel_attention,
                                    ratio=cfg.wcam_ratio)
        self.enc.mit = MixTransformerEncoder(cfg.image_channels, cfg.transformer_widths,
                                             cfg.transformer_depths, cfg.transformer_heads, rng)
        self.dec = Module()
        for name, (cin, cout) in cfg.fusion_widths().items():
            setattr(self.dec, name, FusionStage(cin, cout, rng,
                                                channel_attention=cfg.channel_attention,
                                                ratio=cfg.wcam_ratio))
        self.head = Conv2d(cfg.decoder_widths[4], 2, 1, rng=rng)  # background and crack logits

    def forward(self, image: Tensor) -> Tensor:
        h, w = check_map("SnakeFormer", image, self.cfg.image_channels)[2:]
        if image.data.dtype != self.head.weight.data.dtype:  # ops would promote the whole model
            raise ContractViolation(f"image is {image.data.dtype}, the parameters are "
                                    f"{self.head.weight.data.dtype}")
        check_float("image", image.data, image.data.dtype)
        # 32 for the 1/32 scale; it fits every stage's reduction: MIT_REDUCTIONS[i] << (i + 2) == 32
        if h % 32 or w % 32:
            raise ContractViolation(f"image sides must be multiples of 32; got {image.data.shape}")
        dsc = self.enc.dsc(image)   # 1/1, 1/2, 1/4, 1/8, 1/16
        mit = self.enc.mit(image)   # 1/4, 1/8, 1/16, 1/32
        dec = self.dec
        d = dec.s32([mit[3]])
        d = dec.s16([dsc[4], mit[2], upsample_bilinear(d)])
        d = dec.s8([dsc[3], mit[1], upsample_bilinear(d)])
        d = dec.s4([dsc[2], mit[0], upsample_bilinear(d)])
        d = dec.s2([dsc[1], upsample_bilinear(d)])
        d = dec.s1([dsc[0], upsample_bilinear(d)])
        return self.head(d)


def combined_loss(logits: Tensor, target) -> Tensor:
    """Mean pixel cross-entropy plus soft Dice on the crack-class probability.

    ``target`` is an (N, H, W) binary mask (``metrics.check_binary``). ``onehot``
    stacks (1 - t, t) on the class axis: the cross-entropy is minus the pixel
    mean of the class sum of onehot * log_softmax, the crack probability the
    class sum of softmax * (0, 1); class sums come before pixel sums."""
    n, _, h, w = check_map("combined_loss", logits, 2)
    t = check_array("target mask", target)
    if t.shape != (n, h, w):
        raise ContractViolation(f"target shape {t.shape} does not match logits "
                                f"{logits.data.shape}")
    t = check_binary("target mask", t).astype(logits.data.dtype)
    onehot = np.stack((1.0 - t, t), axis=1)
    lsm = log_softmax(logits, axis=1)
    ce = -tmean(tsum(mul(onehot, lsm), axis=1))
    p1 = tsum(mul(exp(lsm), np.array((0, 1)).reshape(1, 2, 1, 1)), axis=1)
    eps = 1.0
    inter = tsum(mul(p1, t))
    dice = 1.0 - (2.0 * inter + eps) / (tsum(p1) + float(t.sum()) + eps)
    return ce + dice


def predict_probabilities(model: SnakeFormer, images) -> np.ndarray:
    """Crack-class probability maps for a (N, C, H, W) image batch, given as
    any bool, int or float array-like, run in float32, the dtype the model
    runs (``check_float``)."""
    batch = check_float("images", images, np.float32)
    with no_grad():
        logits = model(Tensor(batch))
        probs = softmax(logits, axis=1)
    return probs.data[:, 1]


def _check_real(name: str, value, ok, rule: str) -> None:
    """Raise ``ContractViolation`` naming ``name`` unless ``value`` is a finite
    int or float, numpy's included, bools not, for which ``ok`` holds."""
    if not (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and np.isfinite(value) and ok(value)):
        raise ContractViolation(f"{name} must be a finite real {rule}, got {value!r}")


def predict_masks(model: SnakeFormer, images: np.ndarray,
                  threshold: float = 0.5) -> np.ndarray:
    _check_real("threshold", threshold, lambda v: 0 <= v <= 1, "in [0, 1]")
    return (predict_probabilities(model, images) > threshold).astype(np.uint8)


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class Adam:
    """Adam with decoupled weight decay applied before the moment update."""

    def __init__(self, named_params, lr: float = 1e-4, weight_decay: float = 1e-4):
        _check_real("lr", lr, lambda v: v > 0, "> 0")
        _check_real("weight_decay", weight_decay, lambda v: v >= 0, ">= 0")
        if not np.iterable(named_params):
            raise ContractViolation(f"Adam: named_params must be an iterable of (str, "
                                    f"Parameter) pairs, got {type(named_params).__name__}")
        self.named = list(named_params)
        for i, entry in enumerate(self.named):
            pair = tuple(entry) if isinstance(entry, (tuple, list)) else (entry,)
            if not (len(pair) == 2 and isinstance(pair[0], str) and isinstance(pair[1], Parameter)):
                kinds = ", ".join(type(e).__name__ for e in pair)
                raise ContractViolation(f"Adam: entry {i} of named_params is ({kinds}), not a "
                                        f"(str, Parameter) pair")
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for _, p in self.named]
        self.v = [np.zeros_like(p.data) for _, p in self.named]

    def step(self):
        """Update every parameter that has a gradient; a non-finite gradient
        raises ``TrainingError``, and one of another dtype than its parameter
        ``ContractViolation``, before anything, ``t`` included, changes."""
        for name, p in self.named:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise TrainingError(f"non-finite gradient in {name}")
            if p.grad is not None and p.grad.dtype != p.data.dtype:
                raise ContractViolation(f"{name}: {p.grad.dtype} gradient, {p.data.dtype} data")
        self.t += 1
        bc1 = 1.0 - ADAM_B1 ** self.t
        bc2 = 1.0 - ADAM_B2 ** self.t
        for i, (_, p) in enumerate(self.named):
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                p.data = p.data - self.lr * self.weight_decay * p.data
            self.m[i] = ADAM_B1 * self.m[i] + (1.0 - ADAM_B1) * g
            self.v[i] = ADAM_B2 * self.v[i] + (1.0 - ADAM_B2) * g * g
            mhat = self.m[i] / bc1
            vhat = self.v[i] / bc2
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


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
    """Stacked images and masks of ``pairs[i]``, ``i`` in ``indices``, the
    array pairs ``_pair_list`` checked; one (H, W) shape each."""
    samples = [pairs[i] for i in indices]
    for k, role in enumerate(("image", "mask")):
        first = samples[0][k].shape
        for i, s in zip(indices, samples):
            if s[k].shape != first:
                raise ContractViolation(
                    f"{role} of pair {i} has shape {s[k].shape} but {role} of pair "
                    f"{indices[0]} has {first}; one batch holds one size")
    imgs = np.stack([s[0] for s in samples])[:, None, :, :]
    masks = np.stack([s[1] for s in samples]).astype(np.uint8)
    return imgs, masks


def _pair_list(name: str, pairs) -> list:
    """``pairs``, any iterable of (image, mask) pairs, taken once, as a list
    of array pairs, after checking every pair before any forward: an image
    and a mask (``check_array``), each (H, W), the mask binary and the image
    finite as float32 (``check_float``), which it comes back as."""
    try:
        pairs = list(pairs)
    except TypeError:
        raise ContractViolation(f"{name}: need an iterable of (image, mask) pairs, got "
                                f"{type(pairs).__name__}") from None
    checked = []
    for i, s in enumerate(pairs):
        if not isinstance(s, (tuple, list)) or len(s) != 2:
            size = f" of length {len(s)}" if isinstance(s, (tuple, list)) else ""
            raise ContractViolation(f"{name}: pair {i} is {type(s).__name__}{size}, not an "
                                    f"(image, mask) pair")
        image, mask = (check_array(f"{name}: {role} of pair {i}", s[k])
                       for k, role in enumerate(("image", "mask")))
        for a, role in ((image, "image"), (mask, "mask")):
            if a.ndim != 2:
                raise ContractViolation(
                    f"{name}: {role} of pair {i} has shape {a.shape}; need (H, W)")
        checked.append((check_float(f"{name}: image of pair {i}", image, np.float32),
                        check_binary(f"{name}: mask of pair {i}", mask)))
    return checked


def evaluate_model(model: SnakeFormer, pairs, batch_size: int = 8) -> MetricsReport:
    """``aggregate`` of ``evaluate_pair`` on each pair's thresholded prediction
    and mask, for any iterable of pairs; ``per_image`` follows ``pairs``,
    ``mean``/``std`` are keyed by metric name."""
    check_int("batch_size", batch_size, 1)
    pairs = _pair_list("evaluate_model", pairs)
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
    """Deterministic training on any iterables of (image, mask) pairs:
    shuffling, batching, and updates all derive from ``seed``. Keeps the
    state dict of the best-validation-IoU epoch."""
    check_int("epochs", epochs, 1)
    check_int("batch_size", batch_size, 1)
    check_int("seed", seed, 0)
    if log is not None and not callable(log):
        raise ContractViolation(f"log must be None or callable, got {type(log).__name__}")
    opt = Adam(model.named_parameters(), lr=lr, weight_decay=weight_decay)
    train_pairs = _pair_list("train_loop: train_pairs", train_pairs)
    val_pairs = _pair_list("train_loop: val_pairs", val_pairs)
    if not train_pairs:
        raise ContractViolation("training set is empty")
    if not val_pairs:
        raise ContractViolation("validation set is empty: the best epoch is chosen by "
                                "validation IoU")
    rng = np.random.default_rng(seed)
    result = TrainResult()
    for epoch in range(1, epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_pairs))
        losses = []
        for bi, lo in enumerate(range(0, len(order), batch_size)):
            imgs, masks = _as_batch(train_pairs, order[lo:lo + batch_size])
            # before the forward, the step's peak: it then holds no gradients of the last step
            model.zero_grad()
            logits = model(Tensor(imgs))
            loss = combined_loss(logits, masks)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss at epoch {epoch} batch {bi}")
            loss.backward()  # consumes the step's tape, which then holds no arrays
            del logits, loss  # the logits' own array goes before the update too
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
