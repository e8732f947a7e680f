"""Pixel-level segmentation metrics: IoU, precision, recall, F1, Hausdorff.

``evaluate_pair`` scores one mask pair and ``aggregate`` summarises many: the
one scorer behind training validation, ``evaluate_model`` and the benchmark.

Hausdorff is read off exact Euclidean distance transforms (Huttenlocher et
al., TPAMI 1993): the transform of the ground-truth background, sampled at the
predicted pixels, gives each one's distance to the nearest ground-truth pixel,
and the other way round; the larger of the two maxima is the distance. The
cost is linear in the image size, not in the product of the positive counts.

Degenerate cases follow the usual conventions: two empty masks count as a
perfect match (all ratio metrics 1, Hausdorff 0); a single empty mask scores 0
on any metric whose denominator vanishes and the image diagonal for Hausdorff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.ndimage import distance_transform_edt

from .tensor import ContractViolation


@dataclass
class ImageMetrics:
    iou: float
    precision: float
    recall: float
    f1: float
    hausdorff: float


@dataclass
class MetricsReport:
    per_image: list[ImageMetrics]
    mean: dict[str, float]
    std: dict[str, float]


def _check_masks(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    pred, gt = np.asarray(pred), np.asarray(gt)
    for m, role in ((pred, "pred"), (gt, "gt")):
        if m.ndim != 2:
            raise ContractViolation(f"{role} mask must be 2-d, got shape {m.shape}")
        if not np.isin(m, (0, 1)).all():
            raise ContractViolation(f"{role} mask must be binary")
    if pred.shape != gt.shape:
        raise ContractViolation(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    return pred.astype(np.uint8), gt.astype(np.uint8)


def confusion_counts(pred, gt) -> tuple[int, int, int, int]:
    pred, gt = _check_masks(pred, gt)
    tp = int(np.count_nonzero(pred & gt))
    fp = int(np.count_nonzero(pred & ~gt & 1))
    fn = int(np.count_nonzero(~pred & 1 & gt))
    tn = pred.size - tp - fp - fn
    return tp, fp, fn, tn


def pixel_metrics(counts) -> tuple[float, float, float, float]:
    tp, fp, fn, _ = counts
    if min(tp, fp, fn) < 0:
        raise ContractViolation(f"negative confusion counts {counts}")
    if tp + fp + fn == 0:
        return 1.0, 1.0, 1.0, 1.0
    iou = tp / (tp + fp + fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return iou, precision, recall, f1


def hausdorff(pred, gt) -> float:
    """Symmetric Hausdorff distance between positive-pixel sets, in pixels."""
    pred, gt = _check_masks(pred, gt)
    if not pred.any() and not gt.any():
        return 0.0
    if not pred.any() or not gt.any():
        return math.hypot(*pred.shape)
    to_gt = distance_transform_edt(gt == 0)
    to_pred = distance_transform_edt(pred == 0)
    return float(max(to_gt[pred == 1].max(), to_pred[gt == 1].max()))


def evaluate_pair(pred, gt) -> ImageMetrics:
    iou, precision, recall, f1 = pixel_metrics(confusion_counts(pred, gt))
    return ImageMetrics(iou, precision, recall, f1, hausdorff(pred, gt))


def aggregate(per_image: list[ImageMetrics]) -> MetricsReport:
    """Arithmetic mean and population standard deviation per metric."""
    if not per_image:
        raise ContractViolation("aggregate needs at least one per-image report")
    mean, std = {}, {}
    for f in fields(ImageMetrics):
        vals = np.array([getattr(m, f.name) for m in per_image], dtype=np.float64)
        mean[f.name] = float(vals.mean())
        std[f.name] = float(vals.std())
    return MetricsReport(per_image, mean, std)
