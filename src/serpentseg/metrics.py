"""Pixel-level segmentation metrics: IoU, precision, recall, F1, Hausdorff.

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
from dataclasses import dataclass

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


METRIC_NAMES = ("iou", "precision", "recall", "f1", "hausdorff")


@dataclass
class MetricsReport:
    per_image: list[ImageMetrics]
    mean: dict[str, float]
    std: dict[str, float]


def _check_mask(m: np.ndarray, role: str) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise ContractViolation(f"{role} mask must be 2-d, got shape {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ContractViolation(f"{role} mask must be binary")
    return m.astype(np.uint8)


def confusion_counts(pred, gt) -> tuple[int, int, int, int]:
    pred = _check_mask(pred, "pred")
    gt = _check_mask(gt, "gt")
    if pred.shape != gt.shape:
        raise ContractViolation(f"mask shapes differ: {pred.shape} vs {gt.shape}")
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
    pred = _check_mask(pred, "pred")
    gt = _check_mask(gt, "gt")
    if pred.shape != gt.shape:
        raise ContractViolation(f"mask shapes differ: {pred.shape} vs {gt.shape}")
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
    for name in METRIC_NAMES:
        vals = np.array([getattr(m, name) for m in per_image], dtype=np.float64)
        mean[name] = float(vals.mean())
        std[name] = float(vals.std())
    return MetricsReport(per_image, mean, std)


def report_tsv(report: MetricsReport) -> str:
    lines = ["index\t" + "\t".join(METRIC_NAMES)]
    for i, m in enumerate(report.per_image):
        lines.append(f"{i}\t" + "\t".join(f"{getattr(m, n):.6f}" for n in METRIC_NAMES))
    return "\n".join(lines) + "\n"


def report_keyvalues(report: MetricsReport) -> str:
    lines = []
    for name in METRIC_NAMES:
        lines.append(f"{name}_mean = {report.mean[name]:.6f}")
        lines.append(f"{name}_std = {report.std[name]:.6f}")
    return "\n".join(lines) + "\n"
