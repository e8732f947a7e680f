"""Pixel-level segmentation metrics: IoU, precision, recall, F1, Hausdorff.

``evaluate_pair`` scores one mask pair and ``aggregate`` summarises many: the
one scorer behind training validation, ``evaluate_model`` and the benchmark.

Hausdorff is read off exact Euclidean feature transforms (Huttenlocher et al.,
TPAMI 1993; Maurer, Qi & Raghavan, TPAMI 2003): the transform of the ground-
truth background gives every pixel its nearest ground-truth pixel, and only
the predicted pixels outside the ground truth can be far from it, so the
transform's indices are read at those pixels alone; the other direction swaps
the masks, and the larger of the two maxima is the distance. Each direction is
O(H·W), not the product of the positive counts, and the two run at once, one
in a single-worker ``ThreadPoolExecutor`` opened and shut down inside the
call, because the transform releases the interpreter lock. The worker costs
well under 0.1 ms per call, which shows only on masks below 64².

Degenerate cases follow the usual conventions: two empty masks count as a
perfect match (all ratio metrics 1, Hausdorff 0); a single empty mask scores 0
on any metric whose denominator vanishes and the image diagonal for Hausdorff.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
from scipy.ndimage import distance_transform_edt

from .tensor import ContractViolation, _is_int, check_array


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


def check_binary(name: str, mask) -> np.ndarray:
    """``mask`` as an array (``check_array``), after checking every value is
    0 or 1; the message names it as ``name``. bool is binary by type and
    uint8 has no negatives, so its max decides."""
    m = check_array(name, mask)
    if m.dtype == np.uint8:
        binary = m.size == 0 or m.max() <= 1
    else:
        binary = m.dtype == bool or np.isin(m, (0, 1)).all()
    if not binary:
        raise ContractViolation(f"{name} must be binary")
    return m


def _check_masks(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """Both masks as uint8, after checking they are 2-d, binary and of one
    shape; a uint8 mask comes back as given."""
    pred, gt = check_array("pred mask", pred), check_array("gt mask", gt)
    for m, role in ((pred, "pred"), (gt, "gt")):
        if m.ndim != 2:
            raise ContractViolation(f"{role} mask must be 2-d, got shape {m.shape}")
        check_binary(f"{role} mask", m)
    if pred.shape != gt.shape:
        raise ContractViolation(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    return pred.astype(np.uint8, copy=False), gt.astype(np.uint8, copy=False)


def confusion_counts(pred, gt) -> tuple[int, int, int, int]:
    pred, gt = _check_masks(pred, gt)
    tp = int(np.count_nonzero(pred & gt))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(gt)) - tp
    tn = pred.size - tp - fp - fn
    return tp, fp, fn, tn


def pixel_metrics(counts) -> tuple[float, float, float, float]:
    """IoU, precision, recall and F1 of the counts (tp, fp, fn, tn), four ints >= 0."""
    if not (isinstance(counts, (tuple, list)) and len(counts) == 4
            and all(_is_int(c) and c >= 0 for c in counts)):
        raise ContractViolation(f"pixel_metrics: need 4 int confusion counts >= 0 "
                                f"(tp, fp, fn, tn), got {counts!r}")
    tp, fp, fn, _ = counts
    if tp + fp + fn == 0:
        return 1.0, 1.0, 1.0, 1.0
    iou = tp / (tp + fp + fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return iou, precision, recall, f1


def _directed_sq(a: np.ndarray, b: np.ndarray) -> int:
    """Squared directed Hausdorff distance from ``a`` to ``b``, two nonempty
    uint8 masks: the largest squared distance from a pixel of ``a`` to its
    nearest pixel of ``b``. Pixels of ``a`` inside ``b`` are at 0, so only
    those outside it are looked up, in the feature transform of ``b``'s
    background, which is not built when there are none."""
    rows, cols = np.nonzero(a > b)
    if rows.size == 0:
        return 0
    nearest = distance_transform_edt(b == 0, return_distances=False, return_indices=True)
    dr = nearest[0, rows, cols].astype(np.int64) - rows
    dc = nearest[1, rows, cols].astype(np.int64) - cols
    return int((dr * dr + dc * dc).max())


def hausdorff(pred, gt) -> float:
    """Symmetric Hausdorff distance between positive-pixel sets, in pixels.

    ``math.sqrt`` of the larger squared directed distance (``_directed_sq``);
    the direction gt → pred runs in a worker thread shut down here, while
    pred → gt runs in the caller, and an error in either is raised from this
    call. The square root is correctly rounded and monotone, so the value is
    the maximum of an exact float64 distance map. Two empty masks give 0, one
    empty mask the image diagonal."""
    pred, gt = _check_masks(pred, gt)
    if not pred.any() and not gt.any():
        return 0.0
    if not pred.any() or not gt.any():
        return math.hypot(*pred.shape)
    with ThreadPoolExecutor(1) as pool:
        to_pred = pool.submit(_directed_sq, gt, pred)
        to_gt = _directed_sq(pred, gt)
    return math.sqrt(max(to_gt, to_pred.result()))


def evaluate_pair(pred, gt) -> ImageMetrics:
    # one full check: the checks inside then see uint8 masks, one max pass each
    pred, gt = _check_masks(pred, gt)
    iou, precision, recall, f1 = pixel_metrics(confusion_counts(pred, gt))
    return ImageMetrics(iou, precision, recall, f1, hausdorff(pred, gt))


def aggregate(per_image: list[ImageMetrics]) -> MetricsReport:
    """Arithmetic mean and population standard deviation per metric."""
    if not per_image:
        raise ContractViolation("aggregate needs at least one per-image report")
    for i, m in enumerate(per_image):
        if not isinstance(m, ImageMetrics):
            raise ContractViolation(f"aggregate: entry {i} is {type(m).__name__}, not ImageMetrics")
    mean, std = {}, {}
    for f in fields(ImageMetrics):
        vals = np.array([getattr(m, f.name) for m in per_image], dtype=np.float64)
        mean[f.name] = float(vals.mean())
        std[f.name] = float(vals.std())
    return MetricsReport(per_image, mean, std)
