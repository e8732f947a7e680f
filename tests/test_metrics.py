"""Metrics against brute-force set-based oracles."""

import math

import numpy as np
import pytest

from serpentseg.metrics import (
    ImageMetrics,
    aggregate,
    confusion_counts,
    evaluate_pair,
    hausdorff,
    pixel_metrics,
)
from serpentseg.tensor import ContractViolation


def set_oracle(pred, gt):
    """Confusion counts and ratio metrics computed over explicit pixel sets."""
    p = {tuple(q) for q in np.argwhere(pred)}
    g = {tuple(q) for q in np.argwhere(gt)}
    tp, fp, fn = len(p & g), len(p - g), len(g - p)
    if tp + fp + fn == 0:
        return (tp, fp, fn), (1.0, 1.0, 1.0, 1.0)
    iou = tp / (tp + fp + fn)
    prec = tp / (tp + fp) if p else 0.0
    rec = tp / (tp + fn) if g else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return (tp, fp, fn), (iou, prec, rec, f1)


def hausdorff_oracle(pred, gt):
    a = [tuple(q) for q in np.argwhere(pred)]
    b = [tuple(q) for q in np.argwhere(gt)]
    if not a and not b:
        return 0.0
    if not a or not b:
        return math.hypot(*pred.shape)
    d_ab = max(min(math.dist(x, y) for y in b) for x in a)
    d_ba = max(min(math.dist(x, y) for y in a) for x in b)
    return max(d_ab, d_ba)


class TestConfusionCounts:
    def test_identical_masks(self):
        rng = np.random.default_rng(0)
        m = (rng.random((8, 8)) < 0.3).astype(np.uint8)
        tp, fp, fn, tn = confusion_counts(m, m)
        assert tp == m.sum() and fp == 0 and fn == 0 and tn == m.size - m.sum()

    def test_all_ones_vs_all_zeros(self):
        tp, fp, fn, tn = confusion_counts(np.ones((4, 4), np.uint8), np.zeros((4, 4), np.uint8))
        assert (tp, fp, fn, tn) == (0, 16, 0, 0)

    def test_matches_pixel_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pred = (rng.random((16, 16)) < 0.4).astype(np.uint8)
            gt = (rng.random((16, 16)) < 0.4).astype(np.uint8)
            (tp, fp, fn), _ = set_oracle(pred, gt)
            got = confusion_counts(pred, gt)
            assert got[:3] == (tp, fp, fn)
            assert got[3] == 256 - tp - fp - fn

    def test_shape_mismatch_raises(self):
        with pytest.raises(ContractViolation):
            confusion_counts(np.zeros((3, 3), np.uint8), np.zeros((4, 4), np.uint8))

    def test_non_binary_rejected(self):
        with pytest.raises(ContractViolation):
            confusion_counts(np.full((2, 2), 2, np.uint8), np.zeros((2, 2), np.uint8))


class TestPixelMetrics:
    def test_perfect_prediction(self):
        assert pixel_metrics((5, 0, 0, 11)) == (1.0, 1.0, 1.0, 1.0)

    def test_no_true_positives(self):
        assert pixel_metrics((0, 3, 2, 11)) == (0.0, 0.0, 0.0, 0.0)

    def test_hand_evaluated_case(self):
        iou, p, r, f1 = pixel_metrics((1, 1, 2, 0))
        assert iou == pytest.approx(0.25)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(1 / 3)
        assert f1 == pytest.approx(0.4)

    def test_both_empty_is_perfect(self):
        assert pixel_metrics((0, 0, 0, 16)) == (1.0, 1.0, 1.0, 1.0)

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tp = int(rng.integers(1, 20))
            fp = int(rng.integers(0, 20))
            fn = int(rng.integers(0, 20))
            _, p, r, f1 = pixel_metrics((tp, fp, fn, 0))
            assert f1 == pytest.approx(2 * p * r / (p + r))


class TestHausdorff:
    def test_identical_masks_zero(self):
        m = np.zeros((6, 6), np.uint8)
        m[2:4, 2:4] = 1
        assert hausdorff(m, m) == 0.0

    def test_brute_force_point_case(self):
        pred = np.zeros((4, 4), np.uint8)
        gt = np.zeros((4, 4), np.uint8)
        pred[0, 0] = 1
        gt[0, 0] = 1
        gt[0, 3] = 1
        assert hausdorff(pred, gt) == pytest.approx(3.0)

    def test_empty_cases(self):
        z = np.zeros((3, 4), np.uint8)
        o = z.copy()
        o[1, 1] = 1
        assert hausdorff(z, z) == 0.0
        assert hausdorff(o, z) == pytest.approx(math.hypot(3, 4))
        assert hausdorff(z, o) == pytest.approx(math.hypot(3, 4))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(30):
            pred = (rng.random((12, 12)) < 0.15).astype(np.uint8)
            gt = (rng.random((12, 12)) < 0.15).astype(np.uint8)
            cases.append((pred, gt))
        # non-square masks and lone corner pixels expose a swapped axis
        for h, w in ((9, 17), (17, 9)):
            for _ in range(10):
                cases.append(tuple((rng.random((h, w)) < 0.15).astype(np.uint8)
                                   for _ in range(2)))
            corners = [(0, 0), (0, w - 1), (h - 1, w - 1), (h - 1, 0)]
            for i, corner in enumerate(corners):
                pred = np.zeros((h, w), np.uint8)
                pred[corner] = 1
                gt = np.zeros((h, w), np.uint8)
                gt[corners[(i + 1) % 4]] = 1
                cases.append((pred, gt))
                cases.append((pred, (rng.random((h, w)) < 0.15).astype(np.uint8)))
        for pred, gt in cases:
            assert hausdorff(pred, gt) == pytest.approx(hausdorff_oracle(pred, gt), abs=1e-9)

    def test_symmetry_identity_triangle(self):
        rng = np.random.default_rng(4)
        masks = [(rng.random((10, 10)) < 0.2).astype(np.uint8) for _ in range(9)]
        masks = [m for m in masks if m.any()]
        for a in masks[:3]:
            assert hausdorff(a, a) == 0.0
        for a, b, c in zip(masks[0:3], masks[3:6], masks[6:9]):
            assert hausdorff(a, b) == pytest.approx(hausdorff(b, a))
            assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-9


class TestAggregate:
    def test_single_image(self):
        rep = aggregate([ImageMetrics(0.5, 0.6, 0.7, 0.8, 2.0)])
        assert rep.mean["iou"] == 0.5
        assert rep.std["iou"] == 0.0

    def test_two_point_formula(self):
        rep = aggregate([ImageMetrics(0.2, 0, 0, 0, 0), ImageMetrics(0.6, 0, 0, 0, 0)])
        assert rep.mean["iou"] == pytest.approx(0.4)
        assert rep.std["iou"] == pytest.approx(0.2)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(5)
        reports = [ImageMetrics(*rng.random(5)) for _ in range(50)]
        rep = aggregate(reports)
        ious = np.array([r.iou for r in reports])
        assert rep.mean["iou"] == pytest.approx(ious.mean(), abs=1e-9)
        assert rep.std["iou"] == pytest.approx(ious.std(), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            aggregate([])


def test_evaluate_pair_combines_everything():
    pred = np.zeros((5, 5), np.uint8)
    gt = np.zeros((5, 5), np.uint8)
    pred[1, 1] = 1
    gt[1, 1] = 1
    gt[1, 3] = 1
    m = evaluate_pair(pred, gt)
    assert m.iou == pytest.approx(0.5)
    assert m.hausdorff == pytest.approx(2.0)
