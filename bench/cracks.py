"""Seeded procedural crack images and masks for the benchmark.

A crack is a random-walk polyline 1-3 px wide that may branch. Walks are
added until the mask reaches a requested positive-pixel share, so the share
of every generated mask is known to within one stamp of the target. The
image is a low-contrast textured background in which crack pixels are only
slightly darker than the texture around them.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

SHARE_RANGE = (0.01, 0.03)  # positive-pixel share of every generated mask


def _check_side(side: int) -> None:
    if side <= 0 or side % 32:
        raise ValueError(f"side must be a positive multiple of 32, got {side}")


def crack_mask(rng: np.random.Generator, side: int, share: float) -> np.ndarray:
    """Binary (side, side) uint8 mask whose positive share is ``share`` (+ one stamp)."""
    _check_side(side)
    mask = np.zeros((side, side), dtype=bool)
    target = max(1, int(round(share * side * side)))
    count = 0
    branches: list[tuple[float, float, float, int]] = []
    while count < target:
        if branches:
            y, x, theta, width = branches.pop()
        else:
            y, x = rng.uniform(0.0, side, size=2)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            width = int(rng.integers(1, 4))
        for _ in range(int(rng.integers(20, 90))):
            theta += rng.normal(0.0, 0.25)
            step = rng.uniform(1.5, 3.0)
            ny, nx = y + step * math.sin(theta), x + step * math.cos(theta)
            if not (0.0 <= ny < side and 0.0 <= nx < side):
                break
            # stamp a width x width square every half pixel along the segment
            for t in np.linspace(0.0, 1.0, int(step * 2) + 1)[1:]:
                r0 = min(max(int(y + t * (ny - y)) - (width - 1) // 2, 0), side - width)
                c0 = min(max(int(x + t * (nx - x)) - (width - 1) // 2, 0), side - width)
                patch = mask[r0:r0 + width, c0:c0 + width]
                count += width * width - int(np.count_nonzero(patch))
                patch[...] = True
            y, x = ny, nx
            if count >= target:
                break
            if rng.random() < 0.04:
                turn = rng.uniform(0.4, 1.1) * (1 if rng.random() < 0.5 else -1)
                branches.append((y, x, theta + turn, max(1, width - 1)))
    return mask.astype(np.uint8)


def crack_image(rng: np.random.Generator, mask: np.ndarray) -> np.ndarray:
    """Float32 image in [0, 1]: textured background, darker crack pixels."""
    side = mask.shape[0]
    texture = ndimage.gaussian_filter(rng.standard_normal((side, side)),
                                      sigma=rng.uniform(2.0, 6.0))
    texture /= texture.std() + 1e-12
    grain = rng.standard_normal((side, side))
    ramp = np.linspace(-1.0, 1.0, side)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    light = math.cos(angle) * ramp[None, :] + math.sin(angle) * ramp[:, None]
    crack = ndimage.gaussian_filter(mask.astype(np.float64), sigma=0.7)
    crack /= crack.max() + 1e-12
    img = (rng.uniform(0.45, 0.65) + 0.06 * texture + 0.03 * grain + 0.05 * light
           - rng.uniform(0.10, 0.20) * crack)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def crack_pair(rng: np.random.Generator, side: int,
               share: float | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """(image, mask, positive share); ``share`` is drawn from SHARE_RANGE if omitted."""
    if share is None:
        share = rng.uniform(*SHARE_RANGE)
    mask = crack_mask(rng, side, share)
    return crack_image(rng, mask), mask, float(mask.mean())


def perturb_mask(rng: np.random.Generator, gt: np.ndarray) -> np.ndarray:
    """A near-correct prediction of ``gt``: one dropped crack segment, a 1-px
    shift and a few sparse false positives."""
    pred = gt.copy()
    side = gt.shape[0]
    ys, xs = np.nonzero(gt)
    i = int(rng.integers(len(ys)))
    half = int(rng.integers(6, 13))
    pred[max(ys[i] - half, 0):ys[i] + half, max(xs[i] - half, 0):xs[i] + half] = 0
    axis = int(rng.integers(2))
    pred = np.roll(pred, 1 if rng.random() < 0.5 else -1, axis=axis)
    edge = [slice(None), slice(None)]
    edge[axis] = [0, side - 1]
    pred[tuple(edge)] = 0
    n_fp = int(rng.integers(5, 30))
    pred[rng.integers(0, side, n_fp), rng.integers(0, side, n_fp)] = 1
    return pred
