"""The procedural crack generator is seeded and keeps its positive share."""

import numpy as np
import pytest

from cracks import SHARE_RANGE, crack_mask, crack_pair, perturb_mask
from workloads import WORKLOADS


def _rng(*key):
    return np.random.default_rng(list(key))


@pytest.mark.parametrize("side", [128, 256, 512])
def test_same_seed_gives_identical_bytes(side):
    a = crack_pair(_rng(7, side), side)
    b = crack_pair(_rng(7, side), side)
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()
    assert a[2] == b[2]
    assert crack_pair(_rng(8, side), side)[1].tobytes() != a[1].tobytes()


@pytest.mark.parametrize("side", [128, 256, 512])
def test_positive_share_in_stated_range(side):
    lo, hi = SHARE_RANGE
    stamp = 9 / side ** 2  # the last 3x3 stamp may overshoot the target
    for i in range(6):
        img, mask, share = crack_pair(_rng(1, side, i), side)
        assert mask.dtype == np.uint8 and set(np.unique(mask)) == {0, 1}
        assert share == mask.mean()
        assert lo <= share <= hi + stamp
        assert img.dtype == np.float32 and img.shape == (side, side)
        assert 0.0 <= img.min() and img.max() <= 1.0


def test_cracks_are_darker_but_low_contrast():
    img, mask, _ = crack_pair(_rng(3), 256)
    gap = img[mask == 0].mean() - img[mask == 1].mean()
    assert 0.03 < gap < 3 * img[mask == 0].std()


def test_side_must_be_multiple_of_32():
    with pytest.raises(ValueError):
        crack_mask(_rng(0), 100, 0.02)


def test_perturbed_prediction_is_near_gt():
    gt = crack_mask(_rng(4), 512, 0.02)
    pred = perturb_mask(_rng(5), gt)
    assert pred.tobytes() == perturb_mask(_rng(5), gt).tobytes()
    assert not np.array_equal(pred, gt)
    assert 0.5 < pred.sum() / gt.sum() < 1.5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_pools_record_shares_and_repeat(name):
    wl = WORKLOADS[name]
    shares = wl.shares(wl.make_pool(11))
    assert shares == wl.shares(wl.make_pool(11))
    assert all(SHARE_RANGE[0] <= s <= SHARE_RANGE[1] + 9 / wl.side ** 2 for s in shares)
