"""Benchmark workloads: seeded inputs, set-up, one op, and output checks.

Every workload's inputs come from ``make_pool(seed)``; the program sees only
those arrays. ``check_inputs()`` come from a fixed stream that no ``--seed``
reaches, and their outputs are compared with references stored in
``reference/`` (written by ``make_reference.py``). ``serpentseg`` is imported
inside ``setup`` only, so that import time is part of the set-up measurement.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy import ndimage

from cracks import SHARE_RANGE, crack_mask, crack_pair, perturb_mask

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CHECK_STREAM = 20241114  # seeds the reference check inputs, apart from any --seed
PROB_ATOL = 1e-4         # infer-256: probabilities against the stored map
LOSS_RTOL = 1e-5         # train-128: losses agree to float32 rounding
SCORE_RTOL = 1e-12       # score-512: equal up to the last bits of a float64
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


class Infer:
    """``predict_probabilities`` on one 256x256 crack image, default config."""

    name = "infer-256"
    side = 256
    items_per_op = 1
    uses_model = True
    pool_size = 4

    def _item(self, rng):
        img, mask, share = crack_pair(rng, self.side)
        return {"image": img[None, None], "share": share, "first": None}

    def make_pool(self, seed: int) -> list[dict]:
        return [self._item(_rng(seed, 1, i)) for i in range(self.pool_size)]

    def check_inputs(self) -> list[dict]:
        return [self._item(_rng(CHECK_STREAM, 1, 0))]

    def setup(self):
        from serpentseg import model
        return SimpleNamespace(model_mod=model, model=model.SnakeFormer(model.ModelConfig()))

    def op(self, st, item, mark=None):
        return st.model_mod.predict_probabilities(st.model, item["image"])

    def valid(self, item, out) -> bool:
        """Finite probabilities in [0, 1]; a repeated image gives the same map."""
        out = np.asarray(out)
        if out.shape != (1, self.side, self.side) or not np.isfinite(out).all():
            return False
        if out.min() < 0.0 or out.max() > 1.0:
            return False
        if item["first"] is None:
            item["first"] = out.copy()
            return True
        return bool(np.abs(out - item["first"]).max() <= PROB_ATOL)

    def reference_outputs(self, outs) -> dict:
        """The probability map is too large for check.json: store it beside it."""
        np.save(REFERENCE_DIR / "infer-256.npy", np.asarray(outs[0], dtype=np.float32)[0])
        return {}

    def matches_reference(self, i: int, out, ref: dict) -> bool:
        expected = np.load(REFERENCE_DIR / "infer-256.npy")
        out = np.asarray(out)
        return out.shape == (1,) + expected.shape and \
            bool(np.abs(out[0] - expected).max() <= PROB_ATOL)

    def shares(self, pool) -> list[float]:
        return [it["share"] for it in pool]


class Train:
    """One train step on 2 image/mask pairs at 128x128: forward,
    ``combined_loss``, ``zero_grad``, ``backward``, ``Adam.step`` (the body of
    ``train_loop``), default config and optimizer settings."""

    name = "train-128"
    side = 128
    batch = 2
    items_per_op = 2
    uses_model = True
    pool_size = 4
    n_check = 3  # the first steps from a fresh model, checked against stored losses

    def _item(self, rng):
        pairs = [crack_pair(rng, self.side) for _ in range(self.batch)]
        return {"images": np.stack([p[0] for p in pairs])[:, None],
                "masks": np.stack([p[1] for p in pairs]),
                "share": [p[2] for p in pairs]}

    def make_pool(self, seed: int) -> list[dict]:
        return [self._item(_rng(seed, 2, i)) for i in range(self.pool_size)]

    def check_inputs(self) -> list[dict]:
        return [self._item(_rng(CHECK_STREAM, 2, i)) for i in range(self.n_check)]

    def setup(self):
        from serpentseg import model, tensor
        net = model.SnakeFormer(model.ModelConfig())
        return SimpleNamespace(model_mod=model, tensor_mod=tensor, model=net,
                               opt=model.Adam(net.named_parameters()))

    def op(self, st, item, mark=None):
        logits = st.model(st.tensor_mod.Tensor(item["images"]))
        loss = st.model_mod.combined_loss(logits, item["masks"])
        value = loss.item()
        if mark is not None:
            mark()
        st.model.zero_grad()
        loss.backward()
        st.opt.step()
        return value

    def valid(self, item, out) -> bool:
        return isinstance(out, float) and math.isfinite(out)

    def reference_outputs(self, outs) -> dict:
        return {"losses": [float(v) for v in outs]}

    def matches_reference(self, i: int, out, ref: dict) -> bool:
        expected = ref["losses"][i]
        return self.valid(None, out) and abs(out - expected) <= LOSS_RTOL * abs(expected)

    def shares(self, pool) -> list[float]:
        return [s for it in pool for s in it["share"]]


def score_reference(pred: np.ndarray, gt: np.ndarray) -> tuple[float, float, float]:
    """IoU, F1 and Hausdorff computed apart from ``serpentseg.metrics``: the
    Hausdorff distance comes from Euclidean distance transforms. Both masks
    must be non-empty."""
    p, g = pred.astype(bool), gt.astype(bool)
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    to_g = ndimage.distance_transform_edt(~g)
    to_p = ndimage.distance_transform_edt(~p)
    return tp / (tp + fp + fn), f1, float(max(to_g[p].max(), to_p[g].max()))


def _scores_equal(a, b) -> bool:
    return all(math.isclose(x, y, rel_tol=SCORE_RTOL, abs_tol=SCORE_RTOL)
               for x, y in zip(a, b))


class Score:
    """``metrics.evaluate_pair`` on one 512x512 (pred, gt) mask pair.

    The pairwise Hausdorff cost grows with the square of the positive count,
    so the pool's positive shares are the same for every seed (the seed
    draws the cracks) and follow a golden-ratio sequence over SHARE_RANGE:
    any run of consecutive pairs spreads evenly over the range, so a run that
    stops after any op has seen the same mix of costs.
    """

    name = "score-512"
    side = 512
    items_per_op = 1
    uses_model = False
    pool_size = 12

    def _item(self, rng, share):
        gt = crack_mask(rng, self.side, share)
        pred = perturb_mask(rng, gt)
        return {"pred": pred, "gt": gt, "share": float(gt.mean()),
                "expected": score_reference(pred, gt)}

    def make_pool(self, seed: int) -> list[dict]:
        lo, hi = SHARE_RANGE
        return [self._item(_rng(seed, 3, i), lo + (hi - lo) * (GOLDEN * i % 1.0))
                for i in range(self.pool_size)]

    def check_inputs(self) -> list[dict]:
        return [self._item(_rng(CHECK_STREAM, 3, 0), 0.02)]

    def setup(self):
        from serpentseg import metrics
        return SimpleNamespace(metrics_mod=metrics)

    def op(self, st, item, mark=None):
        return st.metrics_mod.evaluate_pair(item["pred"], item["gt"])

    @staticmethod
    def _triple(out):
        return (out.iou, out.f1, out.hausdorff)

    def valid(self, item, out) -> bool:
        return _scores_equal(self._triple(out), item["expected"])

    def reference_outputs(self, outs) -> dict:
        return {"scores": [list(self._triple(o)) for o in outs]}

    def matches_reference(self, i: int, out, ref: dict) -> bool:
        return _scores_equal(self._triple(out), ref["scores"][i])

    def shares(self, pool) -> list[float]:
        return [it["share"] for it in pool]


WORKLOADS = {w.name: w for w in (Infer(), Train(), Score())}


def load_references() -> dict:
    with open(REFERENCE_DIR / "check.json") as fh:
        return json.load(fh)
