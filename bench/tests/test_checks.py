"""Output checks: reference outputs pass, perturbed outputs count as failed."""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
from cracks import crack_mask, perturb_mask
from serpentseg.metrics import evaluate_pair
from workloads import PROB_ATOL, REFERENCE_DIR, WORKLOADS, load_references, score_reference

BENCH = Path(__file__).resolve().parents[1]


class Replay:
    """A workload whose op returns a fixed output instead of calling the program."""

    def __init__(self, wl, out, exc=None):
        self.wl, self.out, self.exc = wl, out, exc

    def op(self, st, item, mark=None):
        if self.exc is not None:
            raise self.exc
        return self.out


def _count(wl, item, out, check, exc=None):
    tally = run.Tally()
    run.attempt(Replay(wl, out, exc), None, item, tally, check)
    return tally


def test_infer_reference_passes_and_perturbed_fails():
    wl = WORKLOADS["infer-256"]
    ref = np.load(REFERENCE_DIR / "infer-256.npy")[None]
    item = wl.check_inputs()[0]

    def check(out):
        return wl.valid(item, out) and wl.matches_reference(0, out, {})

    assert _count(wl, item, ref, check).failed == 0
    bumped = ref.copy()
    bumped[0, 100, 100] += 2 * PROB_ATOL
    nan = ref.copy()
    nan[0, 3, 4] = np.nan
    for bad in (bumped, nan, np.clip(ref * 1.5, 0, 1.5), ref[:, :128]):
        item["first"] = None
        tally = _count(wl, item, bad, check)
        assert (tally.attempted, tally.failed) == (1, 1)


def test_infer_repeat_must_match_first_output():
    wl = WORKLOADS["infer-256"]
    item = {"first": None}
    out = np.full((1, 256, 256), 0.5, np.float32)
    assert wl.valid(item, out)
    assert wl.valid(item, out + PROB_ATOL / 2)
    assert not wl.valid(item, out + 2 * PROB_ATOL)


def test_train_losses_must_match_reference():
    wl = WORKLOADS["train-128"]
    refs = load_references()["train-128"]
    loss = refs["losses"][1]
    assert wl.matches_reference(1, loss, refs)
    assert wl.matches_reference(1, loss * (1 + 1e-7), refs)
    for bad in (loss * (1 + 1e-4), float("nan"), float("inf")):
        assert _count(wl, None, bad,
                      lambda out: wl.matches_reference(1, out, refs)).failed == 1
    assert _count(wl, None, float("nan"), lambda out: wl.valid(None, out)).failed == 1


def test_score_reference_check_and_perturbation():
    wl = WORKLOADS["score-512"]
    refs = load_references()["score-512"]
    item = wl.check_inputs()[0]
    out = evaluate_pair(item["pred"], item["gt"])
    assert wl.valid(item, out) and wl.matches_reference(0, out, refs)
    for field, delta in (("iou", 1e-9), ("f1", 1e-6), ("hausdorff", 1.0)):
        bad = SimpleNamespace(**vars(out))
        setattr(bad, field, getattr(out, field) + delta)
        tally = _count(wl, item, bad, lambda o: wl.valid(item, o))
        assert (tally.attempted, tally.failed) == (1, 1)


def test_raising_op_counts_as_failed():
    wl = WORKLOADS["train-128"]
    tally = _count(wl, None, None, lambda out: True, exc=FloatingPointError("boom"))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "boom" in tally.errors[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_oracle_matches_program(seed):
    rng = np.random.default_rng(seed)
    gt = crack_mask(rng, 128, 0.03)
    pred = perturb_mask(rng, gt)
    m = evaluate_pair(pred, gt)
    assert score_reference(pred, gt) == (m.iou, m.f1, m.hausdorff)


def test_setup_and_check_passes_on_score_workload():
    wl = WORKLOADS["score-512"]
    tally = run.Tally()
    st, setup_s = run.setup_and_check(wl, load_references()["score-512"], tally)
    assert (tally.attempted, tally.failed) == (1, 0) and setup_s > 0
    pool = wl.make_pool(3)
    for item in pool[:2]:
        run.attempt(wl, st, item, tally, lambda out, it=item: wl.valid(it, out))
    assert (tally.attempted, tally.failed) == (3, 0)


def test_tail_latency_has_ten_samples_beyond():
    samples = [float(i) for i in range(18)]
    assert run.tail_latency(samples) == (7.0, 100 * 8 / 18, 10)
    assert run.tail_latency(list(range(100)))[:2] == (89, 90.0)
    assert run.tail_latency([3.0, 1.0]) == (3.0, 100.0, 0)


def test_environment_record():
    env = run.environment(5)
    assert set(env) == {"python", "numpy", "scipy", "blas", "blas_version", "blas_threads",
                        "nproc", "cpu", "commit", "seed"}
    assert env["seed"] == 5 and env["nproc"] >= 1


def test_no_program_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "infer-256",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_match_the_runner():
    from spans import LAYER_METRICS
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v[0] for k, v in LAYER_METRICS.items()}
