"""The traced run reconciles with op wall time, counts convs, and restores
every patched object."""

import sys

import pytest

import run
from serpentseg.attention import SpatialAttention
from serpentseg.module import Conv2d
from spans import LAYER_METRICS, Tracer, _named_modules
from workloads import WORKLOADS, load_references


def _serpentseg_objects() -> dict:
    """Every module attribute and class attribute in the serpentseg package."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "serpentseg":
            continue
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = obj
            if isinstance(obj, type):
                for cattr, cobj in vars(obj).items():
                    snap[(name, attr, cattr)] = cobj
    return snap


def _traced(name: str, n_ops: int = 1):
    wl = WORKLOADS[name]
    tally = run.Tally()
    st, _ = run.setup_and_check(wl, load_references()[name], tally)
    pool = wl.make_pool(0)[:n_ops]
    before = _serpentseg_objects()
    tracer = Tracer(getattr(st, "model", None))
    tracer.install()
    try:
        patched = {(o.__name__, n) for o, n, _ in tracer._undo if hasattr(o, "__name__")}
        wall = sum(run.attempt(wl, st, it, tally, lambda out, it=it: wl.valid(it, out))[0]
                   for it in pool)
    finally:
        tracer.uninstall()
    assert tally.failed == 0
    return st, tracer, wall, before, patched


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_op_reconciles_and_restores(name):
    st, tracer, wall, before, patched = _traced(name)
    _, own = tracer.totals()
    assert abs(sum(own.values()) - tracer.covered()) < 1e-9
    assert 0.9 <= tracer.covered() / wall <= 1.0
    after = _serpentseg_objects()
    assert patched and all(after[k] is v for k, v in before.items())
    run_info = {"op_s": wall, "overhead_frac": 0.0, "reconcile_frac": tracer.covered() / wall}
    metrics = tracer.layer_metrics(1, {}, run_info)
    assert list(metrics) == list(LAYER_METRICS)
    if name == "score-512":
        assert metrics["metrics.hausdorff.s"] > 0.5 * wall
        assert metrics["tensor.conv2d.calls"] == 0
    else:
        assert metrics["dsconv.SnakeConv2d.fwd_s"] > 0
        assert metrics["metrics.hausdorff.s"] == 0


def test_conv_calls_per_infer_op_match_model_tree():
    st, tracer, _, _, _ = _traced("infer-256", n_ops=2)
    convs = sum(isinstance(m, (Conv2d, SpatialAttention)) for _, m in _named_modules(st.model))
    assert convs > 0
    assert tracer.counts["conv2d.calls"] == 2 * convs


def test_train_step_charges_backward_to_ops_and_modules():
    _, tracer, wall, _, _ = _traced("train-128")
    incl, own = tracer.totals()
    closures = sum(v for k, v in incl.items() if k.endswith(".bwd"))
    assert abs(incl["backward"] - own["backward"] - closures) < 1e-6
    assert tracer.counts["backward.nodes"] > 100
    assert 0 < tracer.module_bwd["SnakeConv2d"] <= tracer.module_bwd["SnakeBlock"] \
        <= tracer.module_bwd["SnakeEncoder"] <= incl["backward"]
    assert incl["Adam.step"] > 0 and incl["combined_loss.fwd"] > 0


def test_tracing_overhead_compares_the_same_pool_items():
    untraced = [1.0, 10.0]
    traced = [1.1, 11.0, 1.1]
    assert run.tracing_overhead(untraced, traced, 2) == pytest.approx(0.1)
