"""Decoder fusion, full-model contracts, loss oracle, Adam, and the
training loop."""

import re
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from gradcheck import FunctionModule, grad_check, set_dtype
from oracles import traced, transpose_parameters

from serpentseg.encoders import CONV_MODES, MIT_REDUCTIONS
from serpentseg.metrics import confusion_counts, pixel_metrics
from serpentseg.model import (
    Adam,
    FusionStage,
    ModelConfig,
    SnakeFormer,
    TrainingError,
    combined_loss,
    evaluate_model,
    predict_masks,
    predict_probabilities,
    tiny_config,
    train_loop,
)
from serpentseg.module import Parameter, load_checkpoint, save_checkpoint
from serpentseg.tensor import ContractViolation, Tensor, no_grad


def micro_config(seed=0, **kw):
    base = dict(
        snake_widths=(2, 2, 4, 4, 4),
        transformer_widths=(4, 4, 8, 8),
        transformer_depths=(1, 1, 1, 1),
        transformer_heads=(1, 1, 2, 2),
        decoder_widths=(4, 4, 4, 4, 4),
        wcam_ratio=2,
        seed=seed,
    )
    base.update(kw)
    return ModelConfig(**base).validate()


def loss_oracle(logits, target):
    """Direct scalar formula: softmax CE plus soft Dice, all in float64."""
    z = logits.astype(np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    t = target.astype(np.float64)
    ce = -(t * np.log(p[:, 1]) + (1 - t) * np.log(p[:, 0])).mean()
    p1 = p[:, 1]
    dice = 1.0 - (2.0 * (p1 * t).sum() + 1.0) / (p1.sum() + t.sum() + 1.0)
    return ce + dice


class TestFusionStage:
    def test_deepest_stage_single_input(self):
        rng = np.random.default_rng(0)
        stage = FusionStage(8, 8, rng, ratio=2)
        out = stage([Tensor(rng.standard_normal((1, 8, 2, 2)).astype(np.float32))])
        assert out.data.shape == (1, 8, 2, 2)

    def test_concatenation_arithmetic(self):
        rng = np.random.default_rng(1)
        stage = FusionStage(224, 16, rng, ratio=8)
        parts = [Tensor(rng.standard_normal((1, c, 4, 4)).astype(np.float32))
                 for c in (32, 64, 128)]
        out = stage(parts)
        assert out.data.shape == (1, 16, 4, 4)

    def test_spatial_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        stage = FusionStage(8, 4, rng, ratio=2)
        with pytest.raises(ContractViolation,
                           match=r"concat: shapes \[\(1, 4, 4, 4\), \(1, 4, 2, 2\)\]"):
            stage([Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32)),
                   Tensor(np.zeros((1, 4, 2, 2), dtype=np.float32))])
        with pytest.raises(ContractViolation, match=r"concat: shapes \[\]"):
            stage([])

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(3)
        stage = FusionStage(6, 4, rng, ratio=2)
        parts = [Tensor(rng.standard_normal((1, 2, 6, 6)).astype(np.float32)),
                 Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))]
        out = stage(parts).data
        from serpentseg.attention import attend
        from serpentseg.tensor import concat, no_grad, relu
        with no_grad():
            cat = concat(parts, axis=1)
            att = attend(cat, stage.ca, stage.sa)
            want = (stage.conv2(relu(stage.conv1(att))) + stage.proj(cat)).data
        np.testing.assert_allclose(out, want, atol=1e-5)

    def test_grad_check(self):
        rng = np.random.default_rng(4)
        stage = FusionStage(4, 4, rng, ratio=2)

        class Wrap(FunctionModule):
            pass

        wrapped = Wrap(lambda a, b: stage([a, b]))
        wrapped.stage = stage
        report = grad_check(wrapped,
                            [rng.standard_normal((1, 2, 4, 4)),
                             rng.standard_normal((1, 2, 4, 4))], tolerance=1e-3)
        assert report.passed, str(report)


class TestSnakeFormerForward:
    def test_logit_shape_contract(self):
        model = SnakeFormer(micro_config(seed=5))
        x = np.random.default_rng(6).random((1, 1, 64, 64)).astype(np.float32)
        out = model(Tensor(x))
        assert out.data.shape == (1, 2, 64, 64)

    def test_indivisible_input_rejected(self):
        model = SnakeFormer(micro_config(seed=7))
        with pytest.raises(ContractViolation):
            model(Tensor(np.zeros((1, 1, 48, 64), dtype=np.float32)))

    def test_side_must_be_a_multiple_of_every_attention_grid(self, monkeypatch):
        # the 1/32 scale and every stage's reduced grid need sides that are
        # multiples of 32; the check fires before either encoder runs
        model = SnakeFormer(tiny_config())
        for enc in (model.enc.dsc, model.enc.mit):
            monkeypatch.setattr(enc, "forward", lambda x: pytest.fail("encoder ran"))
        with pytest.raises(ContractViolation, match=r"multiples of 32; got \(1, 1, 48, 64\)"):
            model(Tensor(np.zeros((1, 1, 48, 64), dtype=np.float32)))
        monkeypatch.undo()
        assert model(Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32))).data.shape[2:] == (64, 64)

    @pytest.mark.parametrize("reductions,depths,side", [
        ((8, 4, 2, 1), (1, 1, 1, 1), 32),
    ])
    def test_rejection_names_the_side_multiple(self, reductions, depths, side):
        # reduction r_i on the 1/2^(i+2) grid: each r_i << (i + 2) is the side
        assert MIT_REDUCTIONS == reductions
        assert {r << (i + 2) for i, r in enumerate(reductions)} == {side}
        model = SnakeFormer(tiny_config(transformer_depths=depths))
        with pytest.raises(ContractViolation, match=f"multiples of {side}[,;]"):
            model(Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))

    def test_three_dim_image_rejected(self):
        model = SnakeFormer(micro_config(seed=7))
        with pytest.raises(ContractViolation, match=r"\(1, 32, 32\)"):
            model(Tensor(np.zeros((1, 32, 32), dtype=np.float32)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, bad):
        model = SnakeFormer(micro_config(seed=7))
        x = np.zeros((1, 1, 32, 32), dtype=np.float32)
        x[0, 0, 5, 9] = bad
        with pytest.raises(ContractViolation, match=r"\(1, 1, 32, 32\).*NaN or Inf"):
            predict_masks(model, x)

    @pytest.mark.parametrize("conv_mode", CONV_MODES)
    @pytest.mark.parametrize("dtype", [np.int64, np.float16])
    def test_image_that_is_not_float32_or_float64_rejected(self, monkeypatch, conv_mode, dtype):
        # vanilla returned float64 logits for an int64 image, while dsconv
        # and enhanced raised naming grid_sample_points
        model = SnakeFormer(micro_config(seed=7, conv_mode=conv_mode))
        for enc in (model.enc.dsc, model.enc.mit):
            monkeypatch.setattr(enc, "forward", lambda x: pytest.fail("encoder ran"))
        with pytest.raises(ContractViolation,
                           match=f"^image must be float32 or float64, got {np.dtype(dtype)}$"):
            model(Tensor(np.zeros((1, 1, 32, 32), dtype=dtype)))

    def test_different_seeds_differ(self):
        x = Tensor(np.random.default_rng(8).random((1, 1, 32, 32)).astype(np.float32))
        a = SnakeFormer(micro_config(seed=1))(x).data
        b = SnakeFormer(micro_config(seed=2))(x).data
        assert not np.allclose(a, b)

    def test_same_seed_bit_identical(self):
        x = Tensor(np.random.default_rng(9).random((1, 1, 32, 32)).astype(np.float32))
        a = SnakeFormer(micro_config(seed=3))(x).data
        b = SnakeFormer(micro_config(seed=3))(x).data
        assert np.array_equal(a, b)

    def test_gradients_reach_nearly_all_parameters(self):
        # 64x64 keeps every attention stage at >= 4 keys; at smaller sizes the
        # deepest softmax collapses to a single key whose q/k gradient is
        # structurally zero
        model = SnakeFormer(micro_config(seed=10))
        x = np.random.default_rng(11).random((1, 1, 64, 64)).astype(np.float32)
        y = (np.random.default_rng(12).random((1, 64, 64)) < 0.2).astype(np.uint8)
        loss = combined_loss(model(Tensor(x)), y)
        model.zero_grad()
        loss.backward()
        named = list(model.named_parameters())
        dead = [n for n, p in named if p.grad is None or not np.any(p.grad)]
        assert len(named) - len(dead) >= 0.99 * len(named), f"dead paths: {dead}"

    def test_checkpoint_round_trip_forward_identical(self, tmp_path):
        model = SnakeFormer(micro_config(seed=13))
        x = Tensor(np.random.default_rng(14).random((1, 1, 32, 32)).astype(np.float32))
        before = model(x).data.copy()
        path = tmp_path / "model.spt"
        save_checkpoint(path, model.state_dict())
        other = SnakeFormer(micro_config(seed=99))
        other.load_state_dict(load_checkpoint(path))
        np.testing.assert_array_equal(other(x).data, before)


def _keys_and_shapes(cfg, pinned):
    """(got, want): the model's parameter names, order and shapes, and those
    pinned in ``pinned``, one "name AxBxC" line each."""
    want = [line.split() for line in (Path(__file__).parent / pinned).read_text().splitlines()]
    got = [[name, "x".join(map(str, arr.shape))]
           for name, arr in SnakeFormer(cfg).state_dict().items()]
    return got, want


def test_default_checkpoint_keys_and_shapes_are_pinned():
    # checkpoint compatibility of the default model
    got, want = _keys_and_shapes(ModelConfig(), "model_keys.txt")
    assert len(got) == 362
    assert got == want


def test_frozen_chain_cam_checkpoint_keys_and_shapes_are_pinned():
    # frozen chains carry only chain.* keys; plain channel attention is ca.w0/ca.w1
    got, want = _keys_and_shapes(tiny_config(conv_mode="dsconv", channel_attention="cam"),
                                 "model_keys_dsconv_cam.txt")
    assert len(got) == 238
    assert got == want


@pytest.mark.parametrize("channel_attention", ["none", "cam", "wcam"])
@pytest.mark.parametrize("conv_mode", ["vanilla", "dsconv", "enhanced"])
def test_model_commutes_with_a_transpose_of_its_input(conv_mode, channel_attention):
    # the two image axes are treated alike: under the parameter map T, the
    # model of a transposed (here non-square) input is the transposed model
    model = set_dtype(SnakeFormer(tiny_config(seed=3, conv_mode=conv_mode,
                                              channel_attention=channel_attention)), np.float64)
    rng = np.random.default_rng(62)
    state = {k: v + 0.05 * rng.standard_normal(v.shape) for k, v in model.state_dict().items()}
    x = rng.standard_normal((2, 1, 32, 64))
    with no_grad():
        model.load_state_dict(state)
        want = model(Tensor(x)).data.transpose(0, 1, 3, 2)
        model.load_state_dict(transpose_parameters(state, model.cfg))
        got = model(Tensor(x.transpose(0, 1, 3, 2).copy())).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


@pytest.mark.parametrize("channel_attention", ["none", "cam", "wcam"])
@pytest.mark.parametrize("conv_mode", ["vanilla", "dsconv", "enhanced"])
def test_backward_and_adam_commute_with_a_transpose_of_the_input(conv_mode, channel_attention):
    # T permutes parameters, so it maps the gradients of the loss at (x, mask)
    # to those at (xT, maskT), and Adam, elementwise, commutes with it. The
    # gradient tolerance is relative to the largest gradient: the attn.k.bias
    # gradients are zero up to 1e-20 noise, since softmax ignores a shift.
    # Measured: at most 2.2e-16 of the largest gradient, and 1.6e-15 after the step.
    model = set_dtype(SnakeFormer(tiny_config(seed=3, conv_mode=conv_mode,
                                              channel_attention=channel_attention)), np.float64)
    rng = np.random.default_rng(62)
    state = {k: v + 0.05 * rng.standard_normal(v.shape) for k, v in model.state_dict().items()}
    x = rng.standard_normal((2, 1, 32, 64))
    mask = (rng.random((2, 32, 64)) < 0.2).astype(np.uint8)

    def step(state, x, mask):
        model.load_state_dict(state)
        model.zero_grad()
        combined_loss(model(Tensor(x)), mask).backward()
        grads = {name: p.grad for name, p in model.named_parameters()}
        Adam(model.named_parameters()).step()
        return grads, model.state_dict()

    grads, stepped = step(state, x, mask)
    want_grads = transpose_parameters(grads, model.cfg)
    want_stepped = transpose_parameters(stepped, model.cfg)
    got_grads, got_stepped = step(transpose_parameters(state, model.cfg),
                                  x.transpose(0, 1, 3, 2).copy(), mask.transpose(0, 2, 1).copy())
    scale = max(np.abs(g).max() for g in grads.values())
    for name in state:
        np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=0,
                                   atol=1e-12 * scale, err_msg=name)
        np.testing.assert_allclose(got_stepped[name], want_stepped[name], rtol=0, atol=1e-11,
                                   err_msg=name)


def test_whole_model_directional_derivative():
    # one float64 central difference at eps = 1e-7 along a random direction
    # over every parameter and the image, against the backward's gradients.
    # The state is perturbed as in the oracles above: fresh pyramid kernels
    # are zero, so the horizontal chains sample at integer rows, where the
    # bilinear read has a kink and the two sides disagree (relative error 8e-3).
    # Measured over 40 seeds: median 2.0e-9, 39 below 2e-7, the worst 4.5e-6
    # (a sample point crossing a pixel edge within eps).
    model = set_dtype(SnakeFormer(tiny_config(seed=3)), np.float64)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 1, 32, 32))
    mask = (rng.random((2, 32, 32)) < 0.2).astype(np.uint8)
    state = {k: v + 0.05 * rng.standard_normal(v.shape) for k, v in model.state_dict().items()}
    d = {k: rng.standard_normal(v.shape) for k, v in state.items()}
    dx = rng.standard_normal(x.shape)
    model.load_state_dict(state)
    image = Tensor(x, requires_grad=True)
    combined_loss(model(image), mask).backward()
    analytic = float((image.grad * dx).sum()) + sum(
        float((p.grad * d[name]).sum()) for name, p in model.named_parameters())

    def loss(eps):
        model.load_state_dict({k: v + eps * d[k] for k, v in state.items()})
        return combined_loss(model(Tensor(x + eps * dx)), mask).item()

    numeric = (loss(1e-7) - loss(-1e-7)) / 2e-7
    assert abs(numeric - analytic) <= 1e-5 * abs(analytic), (numeric, analytic)


def test_tiny_config_rejects_unknown_override():
    with pytest.raises(ContractViolation, match="conv_mod"):
        tiny_config(conv_mod="vanilla")


@pytest.mark.parametrize("field,value", [
    ("snake_widths", (4, 8, 12.0, 16, 24)),
    ("transformer_widths", (8, 0, 24, 32)),
    ("decoder_widths", (24, 16, 12, -8, 8)),
    ("transformer_heads", (1, 2, 0, 4)),
    ("transformer_heads", (1, 2, 2, True)),
    ("transformer_heads", (1, 2, 2)),
    ("transformer_depths", (1, -1, 1, 1)),
    ("transformer_depths", (1, 1, 0.5, 1)),
    ("wcam_ratio", 0),
    ("wcam_ratio", 4.0),
    ("image_channels", 0),
    ("image_channels", "1"),
    ("snake_widths", 5),
    ("transformer_depths", "1111"),
    ("seed", "a"),
    ("seed", -1),
])
def test_bad_config_value_names_its_field(field, value):
    with pytest.raises(ContractViolation, match=field):
        SnakeFormer(tiny_config(**{field: value}))


def test_zero_depth_and_numpy_ints_are_valid():
    cfg = tiny_config(transformer_depths=(0, 1, 0, 1), wcam_ratio=np.int64(2))
    assert cfg.validate() is cfg


@pytest.mark.parametrize("overrides,words", [
    ({"transformer_heads": (1, 2, 5, 4)}, ("transformer_heads[2]", "transformer_widths[2] = 24")),
    ({"wcam_ratio": 5}, ("wcam_ratio 5", "snake_widths[0] = 12")),
    ({"snake_widths": (4, 8, 12, 16, 26)}, ("wcam_ratio 4", "snake_widths[4] = 78")),
    # 3 * snake width stays a multiple of 4; the s8 stage input 16 + 16 + 26 does not
    ({"decoder_widths": (26, 16, 12, 8, 8)}, ("wcam_ratio 4", "stage s8 = 58")),
    ({"wcam_ratio": 3, "channel_attention": "cam"}, ("wcam_ratio 3", "stage s32 = 32")),
])
def test_cross_field_constraints_are_checked_by_validate(overrides, words):
    with pytest.raises(ContractViolation) as err:
        tiny_config(**overrides)
    assert all(w in str(err.value) for w in words), str(err.value)


def test_ratio_is_unconstrained_without_channel_attention():
    cfg = micro_config(wcam_ratio=5, channel_attention="none")
    imgs = np.random.default_rng(33).random((1, 1, 32, 32))
    assert predict_probabilities(SnakeFormer(cfg), imgs).shape == (1, 32, 32)


# valid draws keep every constraint that spans fields: widths are even, so
# heads of 1 or 2 and a channel-attention ratio of 1 or 2 divide every
# attention width
FUZZ_VALID = {
    "snake_widths": lambda r: tuple(int(v) for v in r.choice([2, 4, 6], 5)),
    "transformer_widths": lambda r: tuple(int(v) for v in r.choice([2, 4, 8], 4)),
    "decoder_widths": lambda r: tuple(int(v) for v in r.choice([2, 4, 6], 5)),
    "transformer_heads": lambda r: tuple(int(v) for v in r.choice([1, 2], 4)),
    "transformer_depths": lambda r: tuple(int(v) for v in r.choice([0, 1, 2], 4)),
    "wcam_ratio": lambda r: int(r.choice([1, 2])),
    "image_channels": lambda r: int(r.choice([1, 2])),
    "conv_mode": lambda r: str(r.choice(["vanilla", "dsconv", "enhanced"])),
    "channel_attention": lambda r: str(r.choice(["none", "cam", "wcam"])),
}
FUZZ_BAD = [0, -1, 1.5, True, "2"]


def test_fuzzed_configs_run_forward_and_backward_or_are_rejected():
    rng = np.random.default_rng(2027)
    base = micro_config()
    ran = rejected = 0
    for _ in range(16):
        fields = rng.choice(sorted(FUZZ_VALID), size=3, replace=False)
        changes = {f: FUZZ_VALID[f](rng) for f in fields}
        bad = None
        if rng.random() < 0.4:
            bad = str(fields[0])
            value = FUZZ_BAD[rng.integers(len(FUZZ_BAD))]
            if isinstance(changes[bad], tuple):
                entries = list(changes[bad])
                entries[rng.integers(len(entries))] = value
                value = tuple(entries)
            changes[bad] = value
        cfg = replace(base, **changes)
        if bad is not None:
            with pytest.raises(ContractViolation, match=bad):
                cfg.validate()
            rejected += 1
            continue
        model = SnakeFormer(cfg)
        x = rng.standard_normal((1, cfg.image_channels, 32, 32)).astype(np.float32)
        loss = combined_loss(model(Tensor(x)), (rng.random((1, 32, 32)) < 0.2).astype(np.uint8))
        loss.backward()
        assert np.isfinite(loss.item()), changes
        for name, p in model.named_parameters():
            assert p.grad is None or np.isfinite(p.grad).all(), (name, changes)
        ran += 1
    assert ran >= 5 and rejected >= 3, (ran, rejected)


# draws that may break a constraint spanning fields: four heads against
# widths of 2 or 6, and ratios of 2 or 3 against odd widths or sums
FUZZ_CROSS = {
    "snake_widths": lambda r: tuple(int(v) for v in r.choice([2, 3, 4], 5)),
    "transformer_widths": lambda r: tuple(int(v) for v in r.choice([2, 4, 6, 8], 4)),
    "decoder_widths": lambda r: tuple(int(v) for v in r.choice([2, 3, 4], 5)),
    "transformer_heads": lambda r: tuple(int(v) for v in r.choice([1, 2, 4], 4)),
    "wcam_ratio": lambda r: int(r.choice([1, 2, 3])),
    "channel_attention": lambda r: str(r.choice(["none", "cam", "wcam"])),
}


def test_fuzzed_cross_field_configs_are_rejected_only_by_validate():
    # a config that validate() accepts must build and run; before the
    # cross-field checks, these draws failed while the layers were built
    rng = np.random.default_rng(2030)
    base = micro_config()
    ran = rejected = 0
    for _ in range(16):
        fields = rng.choice(sorted(FUZZ_CROSS), size=2, replace=False)
        cfg = replace(base, **{str(f): FUZZ_CROSS[f](rng) for f in fields})
        try:
            cfg.validate()
        except ContractViolation as e:
            assert "transformer_heads" in str(e) or "wcam_ratio" in str(e), str(e)
            rejected += 1
            continue
        imgs = rng.random((1, cfg.image_channels, 32, 32))
        assert np.isfinite(predict_probabilities(SnakeFormer(cfg), imgs)).all()
        ran += 1
    assert ran >= 4 and rejected >= 4, (ran, rejected)


class TestCombinedLoss:
    def test_confident_correct_prediction_near_zero(self):
        rng = np.random.default_rng(15)
        t = (rng.random((1, 8, 8)) < 0.3).astype(np.uint8)
        logits = np.zeros((1, 2, 8, 8), dtype=np.float32)
        logits[:, 1] = np.where(t, 20.0, -20.0)
        loss = combined_loss(Tensor(logits), t)
        assert loss.item() < 1e-3

    def test_uniform_logits_cross_entropy_is_ln2(self):
        t = (np.random.default_rng(16).random((2, 4, 4)) < 0.4).astype(np.uint8)
        logits = np.zeros((2, 2, 4, 4), dtype=np.float64)
        loss = combined_loss(Tensor(logits), t)
        npos = t.sum()
        total = t.size
        dice = 1.0 - (npos + 1.0) / (0.5 * total + npos + 1.0)
        assert loss.item() == pytest.approx(np.log(2.0) + dice, abs=1e-9)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            logits = rng.standard_normal((2, 2, 4, 4))
            t = (rng.random((2, 4, 4)) < 0.5).astype(np.uint8)
            got = combined_loss(Tensor(logits), t).item()
            assert got == pytest.approx(loss_oracle(logits, t), abs=1e-6)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            logits = 5.0 * rng.standard_normal((1, 2, 4, 4))
            t = (rng.random((1, 4, 4)) < 0.5).astype(np.uint8)
            assert combined_loss(Tensor(logits), t).item() >= 0.0

    def test_shape_and_value_contracts(self):
        logits = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
        with pytest.raises(ContractViolation):
            combined_loss(logits, np.zeros((1, 5, 5), dtype=np.uint8))
        with pytest.raises(ContractViolation):
            combined_loss(logits, np.full((1, 4, 4), 2, dtype=np.uint8))
        with pytest.raises(ContractViolation, match="^target mask is a ragged sequence"):
            combined_loss(logits, [[[0, 1], [0]]])
        with pytest.raises(ContractViolation, match="^target mask must be a bool, int or float"):
            combined_loss(logits, np.zeros((1, 4, 4), dtype=np.complex128))

    def test_grad_check(self):
        rng = np.random.default_rng(19)
        t = (rng.random((1, 4, 4)) < 0.5).astype(np.uint8)
        report = grad_check(FunctionModule(lambda z: combined_loss(z, t)),
                            rng.standard_normal((1, 2, 4, 4)), tolerance=1e-3)
        assert report.passed, str(report)

    def test_softmax_normalization(self):
        rng = np.random.default_rng(20)
        from serpentseg.tensor import softmax
        z = Tensor(rng.standard_normal((2, 2, 5, 5)).astype(np.float32))
        p = softmax(z, axis=1).data
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)


class TestAdam:
    @pytest.mark.parametrize("named,words", [
        (5, "Adam: named_params must be an iterable of (str, Parameter) pairs, got int"),
        ([Parameter(np.ones(2))], "Adam: entry 0 of named_params is (Parameter), not"),
        ([("p", np.ones(2))], "Adam: entry 0 of named_params is (str, ndarray), not"),
        ([("a", Parameter(np.ones(2))), (1, Parameter(np.ones(2)))],
         "Adam: entry 1 of named_params is (int, Parameter), not"),
        ([("p", Parameter(np.ones(2)), 0)], "Adam: entry 0 of named_params is (str, Parameter, "
                                            "int), not"),
    ], ids=["int", "bare-parameter", "ndarray", "int-name", "triple"])
    def test_bad_named_params_are_refused(self, named, words):
        # 5 and a bare Parameter raised raw TypeErrors, and an ndarray built
        # an optimizer whose step failed with an AttributeError
        with pytest.raises(ContractViolation, match=re.escape(words)):
            Adam(named)

    def test_zero_gradient_leaves_parameters(self):
        p = Parameter(np.array([1.0, -2.0], dtype=np.float32))
        opt = Adam([("p", p)], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr_signed(self):
        p = Parameter(np.array([0.5, -0.5, 2.0], dtype=np.float32))
        opt = Adam([("p", p)], lr=0.01, weight_decay=0.0)
        g = np.array([0.3, -0.7, 2.5], dtype=np.float32)
        p.grad = g.copy()
        before = p.data.copy()
        opt.step()
        np.testing.assert_allclose(before - p.data, 0.01 * np.sign(g), rtol=1e-4)

    def test_quadratic_convergence(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = Adam([("p", p)], lr=0.1, weight_decay=0.0)
        for _ in range(100):
            p.grad = p.data.copy()  # gradient of 0.5 * p^2 toward minimum at 0
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_decoupled_weight_decay_applied_before_update(self):
        p = Parameter(np.array([2.0], dtype=np.float32))
        opt = Adam([("p", p)], lr=0.5, weight_decay=0.1)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.5 * 0.1))

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        opt = Adam([("blocks.3.weight", p)], lr=0.1)
        p.grad = np.array([1.0, np.nan], dtype=np.float32)
        with pytest.raises(TrainingError, match="blocks.3.weight"):
            opt.step()

    def test_non_finite_gradient_updates_no_parameter(self):
        # a caller that catches the error must not hold a half-stepped model
        a = Parameter(np.array([1.0, -2.0], dtype=np.float32))
        b = Parameter(np.ones(2, dtype=np.float32))
        opt = Adam([("a", a), ("b", b)], lr=0.1)
        a.grad = np.ones(2, dtype=np.float32)
        opt.step()
        state = [a.data.copy()] + [m.copy() for m in opt.m + opt.v]
        b.grad = np.array([1.0, np.nan], dtype=np.float32)
        with pytest.raises(TrainingError, match="non-finite gradient in b"):
            opt.step()
        assert opt.t == 1
        for got, want in zip([a.data] + opt.m + opt.v, state):
            np.testing.assert_array_equal(got, want)


def _toy_pairs(n, seed, size=32):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        mask = np.zeros((size, size), dtype=np.uint8)
        row = int(rng.integers(4, size - 4))
        mask[row - 1:row + 1, 4:size - 4] = 1
        img = 0.7 - 0.4 * mask + 0.05 * rng.standard_normal((size, size))
        pairs.append((np.clip(img, 0, 1).astype(np.float32), mask))
    return pairs


def _score_or_train(entry: str, model, pairs):
    """``evaluate_model`` of ``pairs``, or one epoch of ``train_loop`` on them."""
    if entry == "evaluate_model":
        return evaluate_model(model, pairs, batch_size=2)
    return train_loop(model, pairs, pairs, epochs=1, batch_size=2)


class TestTrainLoop:
    def test_smoke_one_epoch(self):
        model = SnakeFormer(micro_config(seed=21))
        pairs = _toy_pairs(2, 22)
        result = train_loop(model, pairs, pairs, epochs=1, batch_size=2, seed=0)
        assert len(result.records) == 1
        assert result.best_state is not None
        assert np.isfinite(result.records[0].train_loss)

    def test_same_seed_reproduces_checkpoint_bits(self):
        pairs = _toy_pairs(4, 23)

        def run():
            model = SnakeFormer(micro_config(seed=24))
            res = train_loop(model, pairs, pairs[:2], epochs=2, batch_size=2, seed=7)
            return res

        a, b = run(), run()
        assert sorted(a.best_state) == sorted(b.best_state)
        for k in a.best_state:
            assert np.array_equal(a.best_state[k], b.best_state[k]), k
        assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]
        assert [r.val for r in a.records] == [r.val for r in b.records]

    def test_loss_decreases_on_fixed_batch(self):
        # soft smoke property: a few optimization steps on one batch reduce
        # the loss for at least 2 of 3 seeds
        wins = 0
        pairs = _toy_pairs(2, 25)
        for seed in (0, 1, 2):
            model = SnakeFormer(micro_config(seed=seed))
            opt = Adam(model.named_parameters(), lr=1e-4)
            imgs = np.stack([p[0] for p in pairs])[:, None]
            masks = np.stack([p[1] for p in pairs])
            losses = []
            for _ in range(10):
                loss = combined_loss(model(Tensor(imgs)), masks)
                losses.append(loss.item())
                model.zero_grad()
                loss.backward()
                opt.step()
            if losses[-1] < losses[0]:
                wins += 1
        assert wins >= 2

    def test_epoch_peak_holds_one_step_tape(self):
        # a step's logits and loss reach its whole tape: kept into the next
        # step, two tapes were live at once and a 4-batch epoch peaked at
        # 1.25x a 1-batch epoch (17.9 against 14.3 MiB); now 12.5 against 12.8
        pairs = _toy_pairs(4, 30, size=64)

        def epoch_peak(train):
            model = SnakeFormer(tiny_config(seed=31))
            _, peak, _ = traced(train_loop, model, train, pairs[:1], 1, 1)
            return peak

        one, four = epoch_peak(pairs[:1]), epoch_peak(pairs)
        assert four <= 1.15 * one, (four, one)

    def test_empty_training_set_rejected(self):
        model = SnakeFormer(micro_config(seed=26))
        with pytest.raises(ContractViolation):
            train_loop(model, [], [], epochs=1, batch_size=2)

    def test_empty_validation_set_rejected(self):
        model = SnakeFormer(micro_config(seed=26))
        with pytest.raises(ContractViolation, match="validation set is empty"):
            train_loop(model, _toy_pairs(2, 26), [], epochs=1, batch_size=2)

    def test_predict_masks_binary(self):
        model = SnakeFormer(micro_config(seed=27))
        imgs = np.random.default_rng(28).random((2, 1, 32, 32)).astype(np.float32)
        masks = predict_masks(model, imgs)
        assert masks.shape == (2, 32, 32)
        assert set(np.unique(masks)) <= {0, 1}

    def test_evaluate_model_rejects_empty_set(self):
        model = SnakeFormer(micro_config(seed=29))
        with pytest.raises(ContractViolation, match="no \\(image, mask\\) pairs"):
            evaluate_model(model, [])

    @pytest.mark.parametrize("field,value", [("epochs", 0), ("batch_size", 0),
                                             ("batch_size", 1.5), ("epochs", True)])
    def test_epochs_and_batch_size_are_checked(self, field, value):
        model = SnakeFormer(micro_config(seed=26))
        kw = {"epochs": 1, "batch_size": 2, field: value}
        pairs = _toy_pairs(2, 26)
        with pytest.raises(ContractViolation, match=field):
            train_loop(model, pairs, pairs, **kw)

    @pytest.mark.parametrize("field,value", [
        ("lr", np.nan), ("lr", np.inf), ("lr", "a"), ("lr", 0.0), ("lr", True),
        ("weight_decay", np.nan), ("weight_decay", -1e-4), ("weight_decay", False),
        ("seed", "a"), ("seed", -1), ("log", 5),
    ])
    def test_bad_hyperparameters_are_refused_before_any_forward(self, field, value, monkeypatch):
        # lr=nan or inf wrote NaN into every parameter, lr="a" failed raw in
        # Adam.step after a forward and backward, log=5 after a whole epoch
        model = SnakeFormer(micro_config(seed=26))
        before = model.state_dict()
        monkeypatch.setattr(model, "forward", lambda x: pytest.fail("forward ran"))
        pairs = _toy_pairs(2, 26)
        with pytest.raises(ContractViolation, match=f"^{field} "):
            train_loop(model, pairs, pairs, epochs=1, batch_size=2, **{field: value})
        np.testing.assert_equal(model.state_dict(), before)

    @pytest.mark.parametrize("threshold", ["a", None, np.nan, np.inf, -0.1, 1.5, True])
    def test_predict_masks_checks_threshold_before_the_forward(self, threshold, monkeypatch):
        # "a" and None failed raw after the whole forward, and nan gave an all-zero mask
        model = SnakeFormer(micro_config(seed=27))
        x = np.random.default_rng(28).random((1, 1, 32, 32)).astype(np.float32)
        monkeypatch.setattr(model, "forward", lambda x: pytest.fail("forward ran"))
        with pytest.raises(ContractViolation, match="^threshold "):
            predict_masks(model, x, threshold=threshold)
        monkeypatch.undo()
        assert not predict_masks(model, x, threshold=1).any()

    def test_evaluate_model_checks_batch_size(self):
        model = SnakeFormer(micro_config(seed=29))
        with pytest.raises(ContractViolation, match="batch_size"):
            evaluate_model(model, _toy_pairs(2, 30), batch_size=0)

    def test_predict_probabilities_takes_nested_lists(self):
        model = SnakeFormer(micro_config(seed=27))
        imgs = np.random.default_rng(28).random((1, 1, 32, 32))
        want = predict_probabilities(model, imgs)
        np.testing.assert_array_equal(predict_probabilities(model, imgs.tolist()), want)

    def test_predict_probabilities_of_an_empty_batch(self):
        # the attention's head split names its token count: a -1 cannot be
        # solved for with no images
        model = SnakeFormer(tiny_config())
        probs = predict_probabilities(model, np.zeros((0, 1, 32, 32), dtype=np.float32))
        assert probs.shape == (0, 32, 32)

    def test_evaluate_model_returns_means(self):
        model = SnakeFormer(micro_config(seed=29))
        pairs = _toy_pairs(3, 30)
        report = evaluate_model(model, pairs, batch_size=2)
        iou, f1 = report.mean["iou"], report.mean["f1"]
        assert 0.0 <= iou <= 1.0
        assert 0.0 <= f1 <= 1.0

    def test_evaluate_model_means_are_the_per_pair_loop(self):
        model = SnakeFormer(micro_config(seed=29))
        pairs = _toy_pairs(5, 31)
        report = evaluate_model(model, pairs, batch_size=2)
        ious, f1s = [], []
        for lo in range(0, len(pairs), 2):
            imgs = np.stack([img for img, _ in pairs[lo:lo + 2]])[:, None]
            for pred, (_, mask) in zip(predict_masks(model, imgs), pairs[lo:lo + 2]):
                iou, _, _, f1 = pixel_metrics(confusion_counts(pred, mask))
                ious.append(iou)
                f1s.append(f1)
        assert [m.iou for m in report.per_image] == ious
        assert [m.f1 for m in report.per_image] == f1s
        assert report.mean["iou"] == sum(ious) / len(ious)
        assert report.mean["f1"] == sum(f1s) / len(f1s)
        assert set(report.mean) == {"iou", "precision", "recall", "f1", "hausdorff"}

    @pytest.mark.parametrize("entry", ["evaluate_model", "train_loop"])
    def test_mixed_image_sizes_in_one_batch_name_both_pairs(self, entry):
        model = SnakeFormer(micro_config(seed=32))
        pairs = _toy_pairs(1, 33, size=32) + _toy_pairs(1, 34, size=64)
        with pytest.raises(ContractViolation, match="image of pair") as err:
            _score_or_train(entry, model, pairs)
        for part in ("pair 0", "pair 1", "(32, 32)", "(64, 64)"):
            assert part in str(err.value)

    def test_mixed_mask_sizes_in_one_batch_name_both_pairs(self):
        model = SnakeFormer(micro_config(seed=32))
        pairs = _toy_pairs(2, 35)
        pairs[1] = (pairs[1][0], pairs[1][1][:, :30])
        with pytest.raises(ContractViolation,
                           match=r"mask of pair 1 has shape \(32, 30\) .* pair 0 has \(32, 32\)"):
            evaluate_model(model, pairs, batch_size=2)

    @pytest.mark.parametrize("entry", ["evaluate_model", "train_loop"])
    @pytest.mark.parametrize("role", ["image", "mask"])
    def test_pair_that_is_not_2d_is_named(self, entry, role):
        model = SnakeFormer(micro_config(seed=32))
        pairs = _toy_pairs(2, 36)
        k = ("image", "mask").index(role)
        pairs[1] = tuple(a[None] if i == k else a for i, a in enumerate(pairs[1]))
        with pytest.raises(ContractViolation,
                           match=rf"{role} of pair 1 has shape \(1, 32, 32\); need \(H, W\)"):
            _score_or_train(entry, model, pairs)

    @pytest.mark.parametrize("entry", ["evaluate_model", "train_loop"])
    @pytest.mark.parametrize("role", ["image", "mask"])
    def test_ragged_pair_is_named(self, entry, role):
        # numpy's ndim raised a raw ValueError ("inhomogeneous shape")
        model = SnakeFormer(micro_config(seed=32))
        pairs = _toy_pairs(2, 36)
        k = ("image", "mask").index(role)
        pairs[1] = tuple([[0, 1], [0]] if i == k else a for i, a in enumerate(pairs[1]))
        with pytest.raises(ContractViolation,
                           match=f"^{entry}.*: {role} of pair 1 is a ragged sequence, not an "
                                 f"array$"):
            _score_or_train(entry, model, pairs)

    @pytest.mark.parametrize("entry", ["evaluate_model", "train_loop"])
    def test_pair_that_is_not_an_image_and_a_mask_is_named(self, entry):
        model = SnakeFormer(micro_config(seed=32))
        pairs = _toy_pairs(2, 36)
        pairs[1] = pairs[1][:1]
        with pytest.raises(ContractViolation,
                           match=r"pair 1 is tuple of length 1, not an \(image, mask\) pair"):
            _score_or_train(entry, model, pairs)

    def test_generators_of_pairs_give_what_lists_give(self):
        # both took len() of their pairs, which a generator has not
        pairs = _toy_pairs(4, 37)

        def run(wrap):
            model = SnakeFormer(micro_config(seed=38))
            res = train_loop(model, wrap(pairs), wrap(pairs[:2]), epochs=2, batch_size=2, seed=3)
            report = evaluate_model(model, wrap(pairs), batch_size=3)
            records = [(r.epoch, r.train_loss, r.val) for r in res.records]  # not the seconds
            return records, res.best_state, res.best_iou, res.best_epoch, asdict(report)

        np.testing.assert_equal(run(lambda ps: (p for p in ps)), run(list))

    @pytest.mark.parametrize("entry", ["evaluate_model", "train_loop"])
    def test_pairs_that_are_not_iterable_are_named(self, entry):
        model = SnakeFormer(micro_config(seed=32))
        with pytest.raises(ContractViolation, match="need an iterable of .* got int"):
            if entry == "evaluate_model":
                evaluate_model(model, 3)
            else:
                train_loop(model, 3, _toy_pairs(1, 36), epochs=1, batch_size=2)

    def test_sizes_may_differ_between_batches(self):
        model = SnakeFormer(micro_config(seed=32))
        pairs = _toy_pairs(1, 33, size=32) + _toy_pairs(1, 34, size=64)
        assert len(evaluate_model(model, pairs, batch_size=1).per_image) == 2

    @pytest.mark.parametrize("scale", [2, 0.5])
    @pytest.mark.parametrize("where", ["evaluate_model", "train_loop: train_pairs",
                                       "train_loop: val_pairs"])
    def test_mask_values_are_checked_before_any_forward(self, where, scale, monkeypatch):
        # a mask holding a 2 failed in combined_loss or evaluate_pair after a
        # whole forward, and the message named no pair
        model = SnakeFormer(micro_config(seed=32))
        monkeypatch.setattr(model, "forward", lambda x: pytest.fail("forward ran"))
        pairs = _toy_pairs(4, 36)
        bad = pairs[:3] + [(pairs[3][0], pairs[3][1] * scale)]  # pair 3 is in the second batch
        with pytest.raises(ContractViolation, match=f"^{where}: mask of pair 3 must be binary$"):
            if where == "evaluate_model":
                evaluate_model(model, bad, batch_size=2)
            elif where.endswith("train_pairs"):
                train_loop(model, bad, pairs, epochs=1, batch_size=2)
            else:
                train_loop(model, pairs, bad, epochs=1, batch_size=2)


def test_taped_forward_keeps_a_bounded_tape():
    # the tape holds an op output's array only while a backward formula reads
    # it: 21.3 MiB measured, against 32.0 MiB when every output held its parents
    net = SnakeFormer(ModelConfig())
    rng = np.random.default_rng(0)
    image = rng.standard_normal((2, 1, 64, 64)).astype(np.float32)
    mask = (rng.random((2, 64, 64)) < 0.1).astype(np.uint8)
    combined_loss(net(Tensor(image)), mask)  # first-call caches stay out of the count
    loss, _, kept = traced(lambda: combined_loss(net(Tensor(image)), mask))
    assert np.isfinite(loss.item())
    assert kept <= 1.05 * 21.3 * 2 ** 20, kept / 2 ** 20
