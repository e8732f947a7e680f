"""Decoder fusion, full-model contracts, loss oracle, Adam, and the
training loop."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from serpentseg.gradcheck import FunctionModule, grad_check
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
from serpentseg.tensor import ContractViolation, Tensor


def micro_config(seed=0, **kw):
    base = dict(
        snake_widths=(2, 2, 4, 4, 4),
        transformer_widths=(4, 4, 8, 8),
        transformer_depths=(1, 1, 1, 1),
        transformer_heads=(1, 1, 2, 2),
        transformer_reductions=(8, 4, 2, 1),
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
        with pytest.raises(ContractViolation):
            stage([Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32)),
                   Tensor(np.zeros((1, 4, 2, 2), dtype=np.float32))])

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(3)
        stage = FusionStage(6, 4, rng, ratio=2)
        parts = [Tensor(rng.standard_normal((1, 2, 6, 6)).astype(np.float32)),
                 Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32))]
        out = stage(parts).data
        from serpentseg.attention import apply_attention
        from serpentseg.tensor import concat, no_grad, relu
        with no_grad():
            cat = concat(parts, axis=1)
            att = apply_attention(cat, stage.ca(cat), stage.sa(cat))
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
        # reduction 16 on the 1/4 grid needs sides that are multiples of 64;
        # the check fires before either encoder runs
        model = SnakeFormer(tiny_config(transformer_reductions=(16, 4, 2, 1)))
        for enc in (model.enc.dsc, model.enc.mit):
            monkeypatch.setattr(enc, "forward", lambda x: pytest.fail("encoder ran"))
        with pytest.raises(ContractViolation,
                           match=r"multiples of 64, transformer_reductions\[0\] = 16"):
            model(Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32)))
        monkeypatch.undo()
        assert model(Tensor(np.zeros((1, 1, 64, 64), dtype=np.float32))).data.shape[2:] == (64, 64)

    @pytest.mark.parametrize("reductions,depths,side", [
        ((8, 4, 2, 1), (1, 1, 1, 1), 32),
        ((3, 4, 2, 1), (1, 1, 1, 1), 96),
        ((16, 4, 2, 1), (0, 1, 1, 1), 32),   # a stage without blocks reduces nothing
        ((1, 1, 1, 5), (1, 1, 1, 1), 160),
    ])
    def test_rejection_names_the_side_multiple(self, reductions, depths, side):
        model = SnakeFormer(tiny_config(transformer_reductions=reductions,
                                        transformer_depths=depths))
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


def test_tiny_config_rejects_unknown_override():
    with pytest.raises(ContractViolation, match="conv_mod"):
        tiny_config(conv_mod="vanilla")


@pytest.mark.parametrize("field,value", [
    ("snake_widths", (4, 8, 12.0, 16, 24)),
    ("transformer_widths", (8, 0, 24, 32)),
    ("decoder_widths", (24, 16, 12, -8, 8)),
    ("transformer_heads", (1, 2, 0, 4)),
    ("transformer_heads", (1, 2, 2, True)),
    ("transformer_reductions", (8, 0, 2, 1)),
    ("transformer_depths", (1, -1, 1, 1)),
    ("transformer_depths", (1, 1, 0.5, 1)),
    ("wcam_ratio", 0),
    ("wcam_ratio", 4.0),
    ("image_channels", 0),
    ("image_channels", "1"),
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
# attention width, and the reduction of stage i divides its 32/4/2**i grid
FUZZ_VALID = {
    "snake_widths": lambda r: tuple(int(v) for v in r.choice([2, 4, 6], 5)),
    "transformer_widths": lambda r: tuple(int(v) for v in r.choice([2, 4, 8], 4)),
    "decoder_widths": lambda r: tuple(int(v) for v in r.choice([2, 4, 6], 5)),
    "transformer_heads": lambda r: tuple(int(v) for v in r.choice([1, 2], 4)),
    "transformer_reductions": lambda r: tuple(int(r.choice([d for d in (1, 2, 4, 8)
                                                            if (8 >> i) % d == 0]))
                                              for i in range(4)),
    "transformer_depths": lambda r: tuple(int(v) for v in r.choice([0, 1, 2], 4)),
    "wcam_ratio": lambda r: int(r.choice([1, 2])),
    "image_channels": lambda r: int(r.choice([1, 2])),
    "conv_mode": lambda r: str(r.choice(["vanilla", "dsconv", "enhanced"])),
    "channel_attention": lambda r: str(r.choice(["none", "cam", "wcam"])),
}
FUZZ_BAD = [0, -1, 1.5, True, "2"]


def test_fuzzed_configs_run_forward_and_backward_or_are_rejected():
    rng = np.random.default_rng(2027)
    base = micro_config(transformer_reductions=(1, 1, 1, 1))
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
    base = micro_config(transformer_reductions=(1, 1, 1, 1))
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

    def test_evaluate_model_checks_batch_size(self):
        model = SnakeFormer(micro_config(seed=29))
        with pytest.raises(ContractViolation, match="batch_size"):
            evaluate_model(model, _toy_pairs(2, 30), batch_size=0)

    def test_predict_probabilities_takes_nested_lists(self):
        model = SnakeFormer(micro_config(seed=27))
        imgs = np.random.default_rng(28).random((1, 1, 32, 32))
        want = predict_probabilities(model, imgs)
        np.testing.assert_array_equal(predict_probabilities(model, imgs.tolist()), want)

    @pytest.mark.parametrize("images,kind", [([[[[0.0, 1.0], [2.0]]]], "list"),
                                             ("crack.png", "str"), ({"image": 1}, "dict")])
    def test_predict_probabilities_rejects_non_numeric_input(self, images, kind):
        model = SnakeFormer(micro_config(seed=27))
        with pytest.raises(ContractViolation, match=kind):
            predict_probabilities(model, images)

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
            if entry == "evaluate_model":
                evaluate_model(model, pairs, batch_size=2)
            else:
                train_loop(model, pairs, pairs, epochs=1, batch_size=2)
        for part in ("pair 0", "pair 1", "(32, 32)", "(64, 64)"):
            assert part in str(err.value)

    def test_mixed_mask_sizes_in_one_batch_name_both_pairs(self):
        model = SnakeFormer(micro_config(seed=32))
        pairs = _toy_pairs(2, 35)
        pairs[1] = (pairs[1][0], pairs[1][1][:, :30])
        with pytest.raises(ContractViolation,
                           match=r"mask of pair 1 has shape \(32, 30\) .* pair 0 has \(32, 32\)"):
            evaluate_model(model, pairs, batch_size=2)

    def test_sizes_may_differ_between_batches(self):
        model = SnakeFormer(micro_config(seed=32))
        pairs = _toy_pairs(1, 33, size=32) + _toy_pairs(1, 34, size=64)
        assert len(evaluate_model(model, pairs, batch_size=1).per_image) == 2
