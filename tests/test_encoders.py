"""Snake blocks, the five-stage snake encoder, and the hierarchical
transformer branch."""

import re

import numpy as np
import pytest

from gradcheck import grad_check, set_dtype
from oracles import flip_parameters

from serpentseg.encoders import (
    EfficientSelfAttention,
    MixFFN,
    MixTransformerEncoder,
    SnakeBlock,
    SnakeEncoder,
    TransformerBlock,
    TransformerStage,
)
from serpentseg.tensor import ContractViolation, Tensor, concat, mul, no_grad, relu, tsum
from serpentseg.attention import attend
from serpentseg.model import tiny_config


def _zero_params(module):
    for _, p in module.named_parameters():
        p.data[:] = 0.0


@pytest.mark.parametrize("conv_mode", ["vanilla", "dsconv", "enhanced"])
def test_snake_encoder_commutes_with_a_w_flip(conv_mode):
    # under the parameter map T', the encoder of an input flipped along W
    # gives every stage's map flipped along W
    cfg = tiny_config(seed=3, conv_mode=conv_mode)
    enc = set_dtype(SnakeEncoder(cfg.image_channels, cfg.snake_widths,
                                 np.random.default_rng(cfg.seed), conv_mode=conv_mode,
                                 channel_attention=cfg.channel_attention, ratio=cfg.wcam_ratio),
                    np.float64)
    rng = np.random.default_rng(63)
    state = {k: v + 0.05 * rng.standard_normal(v.shape) for k, v in enc.state_dict().items()}
    x = rng.standard_normal((2, 1, 32, 64))
    with no_grad():
        enc.load_state_dict(state)
        want = [f.data[..., ::-1] for f in enc(Tensor(x))]
        enc.load_state_dict(flip_parameters(state))
        got = [f.data for f in enc(Tensor(x[..., ::-1].copy()))]
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-9)


@pytest.mark.parametrize("conv_mode", ["vanilla", "dsconv", "enhanced"])
def test_snake_encoder_backward_commutes_with_a_w_flip(conv_mode):
    # the loss sums each stage's map weighted by a fixed r; with r flipped
    # along W too, the loss at (flipped x, T' theta) is the loss at (x, theta).
    # T' is a signed permutation and its own inverse, so it maps the gradients
    # at (x, theta) to those at (flipped x, T' theta). The tolerance is
    # relative to the largest gradient; measured: at most 1.5e-15 (enhanced).
    cfg = tiny_config(seed=3, conv_mode=conv_mode)
    enc = set_dtype(SnakeEncoder(cfg.image_channels, cfg.snake_widths,
                                 np.random.default_rng(cfg.seed), conv_mode=conv_mode,
                                 channel_attention=cfg.channel_attention, ratio=cfg.wcam_ratio),
                    np.float64)
    rng = np.random.default_rng(64)
    state = {k: v + 0.05 * rng.standard_normal(v.shape) for k, v in enc.state_dict().items()}
    x = rng.standard_normal((2, 1, 32, 64))
    r = [rng.standard_normal((2, w, 32 >> i, 64 >> i)) for i, w in enumerate(cfg.snake_widths)]

    def grads(state, x, r):
        enc.load_state_dict(state)
        enc.zero_grad()
        sum(tsum(mul(f, ri)) for f, ri in zip(enc(Tensor(x)), r)).backward()
        return {name: p.grad for name, p in enc.named_parameters()}

    want = flip_parameters(grads(state, x, r))
    got = grads(flip_parameters(state), x[..., ::-1].copy(), [ri[..., ::-1].copy() for ri in r])
    scale = max(np.abs(g).max() for g in want.values())
    for name in state:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12 * scale,
                                   err_msg=name)


class TestSnakeBlock:
    def test_residual_identity_when_weights_zero(self):
        rng = np.random.default_rng(0)
        block = SnakeBlock(4, 4, rng, ratio=4)
        _zero_params(block)
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        out = block(Tensor(x))
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_output_shape_contract(self):
        rng = np.random.default_rng(1)
        block = SnakeBlock(4, 8, rng, ratio=4)
        out = block(Tensor(rng.standard_normal((1, 4, 16, 16)).astype(np.float32)))
        assert out.data.shape == (1, 8, 16, 16)

    def test_matches_step_by_step_composition(self):
        rng = np.random.default_rng(2)
        block = SnakeBlock(3, 5, rng, ratio=5)
        x = Tensor(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
        out = block(x).data
        with no_grad():
            cat = concat([relu(block.branch_h(x)), relu(block.branch_v(x)),
                          relu(block.local(x))], axis=1)
            att = attend(cat, block.ca, block.sa)
            want = (block.fuse(att) + block.proj(x)).data
        np.testing.assert_allclose(out, want, atol=1e-5)

    def test_branch_order_horizontal_vertical_local(self):
        rng = np.random.default_rng(3)
        block = SnakeBlock(2, 2, rng, ratio=2)
        assert block.branch_h.axis == "horizontal"
        assert block.branch_v.axis == "vertical"

    @pytest.mark.parametrize("conv_mode", ["vanilla", "dsconv", "enhanced"])
    @pytest.mark.parametrize("ca_mode", ["none", "cam", "wcam"])
    def test_ablation_variants_run(self, conv_mode, ca_mode):
        rng = np.random.default_rng(4)
        block = SnakeBlock(2, 3, rng, conv_mode=conv_mode,
                           channel_attention=ca_mode, ratio=3)
        out = block(Tensor(rng.standard_normal((1, 2, 8, 8)).astype(np.float32)))
        assert out.data.shape == (1, 3, 8, 8)

    def test_scales_linearly_with_conv_paths(self):
        # attentions forced to 1, residual skipped, biases zero, offsets fixed:
        # the remaining path is linear, so scaling the input scales the output
        rng = np.random.default_rng(5)
        block = SnakeBlock(2, 4, rng, ratio=2)
        for mod in (block.branch_h, block.branch_v):
            for lvl in mod.pyramid:
                lvl.weight.data[:] = 0.0
        for mod in (block.branch_h, block.branch_v):
            mod.chain.bias.data[:] = 0.0
        block.local.bias.data[:] = 0.0
        block.fuse.bias.data[:] = 0.0
        x = Tensor(np.abs(rng.standard_normal((1, 2, 8, 8))).astype(np.float32))

        def conv_path(inp):
            cat = concat([relu(block.branch_h(inp)), relu(block.branch_v(inp)),
                          relu(block.local(inp))], axis=1)
            return block.fuse(cat)

        base = conv_path(x).data
        scaled = conv_path(mul(x, 3.0)).data
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-4, atol=1e-5)


class TestSnakeEncoder:
    def test_stage_shapes_at_64(self):
        rng = np.random.default_rng(6)
        enc = SnakeEncoder(1, (2, 3, 4, 5, 6), rng, ratio=1)
        feats = enc(Tensor(rng.standard_normal((1, 1, 64, 64)).astype(np.float32)))
        assert [f.data.shape for f in feats] == [
            (1, 2, 64, 64), (1, 3, 32, 32), (1, 4, 16, 16), (1, 5, 8, 8), (1, 6, 4, 4)]

    def test_indivisible_dims_rejected(self):
        rng = np.random.default_rng(7)
        enc = SnakeEncoder(1, (2, 2, 2, 2, 2), rng, ratio=1)
        with pytest.raises(ContractViolation):
            enc(Tensor(np.zeros((1, 1, 24, 64), dtype=np.float32)))

    @pytest.mark.parametrize("widths", [5, (2, 2, 2, 2)])
    def test_widths_that_are_not_five_entries_are_named(self, widths):
        # an int raised TypeError from len()
        with pytest.raises(ContractViolation, match=re.escape(
                f"SnakeEncoder: widths needs a tuple or list of 5 entries, got {widths!r}")):
            SnakeEncoder(1, widths, np.random.default_rng(7))

    def test_constant_input_stays_constant_away_from_borders(self):
        # the snake branches are exactly constant everywhere (border-clamped
        # sampling of a constant field); the zero-padded standard convolutions
        # bleed zeros in at the image border, so the full block is checked on
        # the interior beyond its receptive-field margin
        rng = np.random.default_rng(8)
        enc = SnakeEncoder(1, (2, 2, 2, 2, 2), rng, ratio=1)
        for stage in enc:
            for mod in (stage.branch_h, stage.branch_v):
                for lvl in mod.pyramid:
                    lvl.weight.data[:] = 0.0
        x = Tensor(np.full((1, 1, 32, 32), 0.6, dtype=np.float32))
        stage1 = getattr(enc, "0")
        for branch in (stage1.branch_h, stage1.branch_v):
            out = branch(x).data
            flat = out.reshape(out.shape[1], -1)
            assert np.ptp(flat, axis=-1).max() < 1e-6
        f1 = enc(x)[0].data[:, :, 6:-6, 6:-6]
        assert np.ptp(f1.reshape(f1.shape[1], -1), axis=-1).max() < 2e-6

    def test_gradient_reaches_first_stage_from_deepest_feature(self):
        rng = np.random.default_rng(9)
        enc = SnakeEncoder(1, (2, 2, 2, 2, 2), rng, ratio=1)
        x = Tensor(rng.standard_normal((1, 1, 16, 16)).astype(np.float32))
        feats = enc(x)
        feats[-1].sum().backward()
        g = getattr(enc, "0").local.weight.grad
        assert g is not None and np.abs(g).max() > 0


def esa_reference(x, mod):
    """Explicit-matrix attention oracle, including the patch reduction."""
    n, l, c = x.shape
    heads, r = mod.heads, mod.reduction
    d = c // heads
    h = w = int(np.sqrt(l))
    if r > 1:
        hr, wr = h // r, w // r
        patches = np.zeros((n, hr * wr, r * r * c))
        for nn in range(n):
            for a in range(hr):
                for cc in range(wr):
                    vec = []
                    for b in range(r):
                        for dd in range(r):
                            vec.extend(x[nn, (a * r + b) * w + cc * r + dd])
                    patches[nn, a * wr + cc] = vec
        red = patches @ mod.sr.weight.data.T.astype(np.float64) + mod.sr.bias.data
        mu = red.mean(axis=-1, keepdims=True)
        var = red.var(axis=-1, keepdims=True)
        kv = ((red - mu) / np.sqrt(var + 1e-5)) * mod.sr_norm.gain.data + mod.sr_norm.shift.data
    else:
        kv = x
    q = x @ mod.q.weight.data.T.astype(np.float64) + mod.q.bias.data
    k = kv @ mod.k.weight.data.T.astype(np.float64) + mod.k.bias.data
    v = kv @ mod.v.weight.data.T.astype(np.float64) + mod.v.bias.data
    out = np.zeros((n, l, c))
    for nn in range(n):
        for hh in range(heads):
            qs = q[nn, :, hh * d:(hh + 1) * d]
            ks = k[nn, :, hh * d:(hh + 1) * d]
            vs = v[nn, :, hh * d:(hh + 1) * d]
            scores = qs @ ks.T / np.sqrt(d)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs = e / e.sum(axis=-1, keepdims=True)
            assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-5)
            out[nn, :, hh * d:(hh + 1) * d] = probs @ vs
    return out @ mod.o.weight.data.T.astype(np.float64) + mod.o.bias.data


class TestEfficientSelfAttention:
    def test_single_token_is_value_projection(self):
        rng = np.random.default_rng(10)
        mod = EfficientSelfAttention(8, heads=2, reduction=1, rng=rng)
        x = rng.standard_normal((1, 1, 1, 8)).astype(np.float32)
        out = mod(Tensor(x))
        v = x[0, 0] @ mod.v.weight.data.T + mod.v.bias.data
        want = v @ mod.o.weight.data.T + mod.o.bias.data
        np.testing.assert_allclose(out.data[0, 0], want, atol=1e-5)

    def test_two_identical_tokens_attend_half_half(self):
        rng = np.random.default_rng(11)
        mod = EfficientSelfAttention(4, heads=1, reduction=1, rng=rng)
        token = rng.standard_normal(4).astype(np.float64)
        x = np.stack([token, token])[None]
        q = x @ mod.q.weight.data.T.astype(np.float64) + mod.q.bias.data
        k = x @ mod.k.weight.data.T.astype(np.float64) + mod.k.bias.data
        scores = q[0] @ k[0].T / 2.0
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(probs, 0.5, atol=1e-12)
        out = mod(Tensor(x.astype(np.float32).reshape(1, 1, 2, 4)))
        np.testing.assert_allclose(out.data[0, 0, 0], out.data[0, 0, 1], atol=1e-6)

    def test_matches_naive_oracle_with_reduction(self):
        rng = np.random.default_rng(12)
        mod = EfficientSelfAttention(8, heads=2, reduction=2, rng=rng)
        x = rng.standard_normal((1, 16, 8)).astype(np.float32)
        out = mod(Tensor(x.reshape(1, 4, 4, 8)))
        ref = esa_reference(x.astype(np.float64), mod)
        np.testing.assert_allclose(out.data.reshape(1, 16, 8), ref, atol=1e-5)

    def test_divisibility_violations_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ContractViolation):
            EfficientSelfAttention(6, heads=4, reduction=1, rng=rng)
        mod = EfficientSelfAttention(8, heads=2, reduction=2, rng=rng)
        with pytest.raises(ContractViolation):
            mod(Tensor(np.zeros((1, 3, 5, 8), dtype=np.float32)))

    @pytest.mark.parametrize("shape", [(1, 16, 8), (1, 4, 4, 6)])
    @pytest.mark.parametrize("build", [EfficientSelfAttention, TransformerBlock])
    def test_rejects_input_that_is_not_a_channel_last_map(self, build, shape):
        mod = build(8, heads=2, reduction=2, rng=np.random.default_rng(18))
        with pytest.raises(ContractViolation, match=re.escape(str(shape))):
            mod(Tensor(np.zeros(shape, dtype=np.float32)))


class TestMixFFN:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(14)
        mod = MixFFN(4, rng)
        _zero_params(mod)
        out = mod(Tensor(np.random.default_rng(15).standard_normal((1, 4, 4, 4)).astype(np.float32)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_shape_preserved(self):
        rng = np.random.default_rng(16)
        mod = MixFFN(16, rng)
        out = mod(Tensor(rng.standard_normal((1, 8, 8, 16)).astype(np.float32)))
        assert out.data.shape == (1, 8, 8, 16)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(17)
        mod = MixFFN(4, rng)
        x = rng.standard_normal((1, 16, 4)).astype(np.float64)
        h = w = 4
        t = x @ mod.fc1.weight.data.T.astype(np.float64) + mod.fc1.bias.data
        m = t.reshape(1, h, w, 16).transpose(0, 3, 1, 2)
        mp = np.pad(m, ((0, 0), (0, 0), (1, 1), (1, 1)))
        conv = np.zeros_like(m)
        for i in range(3):
            for j in range(3):
                conv += mp[:, :, i:i + h, j:j + w] * mod.dw_weight.data[:, i, j].reshape(1, -1, 1, 1)
        conv += mod.dw_bias.data.reshape(1, -1, 1, 1)
        from scipy.special import erf
        act = 0.5 * conv * (1 + erf(conv / np.sqrt(2)))
        tok = act.transpose(0, 2, 3, 1).reshape(1, 16, 16)
        want = tok @ mod.fc2.weight.data.T.astype(np.float64) + mod.fc2.bias.data
        out = mod(Tensor(x.astype(np.float32).reshape(1, h, w, 4)))
        np.testing.assert_allclose(out.data.reshape(1, 16, 4), want, atol=1e-5)


class TestTransformerEncoder:
    def test_stage_shapes_at_64(self):
        rng = np.random.default_rng(19)
        enc = MixTransformerEncoder(1, (4, 8, 12, 16), (1, 1, 1, 1), (1, 2, 2, 4), rng)
        feats = enc(Tensor(rng.standard_normal((1, 1, 64, 64)).astype(np.float32)))
        assert [f.data.shape for f in feats] == [
            (1, 4, 16, 16), (1, 8, 8, 8), (1, 12, 4, 4), (1, 16, 2, 2)]

    def test_indivisible_dims_rejected(self):
        rng = np.random.default_rng(20)
        enc = MixTransformerEncoder(1, (4, 4, 4, 4), (1, 1, 1, 1), (1, 1, 1, 1), rng)
        with pytest.raises(ContractViolation):
            enc(Tensor(np.zeros((1, 1, 48, 64), dtype=np.float32)))

    @pytest.mark.parametrize("bad", ["widths", "depths", "heads"])
    def test_config_lists_that_are_not_four_entries_are_named(self, bad):
        # MixTransformerEncoder(1, 4, 1, 1, rng) raised TypeError from len()
        lists = dict(widths=(4, 4, 4, 4), depths=(1, 1, 1, 1), heads=(1, 1, 1, 1))
        lists[bad] = 4
        with pytest.raises(ContractViolation, match=re.escape(
                f"MixTransformerEncoder: {bad} needs a tuple or list of 4 entries, got 4")):
            MixTransformerEncoder(1, *lists.values(), np.random.default_rng(20))

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        enc = MixTransformerEncoder(1, (4, 4, 8, 8), (1, 1, 1, 1), (1, 1, 2, 2), rng)
        x = rng.standard_normal((3, 1, 32, 32)).astype(np.float32)
        feats = enc(Tensor(x))
        perm = np.array([2, 0, 1])
        feats_p = enc(Tensor(x[perm]))
        for f, fp in zip(feats, feats_p):
            np.testing.assert_allclose(fp.data, f.data[perm], atol=1e-6)


class TestEncoderGradients:
    def test_snake_block_grad_check(self):
        rng = np.random.default_rng(23)
        block = SnakeBlock(2, 2, rng, ratio=2)
        for mod in (block.branch_h, block.branch_v):
            for lvl in mod.pyramid:
                lvl.weight.data = (0.2 * np.random.default_rng(24).standard_normal(
                    lvl.weight.data.shape)).astype(np.float32)
        report = grad_check(block, np.random.default_rng(25).standard_normal((1, 2, 6, 6)),
                            tolerance=1e-3)
        assert report.passed, str(report)

    def test_transformer_block_grad_check(self):
        rng = np.random.default_rng(26)
        block = TransformerBlock(8, heads=2, reduction=2, rng=rng)
        report = grad_check(block, np.random.default_rng(27).standard_normal((1, 4, 4, 8)),
                            tolerance=1e-3)
        assert report.passed, str(report)

    def test_single_stage_transformer_grad_check(self):
        rng = np.random.default_rng(28)
        stage = TransformerStage(1, 4, depth=1, heads=1, reduction=2, first=True, rng=rng)
        report = grad_check(stage,
                            np.random.default_rng(29).standard_normal((1, 1, 8, 8)),
                            tolerance=1e-3)
        assert report.passed, str(report)
