"""Module tree naming, state round-trips, and the SPT1 checkpoint format."""

import ast
import importlib
import inspect
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from serpentseg.attention import ChannelAttention, SpatialAttention, WeightedChannelAttention
from serpentseg.dsconv import SnakeConv2d
from serpentseg.encoders import EfficientSelfAttention
from serpentseg.model import Adam, ModelConfig, tiny_config
from serpentseg.module import (
    CheckpointError,
    Conv2d,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    load_checkpoint,
    save_checkpoint,
)
from serpentseg.tensor import ContractViolation, Tensor, conv2d, layer_norm


class _Net(Module):
    def __init__(self, rng):
        super().__init__()
        self.stem = Conv2d(1, 2, 3, rng=rng)
        self.blocks = Module()
        for i in range(2):
            setattr(self.blocks, str(i), Linear(4, 4, rng=rng))
        self.scale = Parameter(np.ones(2, dtype=np.float32))


def test_parameter_names_are_path_like_and_unique():
    net = _Net(np.random.default_rng(0))
    names = [n for n, _ in net.named_parameters()]
    assert "stem.weight" in names
    assert "blocks.0.weight" in names
    assert "blocks.1.bias" in names
    assert "scale" in names
    assert len(names) == len(set(names))
    # keys follow assignment order: ``scale`` is set after both submodules
    assert names == ["stem.weight", "stem.bias", "blocks.0.weight", "blocks.0.bias",
                     "blocks.1.weight", "blocks.1.bias", "scale"]


_RNG_LAYERS = pytest.mark.parametrize("build", [
    lambda **kw: Conv2d(1, 1, 3, **kw),
    lambda **kw: Linear(2, 2, **kw),
    lambda **kw: ChannelAttention(4, ratio=2, **kw),
    lambda **kw: WeightedChannelAttention(4, ratio=2, **kw),
    lambda **kw: SpatialAttention(**kw),
], ids=["Conv2d", "Linear", "ChannelAttention", "WeightedChannelAttention",
        "SpatialAttention"])


@_RNG_LAYERS
def test_layers_require_an_rng_keyword(build):
    with pytest.raises(TypeError, match="rng"):
        build()
    build(rng=np.random.default_rng(0))


@_RNG_LAYERS
@pytest.mark.parametrize("rng", [None, 0, np.random.RandomState(0)],
                         ids=["None", "int", "RandomState"])
def test_layers_name_an_rng_that_is_not_a_generator(build, rng):
    with pytest.raises(ContractViolation, match="rng must be a np.random.Generator"):
        build(rng=rng)


def test_rng_is_keyword_only():
    with pytest.raises(TypeError):
        Linear(2, 2, np.random.default_rng(0))


def test_children_are_public_attributes_in_order():
    net = _Net(np.random.default_rng(8))
    net._hidden = Linear(2, 2, rng=np.random.default_rng(9))
    assert list(net._modules) == ["stem", "blocks"]
    assert list(net.blocks) == [getattr(net.blocks, "0"), getattr(net.blocks, "1")]
    assert not any(n.startswith("_hidden") for n, _ in net.named_parameters())


def test_module_is_the_one_child_walk():
    # a sequence of modules is numbered attributes, walked by ``Module.__iter__``
    sources = sorted(Path(inspect.getfile(Module)).parent.glob("*.py"))
    assert len(sources) > 5
    walks = []
    for path in sources:
        text = path.read_text()
        assert "ModuleList" not in text, path.name
        walks += [f"{path.stem}.{node.name}" for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.ClassDef)
                  and any(isinstance(f, ast.FunctionDef) and f.name == "__iter__"
                          for f in node.body)]
    assert walks == ["module.Module"], walks


def test_no_knob_that_one_value_uses():
    # every conv is 'same' (padding k // 2), every upsampling doubles, and the
    # layer norm's and Adam's constants and the Mix-Transformer's reduction
    # ratios are module constants: none of them is a parameter or a config
    # field anywhere
    sources = sorted(Path(inspect.getfile(Module)).parent.glob("*.py"))
    assert len(sources) > 5
    callables = []
    for path in sources:
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"serpentseg.{path.stem}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported, checked where it is defined
            if inspect.isclass(obj):
                callables += [f for f in vars(obj).values() if inspect.isfunction(f)]
            elif inspect.isfunction(obj):
                callables.append(obj)
    assert len(callables) > 50 and conv2d in callables and Conv2d.__init__ in callables
    for knob in ("padding", "reductions", "factor"):
        assert [f.__qualname__ for f in callables
                if knob in inspect.signature(f).parameters] == [], knob
    for f in (layer_norm, LayerNorm, Adam):
        assert not {"eps", "betas"} & set(inspect.signature(f).parameters), f
    assert "transformer_reductions" not in {f.name for f in fields(ModelConfig)}
    with pytest.raises(ContractViolation, match="transformer_reductions"):
        tiny_config(transformer_reductions=(8, 4, 2, 1))


def test_every_public_tensor_op_has_a_caller_in_the_package():
    # a reference counts where the name is bound to the op: in tensor.py
    # outside the op's own definition, or where a module imports it from
    # .tensor. ``log`` alone is exempt: bench/spans.py patches it by name,
    # so it goes with the next change to the benchmark (ROADMAP item 4)
    sources = sorted(Path(inspect.getfile(Module)).parent.glob("*.py"))
    tensor = importlib.import_module("serpentseg.tensor")
    public = {name for name, obj in vars(tensor).items()
              if inspect.isfunction(obj) and obj.__module__ == tensor.__name__
              and not name.startswith("_")}
    assert len(public) > 25 and "log" in public
    used = set()
    for path in sources:
        tree = ast.parse(path.read_text())
        if path.stem == "tensor":
            bound = {name: name for name in public}
        else:
            bound = {a.asname or a.name: a.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 1
                     and node.module == "tensor" for a in node.names}
        for top in tree.body:
            owner = top.name if path.stem == "tensor" and isinstance(top, ast.FunctionDef) else None
            used |= {bound[n.id] for n in ast.walk(top)
                     if isinstance(n, ast.Name) and n.id in bound and bound[n.id] != owner}
    assert sorted(public - used) == ["log"]


def test_state_dict_round_trip_preserves_values_and_names():
    net = _Net(np.random.default_rng(1))
    state = net.state_dict()
    other = _Net(np.random.default_rng(2))
    other.load_state_dict(state)
    for name, p in other.named_parameters():
        np.testing.assert_array_equal(p.data, state[name])
    assert sorted(state) == sorted(n for n, _ in other.named_parameters())


def test_load_rejects_shape_mismatch_naming_tensor():
    net = _Net(np.random.default_rng(3))
    state = net.state_dict()
    state["stem.weight"] = np.zeros((2, 1, 5, 5), dtype=np.float32)
    with pytest.raises(ContractViolation, match="stem.weight"):
        net.load_state_dict(state)


def test_load_takes_nested_lists():
    net = _Net(np.random.default_rng(3))
    state = {k: v.tolist() for k, v in _Net(np.random.default_rng(5)).state_dict().items()}
    net.load_state_dict(state)
    for name, p in net.named_parameters():
        assert p.data.dtype == np.float32
        np.testing.assert_array_equal(p.data, np.asarray(state[name], dtype=np.float32))


def test_failed_load_leaves_the_model_unchanged():
    net = _Net(np.random.default_rng(3))
    before = net.state_dict()
    # every value changes, and the bad key is the last in name order
    state = _Net(np.random.default_rng(5)).state_dict()
    state["stem.weight"] = "weights"
    with pytest.raises(ContractViolation, match="stem.weight"):
        net.load_state_dict(state)
    for name, value in net.state_dict().items():
        np.testing.assert_array_equal(value, before[name], err_msg=name)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e39])
def test_load_rejects_nan_or_inf_naming_key_and_changes_nothing(bad):
    # the next forward would otherwise fail in the sampler, naming neither;
    # 1e39 is finite in float64 but not in the parameters' float32
    net = _Net(np.random.default_rng(3))
    before = net.state_dict()
    state = {k: v.astype(np.float64)
             for k, v in _Net(np.random.default_rng(5)).state_dict().items()}
    state["stem.weight"][0, 0, 1, 2] = bad  # the last key in name order
    with pytest.raises(ContractViolation, match="'stem.weight' has NaN or Inf"):
        net.load_state_dict(state)
    for name, value in net.state_dict().items():
        np.testing.assert_array_equal(value, before[name], err_msg=name)


@pytest.mark.parametrize("state", [None, [("scale", np.ones(2))], "scale"])
def test_load_rejects_a_state_that_is_not_a_mapping(state):
    with pytest.raises(ContractViolation, match="state must be a mapping .* got " +
                       type(state).__name__):
        _Net(np.random.default_rng(3)).load_state_dict(state)


@pytest.mark.parametrize("build,named", [
    (lambda rng: Conv2d(0, 4, 3, rng=rng), "Conv2d: cin"),
    (lambda rng: Linear(0, 4, rng=rng), "Linear: cin"),
    (lambda rng: ChannelAttention(4, ratio=0, rng=rng), "ChannelAttention: ratio"),
    (lambda rng: EfficientSelfAttention(4, 0, 1, rng), "EfficientSelfAttention: heads"),
    (lambda rng: SnakeConv2d(0, 4, "horizontal", rng), "SnakeConv2d: cin"),
    (lambda rng: LayerNorm(0), "LayerNorm: c"),
])
def test_zero_size_constructor_argument_raises_naming_it(build, named):
    with pytest.raises(ContractViolation, match=f"{named} must be an int >= 1, got 0"):
        build(np.random.default_rng(0))


def test_load_rejects_missing_keys():
    net = _Net(np.random.default_rng(4))
    state = net.state_dict()
    del state["scale"]
    with pytest.raises(ContractViolation, match="scale"):
        net.load_state_dict(state)


class TestCheckpointFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        state = {
            "b.weight": rng.standard_normal((3, 4)).astype(np.float32),
            "a.bias": rng.standard_normal(7).astype(np.float32),
            "c": np.float32(rng.standard_normal(())).reshape(()),
        }
        path = tmp_path / "model.spt"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert sorted(loaded) == sorted(state)
        for k in state:
            assert loaded[k].dtype == np.float32
            np.testing.assert_array_equal(loaded[k], state[k].astype(np.float32))

    def test_entries_sorted_by_name(self, tmp_path):
        path = tmp_path / "m.spt"
        save_checkpoint(path, {"zz": np.zeros(1, np.float32), "aa": np.ones(1, np.float32)})
        blob = path.read_bytes()
        assert blob[:4] == b"SPT1"
        (count,) = struct.unpack("<I", blob[4:8])
        assert count == 2
        (nlen,) = struct.unpack("<I", blob[8:12])
        assert blob[12:12 + nlen] == b"aa"  # lexicographically first entry leads

    def test_layout_matches_format_spec(self, tmp_path):
        path = tmp_path / "one.spt"
        arr = np.array([[1.5, -2.0]], dtype=np.float32)
        save_checkpoint(path, {"w": arr})
        expected = (
            b"SPT1"
            + struct.pack("<I", 1)
            + struct.pack("<I", 1) + b"w"
            + struct.pack("<I", 2)
            + struct.pack("<II", 1, 2)
            + arr.astype("<f4").tobytes()
        )
        assert path.read_bytes() == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.spt"
        save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-6])
        with pytest.raises(CheckpointError, match="byte"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(65536,) * 4, (2**32 - 1, 2**32 - 1)])
    def test_dims_beyond_int64_report_offset(self, tmp_path, dims):
        # the element count overflows int64, so it must be taken exactly
        path = tmp_path / "huge.spt"
        path.write_bytes(b"SPT1" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
                         + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims))
        values_at = 12 + 1 + 4 + 4 * len(dims)
        with pytest.raises(CheckpointError, match=f"truncated checkpoint at byte {values_at} "):
            load_checkpoint(path)

    def test_bad_utf8_name_reports_offset(self, tmp_path):
        path = tmp_path / "name.spt"
        save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF  # the name starts after magic, count and name length
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="UTF-8 at byte 12"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_reports_offset(self, tmp_path, bad):
        path = tmp_path / "nan.spt"
        save_checkpoint(path, {"w": np.array([1.0, 0.0, 2.0], dtype=np.float32)})
        # values start at 12 + 1 (name) + 4 (rank) + 4 (dim): the second is at 25
        blob = bytearray(path.read_bytes())
        blob[25:29] = struct.pack("<f", bad)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="'w' at byte 25"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_not_saved(self, tmp_path, bad):
        path = tmp_path / "nan.spt"
        state = {"a": np.ones(2, dtype=np.float32),
                 "w": np.array([1.0, bad, 2.0], dtype=np.float32)}
        with pytest.raises(CheckpointError, match="non-finite value in 'w'"):
            save_checkpoint(path, state)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("state,named", [
        (None, "state must be a mapping of names to arrays, got NoneType"),
        ({1: np.ones(2, dtype=np.float32)}, "name 1 is not a str"),
    ])
    def test_unwritable_name_or_value_raises_naming_it(self, tmp_path, state, named):
        with pytest.raises(CheckpointError, match=f"{named}.*nothing written"):
            save_checkpoint(tmp_path / "bad.spt", state)
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "keep.spt"
        save_checkpoint(path, {"w": np.ones(3, dtype=np.float32)})
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": np.zeros(5, dtype=np.float32)})
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["keep.spt"]

    def test_save_load_forward_bit_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        net = _Net(rng)
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        before = net.stem(x).data.copy()
        path = tmp_path / "net.spt"
        save_checkpoint(path, net.state_dict())
        fresh = _Net(np.random.default_rng(99))
        fresh.load_state_dict(load_checkpoint(path))
        after = fresh.stem(x).data
        assert np.array_equal(before, after)


def test_zero_grad_clears():
    net = _Net(np.random.default_rng(7))
    x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
    net.stem(x).sum().backward()
    assert net.stem.weight.grad is not None
    net.zero_grad()
    assert all(p.grad is None for p in net.parameters())
