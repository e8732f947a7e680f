"""The outside-array rule: every public entry point that takes an array-like
refuses a ragged sequence, and a str, complex or object array, through
``tensor.check_array``, with a ``ContractViolation`` naming the argument, or
a ``CheckpointError`` from ``save_checkpoint``, before a numpy warning or
error. The bad values hold only 0s and 1s, so nothing but their dtype or
their raggedness is wrong.

The cast rule: every entry point that casts an outside value to float data
does so through ``tensor.check_float``, so a NaN, an Inf or a value beyond
the float dtype's range is refused with ``ContractViolation`` "<name> of
shape <shape> has NaN or Inf values as <dtype>", or that ``CheckpointError``
with "; nothing written" from ``save_checkpoint``, before a numpy warning.

The dtype rule: a ``Tensor`` holds float32 or float64 data, so bool, int
and float16 data are refused where a tensor is built or its data set, before
any op runs."""

import re

import numpy as np
import pytest

from serpentseg import tensor as T
from serpentseg.encoders import CONV_MODES
from serpentseg.metrics import check_binary, confusion_counts, evaluate_pair, hausdorff
from serpentseg.model import (
    SnakeFormer,
    combined_loss,
    evaluate_model,
    predict_masks,
    predict_probabilities,
    tiny_config,
    train_loop,
)
from serpentseg.module import CheckpointError, Linear, Parameter, save_checkpoint
from serpentseg.tensor import ContractViolation, Tensor

BAD = {
    "ragged": [[0, 1], [0]],
    "str": np.array([["0", "1"], ["1", "0"]]),
    "complex": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "complex64": np.array([[0, 1], [1, 0]], dtype=np.complex64),
    "object": np.array([[0, 1], [1, 0]], dtype=object),
}


def _model() -> SnakeFormer:
    return SnakeFormer(tiny_config())


def _pair():
    return np.zeros((32, 32), dtype=np.float32), np.zeros((32, 32), dtype=np.uint8)


def _load(value):
    layer = Linear(2, 2, rng=np.random.default_rng(0))
    state = layer.state_dict()
    state["weight"] = value
    layer.load_state_dict(state)


def _pairs_with(role: int, value):
    pair = list(_pair())
    pair[role] = value
    return [tuple(pair)]


# entry point -> (call of the bad value, the name the message starts with,
# the error); ``{type}`` stands for the type of the bad value
ENTRIES = {
    "Tensor": (Tensor, "Tensor: data"),
    "Tensor.data": (lambda v: setattr(Tensor(np.zeros(2)), "data", v), "Tensor: data"),
    "Parameter": (Parameter, "Parameter: data"),
    "lift-a": (lambda v: T.sub(v, Tensor(np.zeros((2, 2), dtype=np.float32))),
               "sub: {type} operand"),
    "lift-b": (lambda v: T.div(Tensor(np.ones((2, 2), dtype=np.float32)), v),
               "div: {type} operand"),
    "combined_loss": (lambda v: combined_loss(Tensor(np.zeros((1, 2, 2, 2))), [v]),
                      "target mask"),
    "predict_probabilities": (lambda v: predict_probabilities(_model(), v), "images"),
    "predict_masks": (lambda v: predict_masks(_model(), v), "images"),
    "evaluate_model-image": (lambda v: evaluate_model(_model(), _pairs_with(0, v)),
                             "evaluate_model: image of pair 0"),
    "evaluate_model-mask": (lambda v: evaluate_model(_model(), _pairs_with(1, v)),
                            "evaluate_model: mask of pair 0"),
    "train_loop-image": (lambda v: train_loop(_model(), _pairs_with(0, v), [_pair()], 1, 1),
                         "train_loop: train_pairs: image of pair 0"),
    "train_loop-mask": (lambda v: train_loop(_model(), [_pair()], _pairs_with(1, v), 1, 1),
                        "train_loop: val_pairs: mask of pair 0"),
    **{f"{fn.__name__}-{role}": (
        lambda v, fn=fn, role=role: fn(*(v if r == role else np.zeros((2, 2)) for r in "pg")),
        f"{'pred' if role == 'p' else 'gt'} mask")
       for fn in (evaluate_pair, confusion_counts, hausdorff) for role in "pg"},
    "check_binary": (lambda v: check_binary("mask", v), "mask"),
    "load_state_dict": (_load, "'weight'"),
    "save_checkpoint": (lambda v: save_checkpoint("bad.npz", {"a": np.ones(2), "w": v}), "'w'",
                        CheckpointError),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_entry_point_refuses_a_value_that_is_not_a_numeric_array(entry, bad, tmp_path,
                                                                 monkeypatch):
    call, named, *error = ENTRIES[entry]
    error = error[0] if error else ContractViolation
    value = BAD[bad]
    named = named.format(type=type(value).__name__)
    if bad == "ragged":
        words = f"{named} is a ragged sequence, not an array"
    else:
        words = f"{named} must be a bool, int or float array, got {value.dtype}"
    if error is CheckpointError:
        words += "; nothing written"
    monkeypatch.chdir(tmp_path)  # the call writes nothing
    with pytest.raises(error, match=f"^{re.escape(words)}$"):
        call(value)
    assert list(tmp_path.iterdir()) == []


NOT_FINITE = {
    "nan": np.array([[0, np.nan], [1, 0]], dtype=np.float32),
    "inf": np.array([[0, np.inf], [1, 0]], dtype=np.float32),
    "-inf": np.array([[0, -np.inf], [1, 0]], dtype=np.float32),
    "beyond-float32": np.array([[0, 1e39], [1, 0]]),  # finite as float64, Inf as float32
}


def _forward(value):
    # a forward takes a tensor of the parameters' dtype, so the caller casts
    with np.errstate(over="ignore"):
        _model()(Tensor(value.astype(np.float32).reshape(1, 1, 2, 2)))


# the entry points that cast a value to float32 data: (call, the name the
# message starts with, the error)
CASTS = {name: ENTRIES[name] for name in (
    "Parameter", "lift-a", "lift-b", "predict_probabilities", "predict_masks",
    "evaluate_model-image", "train_loop-image", "load_state_dict", "save_checkpoint")}
CASTS["SnakeFormer"] = (_forward, "image")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", list(NOT_FINITE))
@pytest.mark.parametrize("entry", list(CASTS))
def test_entry_point_refuses_a_value_that_is_not_finite_as_float32(entry, bad, tmp_path,
                                                                  monkeypatch):
    call, named, *error = CASTS[entry]
    error = error[0] if error else ContractViolation
    value = NOT_FINITE[bad]
    shape = (1, 1, 2, 2) if entry == "SnakeFormer" else value.shape
    words = (f"{named.format(type=type(value).__name__)} of shape {shape} has NaN or Inf "
             f"values as float32")
    if error is CheckpointError:
        words += "; nothing written"
    monkeypatch.chdir(tmp_path)  # the call writes nothing
    with pytest.raises(error, match=f"^{re.escape(words)}$"):
        call(value)
    assert list(tmp_path.iterdir()) == []


NOT_FLOAT = (bool, np.uint8, np.int32, np.int64, np.float16)


def _not_float(dtype) -> str:
    return f"^Tensor: data must be float32 or float64, got {np.dtype(dtype)}$"


@pytest.mark.parametrize("dtype", NOT_FLOAT, ids=lambda d: np.dtype(d).name)
def test_tensor_data_that_is_not_float32_or_float64_rejected(dtype):
    # bool data made neg and sub raise numpy's TypeError, and int data made
    # gelu round and mul lift 0.5 to 0; a failed assignment keeps the old data
    value = np.zeros((2, 2), dtype=dtype)
    with pytest.raises(ContractViolation, match=_not_float(dtype)):
        Tensor(value)
    t = Tensor(np.ones((2, 2)))
    old = t.data
    with pytest.raises(ContractViolation, match=_not_float(dtype)):
        t.data = value
    assert t.data is old
    assert Parameter(value).data.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.int64, np.float16])
@pytest.mark.parametrize("conv_mode", CONV_MODES)
def test_image_that_is_not_float32_or_float64_rejected(monkeypatch, conv_mode, dtype):
    # vanilla returned float64 logits for an int64 image, while dsconv and
    # enhanced raised naming grid_sample_points
    model = SnakeFormer(tiny_config(conv_mode=conv_mode))
    monkeypatch.setattr(model, "forward", lambda x: pytest.fail("forward ran"))
    with pytest.raises(ContractViolation, match=_not_float(dtype)):
        model(Tensor(np.zeros((1, 1, 32, 32), dtype=dtype)))


@pytest.mark.parametrize("f_dtype,p_dtype", [(np.float32, np.int64), (np.float64, np.int32),
                                             (np.int32, np.float32)])
def test_integer_feature_or_points_rejected(f_dtype, p_dtype):
    # grid_sample_points refused them itself, naming both dtypes
    bad = f_dtype if np.dtype(f_dtype).kind == "i" else p_dtype
    with pytest.raises(ContractViolation, match=_not_float(bad)):
        T.grid_sample_points(Tensor(np.zeros((1, 1, 4, 4), dtype=f_dtype)),
                             Tensor(np.ones((1, 3, 2), dtype=p_dtype)))


def test_float16_map_raises_naming_the_dtypes():
    # conv2d ran float16, and upsample_bilinear's sampler refused it naming its dtypes
    with pytest.raises(ContractViolation, match=_not_float(np.float16)):
        T.upsample_bilinear(Tensor(np.zeros((1, 1, 2, 2), dtype=np.float16)))
