"""The outside-array rule: every public entry point that takes an array-like
refuses a ragged sequence, and a str, complex or object array, through
``tensor.check_array``, with a ``ContractViolation`` naming the argument, or
a ``CheckpointError`` from ``save_checkpoint``, before a numpy warning or
error. The bad values hold only 0s and 1s, so nothing but their dtype or
their raggedness is wrong."""

import re

import numpy as np
import pytest

from serpentseg import tensor as T
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
    "save_checkpoint": (lambda v: save_checkpoint("bad.spt", {"a": np.ones(2), "w": v}), "'w'",
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
