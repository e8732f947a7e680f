"""The drivers of ``ops.OPS`` that no older test module holds: the gradient
check of every row that asks for one, and the guard that every public op
has a row."""

import inspect

import numpy as np
import pytest

from gradcheck import FunctionModule, grad_check
from ops import OPS
from serpentseg import dsconv, tensor

# helpers that take no tensor operand, or a context manager: not ops
EXEMPT = {"no_grad", "check_array", "check_float", "check_int", "check_entries", "check_map"}


@pytest.mark.parametrize("op_id", [op_id for op_id, row in OPS.items() if row.grad])
def test_gradients_match_finite_differences(op_id):
    row = OPS[op_id]
    report = grad_check(FunctionModule(row.call), row.operands(np.random.default_rng(0)))
    assert report.passed, str(report)


def test_every_public_op_has_a_row():
    public = {name for mod in (tensor, dsconv) for name, obj in vars(mod).items()
              if inspect.isfunction(obj) and obj.__module__ == mod.__name__
              and not name.startswith("_")}
    assert {"conv2d", "chain_contract"} | EXEMPT <= public
    assert sorted(public - EXEMPT - {op_id.split("-")[0] for op_id in OPS}) == []
