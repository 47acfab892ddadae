"""
A tour of the reverse-mode core: tensors, the tape, and gradient hooks.

Run with:  python3 demos/autodiff_basics.py
"""

import numpy as np

from taskgate import Tape, Tensor
from taskgate import tensor as ops

# ---------------------------------------------------------------------------
# 1. Recording and differentiating a computation
#
# Operations only build a graph while a Tape is active. Leaves that should
# receive gradients are marked requires_grad=True.

w = Tensor(np.array([[0.5, -1.0], [2.0, 0.0]]), requires_grad=True)
x = Tensor(np.array([[1.0], [3.0]]))

with Tape() as tape:
    y = ops.matmul(w, x)          # shape (2, 1)
    loss = ops.reduce_sum(ops.mul(y, y))

tape.backward(loss)
print("loss:", loss.item())
print("dloss/dw:\n", w.grad)

# The analytic gradient of sum((Wx)^2) is 2 (Wx) x^T — check by hand:
expected = 2.0 * (w.data @ x.data) @ x.data.T
print("matches 2(Wx)x^T:", np.allclose(w.grad, expected))

# ---------------------------------------------------------------------------
# 2. A quick numerical sanity check
#
# Central differences on one entry of w. Perturb, re-run, restore.

h = 1e-6
orig = w.data[0, 0]
w.data[0, 0] = orig + h
f_plus = float(ops.reduce_sum(ops.mul(ops.matmul(w, x), ops.matmul(w, x))).data)
w.data[0, 0] = orig - h
f_minus = float(ops.reduce_sum(ops.mul(ops.matmul(w, x), ops.matmul(w, x))).data)
w.data[0, 0] = orig
numeric = (f_plus - f_minus) / (2 * h)
print(f"numeric d/dw[0,0] = {numeric:.6f}, analytic = {w.grad[0, 0]:.6f}")

# ---------------------------------------------------------------------------
# 3. Gradient hooks
#
# A hook transforms the gradient flowing into a tensor during backward().
# Completed tasks are protected with them: nullification is a hook on the
# weights of every gated layer and shared Linear or LayerNorm, and
# compensation is a hook on the training task's embedding row.

w.grad = None
with Tape() as tape:
    y = ops.matmul(w, x)
    handle = y.register_hook(lambda g: g * 0.0)   # block everything upstream
    loss = ops.reduce_sum(ops.mul(y, y))
tape.backward(loss)
print("hooked gradient is zero:", not w.grad.any())

# Hooks can be removed; afterwards gradients flow normally again.
w.grad = None
with Tape() as tape:
    y = ops.matmul(w, x)
    handle = y.register_hook(lambda g: g * 0.0)
    handle.remove()
    loss = ops.reduce_sum(ops.mul(y, y))
tape.backward(loss)
print("after removal, gradient flows:", bool(w.grad.any()))
