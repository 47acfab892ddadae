"""Small gated models of every shape the public API builds, for the tests.

* flat: HATLinear -> ReLU -> HATLinear -> ReLU -> per-task head
* nested: a trunk of three HATLinear with the middle one inside a nested
  Sequential
* conv: HATConv2d -> ReLU -> Flatten -> HATLinear -> ReLU -> per-task head
* linear_first: a shared Linear -> ReLU -> HATLinear -> ReLU -> per-task head
* shared_head: HATLinear -> ReLU -> HATLinear -> ReLU -> a shared Linear head
* user_module: HATLinear -> ReLU -> Rescale, a module of the user's own ->
  HATLinear -> ReLU -> per-task head
"""

import numpy as np

import taskgate as tg
from taskgate import E_MAX, Flatten, HATConv2d, HATLinear, LayerNorm, Linear, ReLU, Sequential
from taskgate.layers import walk

IMAGE = (2, 4, 4)  # channels, height, width of the conv model's inputs


def flat_model(rng, task_count):
    return Sequential(
        HATLinear(4, 6, task_count, "l1", rng),
        ReLU(),
        HATLinear(6, 5, task_count, "l2", rng),
        ReLU(),
        tg.task_indexed_linear(5, 2, task_count, "head", rng),
    )


def nested_model(rng, task_count):
    return Sequential(
        HATLinear(4, 6, task_count, "l1", rng),
        ReLU(),
        Sequential(HATLinear(6, 5, task_count, "l2", rng), ReLU()),
        HATLinear(5, 4, task_count, "l3", rng),
        ReLU(),
        tg.task_indexed_linear(4, 2, task_count, "head", rng),
    )


def conv_model(rng, task_count):
    channels, height, width = IMAGE
    return Sequential(
        HATConv2d(channels, 3, 3, task_count, "c1", rng, padding=1),
        ReLU(),
        Flatten(),
        HATLinear(3 * height * width, 5, task_count, "fc", rng),
        ReLU(),
        tg.task_indexed_linear(5, 2, task_count, "head", rng),
    )


def linear_first_model(rng, task_count):
    return Sequential(
        Linear(4, 6, rng),
        ReLU(),
        HATLinear(6, 5, task_count, "l1", rng),
        ReLU(),
        tg.task_indexed_linear(5, 2, task_count, "head", rng),
    )


def shared_head_model(rng, task_count):
    return Sequential(
        HATLinear(4, 6, task_count, "l1", rng),
        ReLU(),
        HATLinear(6, 5, task_count, "l2", rng),
        ReLU(),
        Linear(5, 2, rng),
    )


class Rescale(tg.layers.Module):
    """A module of the user's own: a trainable gain on each feature."""

    _leaf_names = ("gain",)

    def __init__(self, n):
        self.gain = tg.Tensor(np.ones(n), requires_grad=True)

    def forward(self, x):
        return tg.mul(x, self.gain)


def user_module_model(rng, task_count):
    return Sequential(
        HATLinear(4, 6, task_count, "l1", rng),
        ReLU(),
        Rescale(6),
        HATLinear(6, 5, task_count, "l2", rng),
        ReLU(),
        tg.task_indexed_linear(5, 2, task_count, "head", rng),
    )


BUILDERS = {"flat": flat_model, "nested": nested_model, "conv": conv_model,
            "linear_first": linear_first_model, "shared_head": shared_head_model,
            "user_module": user_module_model}


def inputs(kind, n, rng):
    shape = IMAGE if kind == "conv" else (4,)
    return rng.standard_normal((n,) + shape)


def gated_layers(model):
    return [layer for _, layer, side in walk(model) if side is not None]


def shared_modules(model):
    """The Linear, LayerNorm and Rescale modules every task trains (none of
    them inside a task-indexed module)."""
    return [m for _, m, _ in walk(model) if isinstance(m, (Linear, LayerNorm, Rescale))]


def set_binary_row(masker, task, on_units):
    """Drive a task's embedding row to the exact-binary saturation points."""
    row = masker.embedding_rows[task].data
    row[...] = -E_MAX
    row[list(on_units)] = E_MAX


def logits(model, x, task):
    out = model.forward(tg.HATPayload(tg.Tensor(x), task=task))
    return out.masked_data().data.copy()


def sgd_steps(model, x, y, task, steps=25, lr=0.2, scale=30.0, training=True):
    """Plain gradient descent on everything `task` may move, in a loop of
    its own: no ``train_task``, and ``training`` set as given."""
    params = model.task_parameters(task)
    for _ in range(steps):
        with tg.Tape() as tape:
            out = model.forward(tg.HATPayload(tg.Tensor(x), task=task,
                                              scale=scale, training=training))
            loss = tg.softmax_cross_entropy(out.masked_data(), y)
        tape.backward(loss)
        for p in params:
            if p.grad is not None:
                p.data -= lr * p.grad
                p.grad = None


def claim_binary(model, task, rng):
    """Give `task` an exactly binary mask over about half of each layer's
    units (at least one), then finalize it everywhere."""
    for masker in model.maskers():
        n = masker.n_features
        units = rng.choice(n, size=max(1, n // 2), replace=False)
        set_binary_row(masker, task, units)
        masker.finalize_task(task)
        assert set(np.unique(masker.cumulative_mask)) <= {0.0, 1.0}
