"""Property test: random train / forget / retrain sequences never move a
protected parameter.

Training is ``train_task`` or a few steps of a hand-written loop on raw
tapes, with or without the payload's ``training`` flag. Before each, every
weight or bias entry whose nullify factor is exactly 0 must come out of it
bit-identical, and no operation may touch the per-task head of a task it is
not about.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskgate import TrainerConfig, forget_task, grad_nullify, train_task
from taskgate.layers import walk

from gated_models import BUILDERS, gated_layers, inputs, sgd_steps

TASKS = 3
CFG = TrainerConfig(task_count=TASKS, epochs=1, batch_size=8, lr=0.1,
                    momentum=0.5, reg_lambda=0.075)


def frozen_entries(model):
    """(tensor, boolean selection of entries whose nullify factor is 0)."""
    out = []
    for _, layer, side in walk(model):
        if side is None:
            continue
        a_out = layer.output_masker.cumulative_mask
        a_in = (None if side.masker is None
                else side.expand(side.masker.cumulative_mask))
        ones = np.ones(layer.weight.shape)
        out.append((layer.weight, grad_nullify(ones, a_out, a_in) == 0.0))
        out.append((layer.bias, grad_nullify(np.ones(layer.bias.shape), a_out) == 0.0))
    return out


def head_parameters(model, task):
    head = model.steps[-1]
    return [p for t, sub in enumerate(head.submodules) if t != task
            for p in sub.local_parameters()]


def completed(model):
    return set.intersection(*(set(m.completed_tasks()) for m in model.maskers()))


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(BUILDERS)), seed=st.integers(0, 2**16),
       data=st.data())
def test_protected_entries_never_move(kind, seed, data):
    rng = np.random.default_rng(seed)
    model = BUILDERS[kind](rng, TASKS)
    for layer in gated_layers(model):
        layer.bias.data[...] = rng.standard_normal(layer.bias.shape)
    datasets = [(inputs(kind, 16, rng), rng.integers(0, 2, 16))
                for _ in range(TASKS)]

    for _ in range(data.draw(st.integers(1, 5), label="operations")):
        done = completed(model)
        choices = ([(op, t) for t in range(TASKS) if t not in done
                    for op in ("train", "step")]
                   + [("forget", t) for t in sorted(done)])
        op, task = data.draw(st.sampled_from(choices), label="operation")
        heads = [(p, p.data.copy()) for p in head_parameters(model, task)]
        if op == "forget":
            forget_task(model, task)
        else:
            frozen = [(t, sel, t.data.copy()) for t, sel in frozen_entries(model)]
            if op == "train":
                train_task(model, datasets[task], task, CFG)
            else:
                training = data.draw(st.booleans(), label="training")
                sgd_steps(model, *datasets[task], task, steps=3, training=training)
            for tensor, sel, before in frozen:
                assert np.array_equal(tensor.data[sel], before[sel])
        for param, before in heads:
            assert np.array_equal(param.data, before)
