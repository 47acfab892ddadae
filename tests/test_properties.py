"""Property test: random train / forget / retrain sequences never change a
completed task by a single bit.

Embedding rows start as all ones or as standard-normal draws, and a
forgotten slot is reset the same way, so the masks ``train_task`` finalizes
need not be exactly binary. Training is ``train_task`` or a few steps of a
hand-written loop on raw tapes, with or without the payload's ``training``
flag. Across each operation, every task completed both before and after it
keeps the bytes of its test-set logits, every entry ``held_entries`` names
stays bit-identical (all of a shared module's entries, once any task is
complete), and no operation touches the per-task head of a task it is not
about.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taskgate import TrainerConfig, forget_task, init_embeddings, train_task
from taskgate.layers import EMBEDDING_INITS, Module, held_entries, walk

from gated_models import BUILDERS, gated_layers, inputs, logits, sgd_steps, shared_modules

TASKS = 3
CFG = TrainerConfig(task_count=TASKS, epochs=1, batch_size=8, lr=0.1,
                    momentum=0.5, reg_lambda=0.075)


def head_parameters(model, task):
    head = model.steps[-1]
    return [p for t, sub in enumerate(getattr(head, "submodules", [])) if t != task
            for p in sub.local_parameters()]


def completed(model):
    return set.intersection(*(set(m.completed_tasks()) for m in model.maskers()))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(BUILDERS)), seed=st.integers(0, 2**16),
       init=st.sampled_from(EMBEDDING_INITS), data=st.data())
def test_protected_entries_never_move(kind, seed, init, data):
    rng = np.random.default_rng(seed)
    model = BUILDERS[kind](rng, TASKS)
    init_embeddings(model.maskers(), init, rng)
    for layer in gated_layers(model):
        layer.bias.data[...] = rng.standard_normal(layer.bias.shape)
    datasets = [(inputs(kind, 16, rng), rng.integers(0, 2, 16))
                for _ in range(TASKS)]
    tests = [inputs(kind, 12, rng) for _ in range(TASKS)]

    for _ in range(data.draw(st.integers(1, 6), label="operations")):
        done = completed(model)
        choices = ([(op, t) for t in range(TASKS) if t not in done
                    for op in ("train", "step")]
                   + [("forget", t) for t in sorted(done)])
        op, task = data.draw(st.sampled_from(choices), label="operation")
        heads = [(p, p.data.copy()) for p in head_parameters(model, task)]
        outputs = {t: logits(model, tests[t], t) for t in done}
        if op == "forget":
            forget_task(model, task, init, rng)
        else:
            frozen = [(t, sel, t.data.copy()) for _, m, _ in walk(model)
                      if isinstance(m, Module) for t, sel in held_entries(m)]
            if any(m.completed_tasks() for m in model.maskers()):
                held = {t: sel for t, sel, _ in frozen}
                assert all(held[p].all() for m in shared_modules(model)
                           for p in m.local_parameters())
            if op == "train":
                train_task(model, datasets[task], task, CFG)
            else:
                training = data.draw(st.booleans(), label="training")
                sgd_steps(model, *datasets[task], task, steps=3, training=training)
            for tensor, sel, before in frozen:
                assert np.array_equal(tensor.data[sel], before[sel])
        for param, before in heads:
            assert np.array_equal(param.data, before)
        for t in sorted(done & completed(model)):
            assert logits(model, tests[t], t).tobytes() == outputs[t].tobytes(), \
                f"task {t}'s logits moved across {op} of task {task}"
