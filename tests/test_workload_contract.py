"""The calls the benchmark's workloads (``perfbench/workloads.py``) make into
taskgate, made here the same way on tiny sizes.

The benchmark is frozen: a change to the library that renames or drops a
name, keyword or attribute it reads breaks it without any other test
noticing. This file imports nothing from ``perfbench/``.
"""

import numpy as np

from taskgate import bench, checkpoint, data, forgetting, layers, payload, training
from taskgate import tensor as ops
from taskgate.payload import HATPayload


def trainer(cfg):
    return training.TrainerConfig(
        task_count=cfg.tasks, s_max=cfg.s_max, schedule="cosine", init="ones",
        lr=cfg.lr, momentum=cfg.momentum, reg_lambda=cfg.reg_lambda,
        epochs=cfg.epochs, batch_size=cfg.batch_size, seed=cfg.seed)


def logits(model, x, task):
    p = HATPayload(ops.Tensor(x), task=task, scale=None, training=False)
    return model.forward(p).masked_data().data


def test_toy_workload_configs():
    timed = bench.ExperimentConfig(experiment="toy-init", seed=3, repeats=1,
                                   batch_cap=2, theta_hi=1.0, toy_samples=16)
    locking = bench.ExperimentConfig(experiment="toy-init", seed=3, repeats=1,
                                     init="ones", schedule="cosine")
    assert (locking.init, locking.schedule, timed.theta_hi) == ("ones", "cosine", 1.0)
    outcomes = bench.run_toy(timed)
    assert len(outcomes) == 2 * timed.repeats
    for o in outcomes:
        assert (o.batches, o.completed) == (timed.batch_cap, False)
        assert isinstance(o.repeat, int) and isinstance(o.strategy, str)
    assert timed.toy_batch_size >= 1


def test_continual_workload_calls(tmp_path):
    cfg = bench.ExperimentConfig(experiment="continual", seed=1, tasks=2, epochs=1,
                                 train_n=32, test_n=16, dim=4, trunk_width=6)
    text = bench.config_to_text(cfg, exclude=("out",))
    assert "out=" not in text and "seed=1\n" in text
    tasks = data.continual_tasks(cfg.tasks, np.random.default_rng([cfg.seed, 10]),
                                 dim=cfg.dim, separation=cfg.separation,
                                 train_n=cfg.train_n, test_n=cfg.test_n)

    def build():
        model = bench.build_continual_model(np.random.default_rng([cfg.seed, 11]), cfg)
        training.init_embeddings(model.maskers(), "ones",
                                 np.random.default_rng([cfg.seed, 12]))
        return model

    model, scratch = build(), build()
    l1, l2 = [m for _, m, side in layers.walk(model) if side is not None]
    assert l2.weight.on_join.side == layers.InputSide(l1.output_masker, 1)
    head = model.steps[-1].submodules[0].weight
    assert isinstance(head, ops.Tensor) and head.shape == (2, cfg.trunk_width)
    seen = []
    for t, task in enumerate(tasks):
        training.train_task(model, task.train, t, trainer(cfg),
                            on_batch_end=lambda index, _model: seen.append(index))
        assert 0.0 <= training.evaluate(model, task.test, t) <= 1.0
    assert seen[0] == 1
    path = str(tmp_path / "c.ckpt")
    checkpoint.write_entries(path, checkpoint.model_state(model, text))
    checkpoint.load_model_state(scratch, checkpoint.read_entries(path))
    kept = logits(scratch, tasks[1].test[0], 1)
    assert np.array_equal(kept, logits(model, tasks[1].test[0], 1))
    report = forgetting.forget_task(scratch, 0, embedding_init="ones",
                                    rng=np.random.default_rng([cfg.seed, 13]))
    assert report.total > 0
    assert np.array_equal(logits(scratch, tasks[1].test[0], 1), kept)


def test_conv_workload_calls():
    rng = np.random.default_rng([0, 21])
    shape, count = (3, 6, 6), 2
    side = (shape[1] - 1) // 2 + 1
    model = layers.Sequential(
        layers.HATConv2d(shape[0], 2, 3, count, "conv1", rng, padding=1),
        layers.ReLU(),
        layers.HATConv2d(2, 3, 3, count, "conv2", rng, stride=2, padding=1),
        layers.ReLU(),
        lambda x: ops.reshape(x, (x.shape[0], -1)),
        layers.task_indexed_linear(3 * side * side, 2, count, "head", rng),
    )
    training.init_embeddings(model.maskers(), "ones")
    # the benchmark's protection: conv2 reads conv1's channels, and its own
    # flatten feeds a head whose slots read no masker
    conv1, conv2, head = model.steps[0], model.steps[2], model.steps[-1]
    assert conv2.weight.on_join.side == layers.InputSide(conv1.output_masker, 1)
    assert all(leaf.on_join.side == layers.InputSide()
               for sub in head.submodules for leaf in sub.local_parameters())
    cfg = training.TrainerConfig(task_count=count, s_max=400.0, schedule="cosine",
                                 init="ones", lr=0.05, momentum=0.5, reg_lambda=0.075,
                                 epochs=1, batch_size=4, seed=0)
    x = rng.standard_normal((8,) + shape)
    y = rng.permutation(np.arange(8) % 2).astype(np.int64)
    split = data.TaskData(train=(x, y), test=(x, y))
    training.train_task(model, split.train, 0, cfg)
    assert logits(model, x, 0).shape == (8, 2)


def test_traced_names_exist():
    # the tracer times these by name; a missing one reads as zero time
    for owner, name in [
            (ops, "conv2d"), (ops.Tape, "backward"), (ops.Tensor, "_node_tape"),
            (layers, "grad_nullify"), (layers, "grad_compensate"), (layers, "grad_rail"),
            (layers.HATMasker, "apply"), (layers.HATMasker, "clamp_embeddings"),
            (layers.Sequential, "forward"), (payload.HATPayload, "masked_data"),
            (training, "train_task"), (training, "regularizer"), (training, "evaluate"),
            (training.SGD, "step"), (training.SGD, "zero_grad"),
            (forgetting, "forget_task"), (checkpoint, "model_state"),
            (checkpoint, "write_entries"), (checkpoint, "read_entries"),
            (checkpoint, "load_model_state"), (bench, "mask_locked")]:
        assert hasattr(owner, name), (owner, name)
