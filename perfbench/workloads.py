"""The benchmark's three workloads, driven through taskgate's public API.

A workload is built from a seed (its inputs are a pure function of it) and
then runs iterations; every iteration repeats the same work on the same
inputs. Work inside `Iteration.timed` is timed; the correctness checks run
between timed segments, under `self.untraced` (which the traced run points
at the tracer's pause), and are never timed or traced.

* toy: `bench.run_toy` at a fixed repeat count. Tiny arrays, so the cost is
  interpreter and tape overhead.
* continual: the command line's default continual experiment, then a
  checkpoint save and one reload + forget + re-evaluation round per task.
* conv: image-shaped tasks through two gated convolutions; kernel arithmetic
  dominates.
"""

import math
import os
import statistics
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from taskgate import bench, checkpoint, data, forgetting, layers, training
from taskgate import tensor as ops
from taskgate.payload import HATPayload

from machine import conv_reference, interpreter_reference, mlp_reference

clock = time.perf_counter

FORGOTTEN_ACC_MAX = 0.60

# nominal times of the reference jobs (see machine.Reference)
TOY_REF_S = 7.6e-3
CONTINUAL_REF_S = 7.6e-3
CONV_REF_S = 11.3e-3


class Checks:
    """Correctness checks attempted and failed; fail_ratio is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Iteration:
    """Timed segments of one iteration, plus what the workload counted.

    A segment sits between two runs of the workload's reference job (see
    machine.py) and may be split into laps with `lap`. `wall` holds the
    measured seconds per lap name; `seconds` holds them rescaled by the
    reference's nominal / measured time, and `scale` is the factor of the
    last segment, for anything the workload timed inside it.
    """

    def __init__(self, reference):
        self.reference = reference
        self.seconds = {}
        self.wall = {}
        self.elapsed = 0.0

    @contextmanager
    def timed(self, segment):
        before = self.reference()
        self._laps = []
        self._lap, self._excluded, self._start = segment, 0.0, clock()
        try:
            yield
        finally:
            self.lap(None)
            self.scale = 2 * self.reference.nominal_s / (before + self.reference())
            for name, raw in self._laps:
                self.wall[name] = self.wall.get(name, 0.0) + raw
                self.seconds[name] = self.seconds.get(name, 0.0) + raw * self.scale

    def lap(self, name):
        """End the current lap of a segment and start one called `name`."""
        now = clock()
        self._laps.append((self._lap, now - self._start - self._excluded))
        self._lap, self._excluded, self._start = name, 0.0, now

    @contextmanager
    def untimed(self):
        """Leave a block inside a segment (a correctness check) untimed."""
        start = clock()
        try:
            yield
        finally:
            self._excluded += clock() - start

    @property
    def run_s(self):
        return sum(self.seconds.values())


def p90(values):
    """90th percentile, inside the range of the values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Toy:
    """`bench.run_toy` at a fixed repeat count, both strategies.

    Lock-in ends a training run early at a seed-dependent batch (gaussian
    init locked within 1-1350 batches on 12 of 30 sampled repeat seeds;
    ones + cosine missed the 2000-batch cap on 2 of 300), so the run time of
    the experiment as published swings twofold from seed to seed. The timed
    experiment therefore raises the lock threshold to 1.0, which no sigmoid
    mask exceeds: every run trains exactly `batch_cap` batches and the lock
    test still runs after every batch. Lock-in itself is checked once per
    run, untimed, at the published thresholds.
    """

    name = "toy"
    repeats = 2
    batch_cap = 250
    # the toy's time is interpreter overhead: its per-iteration time follows
    # this pure-Python job about 1:1 across slowdowns, but a tiny-numpy job
    # only 0.6:1 (see README)
    reference = interpreter_reference(12_000, nominal_s=TOY_REF_S)

    def __init__(self, seed, tiny=False, workdir=None, fault=False):
        self.untraced = nullcontext
        self.data_s = 0.0  # the toy's data is generated inside run_toy
        cap = 100 if tiny else self.batch_cap
        self.cfg = bench.ExperimentConfig(experiment="toy-init", seed=seed,
                                          repeats=self.repeats, batch_cap=cap,
                                          theta_hi=1.0)
        self.lock_cfg = bench.ExperimentConfig(
            experiment="toy-init", seed=seed, repeats=self.repeats,
            init="ones", schedule="cosine")

    def iterate(self, it, checks):
        with it.timed("run"):
            outcomes = bench.run_toy(self.cfg)
        with self.untraced():
            cap = self.cfg.batch_cap
            it.batches = sum(o.batches for o in outcomes)
            it.samples = it.batches * self.cfg.toy_batch_size
            checks.expect(len(outcomes) == 2 * self.repeats,
                          f"{len(outcomes)} toy outcomes, expected "
                          f"{2 * self.repeats}")
            for o in outcomes:
                checks.expect(o.batches == cap and not o.completed,
                              f"toy repeat {o.repeat} {o.strategy} stopped "
                              f"at batch {o.batches}, expected the cap {cap}")

    def finish(self, checks):
        """Check, untimed, that ones + cosine locks in on some repeat."""
        outcomes = bench.run_toy(self.lock_cfg)
        checks.expect(any(o.completed for o in outcomes),
                      "ones_cosine locked in on no repeat")
        return {"ones_cosine_locked": sum(o.completed for o in outcomes),
                "ones_cosine_batches": [o.batches for o in outcomes]}

    def metrics(self, iters):
        return {
            "run_s": statistics.median(it.seconds["run"] for it in iters),
            "train_samples_per_s": statistics.median(
                it.samples / it.seconds["run"] for it in iters),
            "batch_ms_p50": statistics.median(
                it.seconds["run"] / it.batches * 1e3 for it in iters),
        }, {"batch_ms_basis": "run_toy wall / batches per iteration (batches "
                              "are not observable without tracing)",
            "batches_per_iteration": iters[0].batches,
            "run_s_wall": statistics.median(it.wall["run"] for it in iters)}


class TaskSequence:
    """Tasks trained in order, then saved and forgotten.

    One iteration: train every task and, as `bench.run_continual` does,
    evaluate every task trained so far after it (checking, untimed, that
    every earlier task's test logits are bit-identical); save a checkpoint
    (checking a reload reproduces the logits); then per task: read the
    checkpoint, load it, forget the task and evaluate every task (checking
    the other tasks' logits are bit-identical and the forgotten one is near
    chance).
    """

    def __init__(self, seed, tiny=False, workdir=".", fault=False):
        self.untraced = nullcontext
        self.seed = seed
        self.fault = fault
        start = clock()
        self.tasks = self.make_tasks(seed, tiny)
        self.data_s = clock() - start
        self.scratch = self.build()
        self.path = os.path.join(workdir, f"{self.name}-{os.getpid()}.ckpt")

    def logits(self, model, task):
        x = self.tasks[task].test[0]
        payload = HATPayload(ops.Tensor(x), task=task, scale=None,
                             training=False)
        return model.forward(payload).masked_data().data

    def iterate(self, it, checks):
        with self.untraced():
            model = self.build()
        stamps = []

        def on_batch_end(index, _model):
            stamps.append((index, clock()))

        it.intervals = []
        it.eval_samples = 0
        done = []
        for t, task in enumerate(self.tasks):
            stamps.clear()
            with it.timed("train"):
                training.train_task(model, task.train, t, self.trainer,
                                    on_batch_end=on_batch_end)
                it.lap("eval")
                accs = [training.evaluate(model, self.tasks[d].test, d)
                        for d in range(t + 1)]
            it.eval_samples += sum(len(self.tasks[d].test[0])
                                   for d in range(t + 1))
            per_epoch = math.ceil(len(task.train[0]) / self.trainer.batch_size)
            it.intervals += [(b - a) * 1e3 * it.scale for (_, a), (i, b)
                             in zip(stamps, stamps[1:]) if (i - 1) % per_epoch]
            with self.untraced():
                if self.fault and t == 1:
                    model.steps[-1].submodules[0].weight.data[0, 0] += 1e-3
                for d in range(t):
                    checks.expect(np.array_equal(self.logits(model, d), done[d]),
                                  f"task {d} logits drifted while task {t} "
                                  f"trained")
                done.append(self.logits(model, t))
        it.samples = self.trainer.epochs * sum(len(t.train[0]) for t in self.tasks)
        it.final_acc = statistics.fmean(accs)

        rounds = []
        with it.timed("checkpoint"):
            checkpoint.write_entries(self.path, checkpoint.model_state(
                model, self.config_text))
            with it.untimed(), self.untraced():
                final = [self.logits(model, t) for t in range(len(self.tasks))]
                checkpoint.load_model_state(self.scratch,
                                            checkpoint.read_entries(self.path))
                checks.expect(all(np.array_equal(self.logits(self.scratch, t),
                                                 final[t])
                                  for t in range(len(self.tasks))),
                              "checkpoint round trip changed the logits")
            for gone in range(len(self.tasks)):
                start = clock()
                checkpoint.load_model_state(self.scratch,
                                            checkpoint.read_entries(self.path))
                forgetting.forget_task(self.scratch, gone,
                                       embedding_init="ones",
                                       rng=np.random.default_rng([self.seed, 13]))
                accs = [training.evaluate(self.scratch, task.test, t)
                        for t, task in enumerate(self.tasks)]
                rounds.append(clock() - start)
                with it.untimed(), self.untraced():
                    checks.expect(accs[gone] <= FORGOTTEN_ACC_MAX,
                                  f"forgotten task {gone} still scores "
                                  f"{accs[gone]:.4f}")
                    for t in range(len(self.tasks)):
                        if t != gone:
                            checks.expect(
                                np.array_equal(self.logits(self.scratch, t),
                                               final[t]),
                                f"forgetting task {gone} changed task {t}'s "
                                f"logits")
        it.forget_ms = [s * 1e3 * it.scale for s in rounds]

    def finish(self, checks):
        """Remove the checkpoint; every check already ran per iteration."""
        if os.path.exists(self.path):
            os.remove(self.path)
        return {}

    def metrics(self, iters):
        intervals = [ms for it in iters for ms in it.intervals]
        rounds = [ms for it in iters for ms in it.forget_ms]
        return {
            "run_s": statistics.median(it.run_s for it in iters),
            "train_samples_per_s": statistics.median(
                it.samples / it.seconds["train"] for it in iters),
            "batch_ms_p50": statistics.median(intervals),
        }, {"batch_ms_basis": "interval between on_batch_end calls within an "
                              "epoch",
            "batch_ms_samples": len(intervals),
            "batch_ms_p90": p90(intervals),
            "eval_samples_per_s": statistics.median(
                it.eval_samples / it.seconds["eval"] for it in iters),
            "forget_ms_p50": statistics.median(rounds),
            "forget_rounds": len(rounds),
            "final_acc_mean": iters[-1].final_acc,
            "run_s_wall": statistics.median(sum(it.wall.values()) for it in iters)}


class Continual(TaskSequence):
    """The command line's default continual experiment (`run_continual`)."""

    name = "continual"
    reference = mlp_reference(64, (16, 48, 48, 2), steps=100,
                              nominal_s=CONTINUAL_REF_S)

    def make_tasks(self, seed, tiny):
        small = dict(tasks=2, epochs=1, train_n=128, test_n=64) if tiny else {}
        cfg = self.cfg = bench.ExperimentConfig(experiment="continual",
                                                seed=seed, **small)
        self.trainer = training.TrainerConfig(
            task_count=cfg.tasks, s_max=cfg.s_max, schedule="cosine",
            init="ones", lr=cfg.lr, momentum=cfg.momentum,
            reg_lambda=cfg.reg_lambda, epochs=cfg.epochs,
            batch_size=cfg.batch_size, seed=cfg.seed)
        self.config_text = bench.config_to_text(cfg, exclude=("out",))
        return data.continual_tasks(
            cfg.tasks, np.random.default_rng([cfg.seed, 10]), dim=cfg.dim,
            separation=cfg.separation, train_n=cfg.train_n, test_n=cfg.test_n)

    def build(self):
        model = bench.build_continual_model(
            np.random.default_rng([self.cfg.seed, 11]), self.cfg)
        training.init_embeddings(model.maskers(), "ones",
                                 np.random.default_rng([self.cfg.seed, 12]))
        return model


def flatten(x):
    return ops.reshape(x, (x.shape[0], -1))


class Conv(TaskSequence):
    """Two-class image tasks through conv -> conv(stride 2) -> per-task head.

    The head is task-indexed because conv -> flatten -> HATLinear is not
    supported yet (its nullify hook cannot broadcast a per-channel input
    mask over flattened features).
    """

    name = "conv"
    reference = conv_reference(32, 8, 16, 12, reps=2, nominal_s=CONV_REF_S)
    shape = (3, 12, 12)
    signal = 0.15  # template amplitude against unit noise

    def make_tasks(self, seed, tiny):
        self.task_count, train_n, test_n, epochs = ((2, 64, 32, 1) if tiny
                                                    else (4, 256, 128, 3))
        self.channels = (4, 8) if tiny else (8, 16)
        self.trainer = training.TrainerConfig(
            task_count=self.task_count, s_max=400.0, schedule="cosine",
            init="ones", lr=0.05, momentum=0.5, reg_lambda=0.075,
            epochs=epochs, batch_size=32, seed=seed)
        self.config_text = (f"conv tasks={self.task_count} shape={self.shape} "
                            f"channels={self.channels} seed={seed}\n")
        rng = np.random.default_rng([seed, 20])
        return [data.TaskData(train=self._split(train_n, template, rng),
                              test=self._split(test_n, template, rng))
                for template in rng.standard_normal((self.task_count,) + self.shape)]

    def _split(self, n, template, rng):
        """Balanced classes: unit noise plus or minus the task's template."""
        y = rng.permutation(np.arange(n) % 2)
        sign = (2 * y - 1).reshape(n, 1, 1, 1)
        x = rng.standard_normal((n,) + self.shape) + sign * self.signal * template
        return x, y.astype(np.int64)

    def build(self):
        rng = np.random.default_rng([self.seed, 21])
        c1, c2 = self.channels
        side = (self.shape[1] - 1) // 2 + 1  # 3x3, stride 2, padding 1
        model = layers.Sequential(
            layers.HATConv2d(self.shape[0], c1, 3, self.task_count, "conv1",
                             rng, padding=1),
            layers.ReLU(),
            layers.HATConv2d(c1, c2, 3, self.task_count, "conv2", rng,
                             stride=2, padding=1),
            layers.ReLU(),
            flatten,
            layers.task_indexed_linear(c2 * side * side, 2, self.task_count,
                                       "head", rng),
        )
        training.init_embeddings(model.maskers(), "ones")
        return model


WORKLOADS = {w.name: w for w in (Toy, Continual, Conv)}
