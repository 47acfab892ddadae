"""Mask-scale schedules, capacity regularizer, and the per-task training loop.

The mask scale ``s`` anneals within each epoch: small scales keep the
sigmoid gates soft and trainable, the maximum scale makes them near-binary.
Two schedules are provided — a linear ramp from ``1/s_max`` up to ``s_max``,
and a cosine that starts and ends at ``s_max`` with a soft middle. Training
a task also pays a penalty when its fresh mask usage exceeds a ``1/T``
share of the capacity left over by earlier tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as ops
from .layers import HATMasker, Sequential
from .payload import HATPayload
from .tensor import StateError, Tape, Tensor, UsageError


def scale_linear(b: int, B: int, s_max: float) -> float:
    """Within-epoch linear ramp: batch 1 maps to 1/s_max, batch B to s_max."""
    if b < 1 or (B >= 1 and b > B):
        raise UsageError(f"batch index {b} outside [1, {B}]")
    if B < 2:
        return s_max  # degenerate single-batch epoch: use the terminal value
    if b == 1:
        return 1.0 / s_max
    if b == B:
        return float(s_max)
    return 1.0 / s_max + (s_max - 1.0 / s_max) * (b - 1) / (B - 1)


def scale_cosine(p: float, s_max: float, s_min: Optional[float] = None) -> float:
    """Cosine sweep over unit training time, floored at s_min.

    s(0) = s(1) = s_max; the raw curve touches zero at p = 0.5, where the
    floor (default 1/s_max) takes over.
    """
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"progress must lie in [0,1], got {p}")
    if s_min is None:
        s_min = 1.0 / s_max
    return max(s_min, (s_max / 2.0) * (1.0 + math.cos(2.0 * math.pi * p)))


@dataclass
class ScheduleState:
    """Where the annealing stands inside the current epoch."""

    kind: str  # "linear" | "cosine"
    s_max: float
    batch_index: int  # 1-based
    total_batches: int
    s_min: Optional[float] = None

    @property
    def progress(self) -> float:
        return (self.batch_index - 1) / self.total_batches

    def value(self) -> float:
        if self.kind == "linear":
            return scale_linear(self.batch_index, self.total_batches, self.s_max)
        if self.kind == "cosine":
            return scale_cosine(self.progress, self.s_max, self.s_min)
        raise UsageError(f"unknown schedule kind '{self.kind}'")


def regularizer(current_masks: list, cumulative: list, task_count: int) -> Tensor:
    """Per-layer over-quota usage of leftover capacity, summed over layers.

    For each layer: fraction of still-free capacity (1 - cumulative) that the
    live mask claims, minus the 1/T quota, floored at zero. Layers with no
    free capacity contribute nothing. Differentiable in the live masks;
    the cumulative masks are plain numbers.
    """
    if len(current_masks) != len(cumulative):
        raise UsageError(f"{len(current_masks)} masks vs {len(cumulative)} "
                         "cumulative vectors")
    quota = 1.0 / task_count
    total = None
    for mask, cum in zip(current_masks, cumulative):
        cum = np.asarray(cum)
        free = 1.0 - cum
        denom = float(free.sum())
        if denom == 0.0:
            continue
        used = ops.reduce_sum(ops.mul(mask, Tensor(free)))
        over = ops.relu(ops.add(ops.scale(used, 1.0 / denom), Tensor(-quota)))
        total = over if total is None else ops.add(total, over)
    return total if total is not None else Tensor(0.0)


def init_embeddings(maskers: list, kind: str, rng: Optional[np.random.Generator] = None) -> None:
    """Set every embedding row of every masker: all-ones or standard normal."""
    if kind not in ("ones", "gaussian"):
        raise UsageError(f"unknown embedding init '{kind}'")
    if kind == "gaussian" and rng is None:
        raise UsageError("gaussian init needs an rng")
    for masker in maskers:
        for row in masker.embedding_rows:
            if kind == "ones":
                row.data[...] = 1.0
            else:
                row.data[...] = rng.standard_normal(row.shape)


class SGD:
    """Plain stochastic gradient descent with classical momentum.

    Velocity buffers start at zero, so a fresh optimizer per task keeps one
    task's motion from leaking into the next.
    """

    def __init__(self, params: list, lr: float, momentum: float = 0.9):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


@dataclass
class TrainerConfig:
    task_count: int = 5
    s_max: float = 400.0
    schedule: str = "cosine"  # "linear" | "cosine"
    init: str = "ones"        # "ones" | "gaussian"
    lr: float = 0.05
    momentum: float = 0.9
    reg_lambda: float = 0.1
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.task_count < 1:
            raise UsageError(f"task_count must be >= 1, got {self.task_count}")
        if self.reg_lambda < 0:
            raise UsageError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.s_max) and self.s_max > 0):
            raise UsageError(f"s_max must be finite and > 0, got {self.s_max}")


@dataclass
class EpochMetrics:
    """Running training figures for one epoch, over the batches it ran.

    ``loss`` is the mean of the batch losses (cross-entropy plus the
    weighted capacity penalty). ``accuracy`` is the fraction of samples
    whose training logits, computed at the batch's own mask scale and
    before its optimizer step, put the largest value on the true class.
    Held-out accuracy at full mask hardness is ``evaluate``'s job.
    """

    epoch: int
    loss: float
    accuracy: float


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_task(model: Sequential, dataset, task: Optional[int],
               cfg: TrainerConfig, on_batch_end=None) -> list:
    """Train one task end to end and finalize its masks.

    dataset is (x, y) numpy arrays. task=None trains in plain mode: no
    masking, no hooks, no regularizer pressure, no finalization — the code
    path degenerates to ordinary network training.

    on_batch_end, if given, is called after every optimizer step with
    (global_batch_index, model); returning True stops training early (the
    toy benchmark uses this to count batches until the mask locks in).
    Returns one EpochMetrics per epoch run, an early-stopped one included.
    Each batch runs the model forward exactly once: an epoch's loss and
    accuracy come from the logits its batches trained on (see
    EpochMetrics), with no separate pass over the data.
    """
    x, y = dataset
    if task is not None:
        for masker in model.maskers():
            if task in masker.stored_task_masks:
                raise StateError(f"task {task} already finalized at masker "
                                 f"'{masker.layer_tag}'")

    optimizer = SGD(model.task_parameters(task), cfg.lr, cfg.momentum)
    maskers = model.maskers()
    total_batches = math.ceil(len(x) / cfg.batch_size)
    metrics = []
    global_batch = 0
    stopped = False

    for epoch in range(cfg.epochs):
        shuffle_rng = np.random.default_rng(
            [cfg.seed, 0 if task is None else task + 1, epoch])
        epoch_loss = 0.0
        correct = seen = 0
        b = 0
        for b, idx in enumerate(_batches(len(x), cfg.batch_size, shuffle_rng), start=1):
            s = ScheduleState(cfg.schedule, cfg.s_max, b, total_batches).value()
            payload = HATPayload(Tensor(x[idx]), task=task, scale=s, training=True)
            with Tape() as tape:
                logits = model.forward(payload).masked_data()
                labels = y[idx]
                loss = ops.softmax_cross_entropy(logits, labels)
                if task is not None and cfg.reg_lambda > 0.0:
                    live = [m.current_mask(task, s) for m in maskers]
                    cum = [m.cumulative_mask for m in maskers]
                    penalty = regularizer(live, cum, cfg.task_count)
                    loss = ops.add(loss, ops.scale(penalty, cfg.reg_lambda))
            tape.backward(loss)
            optimizer.step()
            optimizer.zero_grad()
            for masker in maskers:
                masker.clamp_embeddings()
            epoch_loss += loss.item()
            correct += int(np.count_nonzero(logits.data.argmax(axis=1) == labels))
            seen += len(idx)
            global_batch += 1
            if on_batch_end is not None and on_batch_end(global_batch, model):
                stopped = True
                break
        metrics.append(EpochMetrics(epoch=epoch,
                                    loss=epoch_loss / max(b, 1),
                                    accuracy=correct / max(seen, 1)))
        if stopped:
            break

    if task is not None:
        for masker in maskers:
            masker.finalize_task(task)
    return metrics


def evaluate(model: Sequential, dataset, task: Optional[int]) -> float:
    """Fraction of correct predictions at full mask hardness; no tape, no
    hooks, no state changes."""
    x, y = dataset
    payload = HATPayload(Tensor(x), task=task, scale=None, training=False)
    logits = model.forward(payload).masked_data().data
    return float(np.mean(np.argmax(logits, axis=1) == y))
