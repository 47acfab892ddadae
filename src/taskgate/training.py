"""Mask-scale schedules, capacity regularizer, and the per-task training loop.

The mask scale ``s`` anneals within each epoch: small scales keep the
sigmoid gates soft and trainable, the maximum scale makes them near-binary.
Two schedules are provided — a linear ramp from ``1/s_max`` up to ``s_max``,
and a cosine that starts and ends at ``s_max`` with a soft middle. Training
a task also pays a penalty when its fresh mask usage exceeds a ``1/T``
share of the capacity left over by earlier tasks. ``train_task`` works out
each layer's free capacity once per task and records the cross-entropy
plus the weighted penalty as one ``objective`` tape node, with the bits of
the public composition ``add(loss, scale(regularizer(...), λ))``;
``regularizer`` records the penalty with generic tape ops alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import tensor as ops
from .layers import (EMBEDDING_INITS, Sequential, _embedding_grad, _real, _same_scale,
                     _width, check_embedding_init, check_s_max, check_scale)
from .payload import HATPayload
from .tensor import ShapeError, StateError, Tape, Tensor, UsageError, sigmoid_values

SCHEDULES = ("linear", "cosine")  # how the mask scale moves within an epoch


def scale_linear(b: int, B: int, s_max: float) -> float:
    """Within-epoch linear ramp: batch 1 maps to 1/s_max, batch B >= 1 to s_max.
    The batch index ``b`` must be an int in [1, B] (a numpy int included;
    a float or a bool is refused), and ``s_max`` as ``check_s_max``."""
    s_max = check_s_max(s_max)
    B = _width(B, "batches per epoch")
    if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or not 1 <= b <= B:
        raise UsageError(f"batch index must be an int in [1, {B}], got {b!r}")
    if b == B:  # a single-batch epoch included: the terminal value
        return s_max
    if b == 1:
        return 1.0 / s_max
    return 1.0 / s_max + (s_max - 1.0 / s_max) * (b - 1) / (B - 1)


def scale_cosine(p: float, s_max: float, s_min: Optional[float] = None) -> float:
    """Cosine sweep over unit training time, floored at s_min.

    s(0) = s(1) = s_max; the raw curve touches zero at p = 0.5, where the
    floor (default 1/s_max) takes over. The progress ``p`` must be a real
    number in [0, 1] (a bool or a string is refused), ``s_max`` as
    ``check_s_max`` and ``s_min`` no larger than ``s_max``.
    """
    if not (_real(p) and 0.0 <= p <= 1.0):
        raise UsageError(f"progress must lie in [0,1], got {p!r}")
    s_max = check_s_max(s_max)
    s_min = 1.0 / s_max if s_min is None else check_scale(s_min, "s_min")
    if s_min > s_max:  # the floor would lift s(0) and s(1) off s_max
        raise UsageError(f"s_min must not exceed s_max, got {s_min!r} > {s_max!r}")
    return max(s_min, (s_max / 2.0) * (1.0 + math.cos(2.0 * math.pi * p)))


def _free_capacity(cum) -> Optional[tuple]:
    """A layer's ``(free, c)``: ``free = 1 - cum`` and ``c = 1/sum(free)``
    over the units; None when no capacity is free. For a member masker's
    [M,F] ``cum``, ``c`` holds one value per member, 0 where a member has
    none free."""
    free = 1.0 - np.asarray(cum)
    denom = free.sum(axis=-1)
    if not denom.any():
        return None
    if free.ndim == 1:  # a numpy scalar, which the objective multiplies fastest
        return free, 1.0 / denom
    return free, np.divide(1.0, denom, out=np.zeros_like(denom), where=denom != 0.0)


def regularizer(current_masks: list, cumulative: list, task_count: int) -> Tensor:
    """Per-layer over-quota usage of leftover capacity, summed over layers.

    For each layer: fraction of still-free capacity (1 - cumulative) that the
    live mask claims, minus the 1/T quota, floored at zero. Layers with no
    free capacity contribute nothing. Differentiable in the live masks;
    the cumulative masks are plain numbers.

    Recorded with generic tape ops only, per layer
    ``relu(add(scale(reduce_sum(mul(mask, free)), c), -1/T))`` and an
    ``add`` across layers; ``train_task``'s ``objective`` node has the same
    bits. With no free capacity anywhere it returns a constant 0. It
    serves unstacked masks alone.
    """
    if len(current_masks) != len(cumulative):
        raise UsageError(f"{len(current_masks)} masks vs {len(cumulative)} "
                         "cumulative vectors")
    neg_quota = -1.0 / _width(task_count, "task_count")
    total = None
    for mask, cum in zip(current_masks, cumulative):
        if np.ndim(cum) != 1:
            raise ShapeError(f"penalty: cumulative masks must be vectors, got "
                             f"shape {np.shape(cum)}")
        capacity = _free_capacity(cum)
        if capacity is None:
            continue
        free, c = capacity
        if mask.shape != free.shape:
            raise ShapeError(f"penalty: mask shape {mask.shape} vs cumulative "
                             f"shape {free.shape}")
        used = ops.reduce_sum(ops.mul(mask, Tensor(free)))
        over = ops.relu(ops.add(ops.scale(used, c), Tensor(neg_quota)))
        total = over if total is None else ops.add(total, over)
    return total if total is not None else Tensor(0.0)


def _objective(loss: Tensor, maskers: list, capacity: list, task: int, s,
               reg_lambda: float, neg_quota) -> Tensor:
    """``loss + penalty * reg_lambda`` as one ``objective`` node over the
    loss and each masker's embedding row, the penalty taken over the live
    masks at scale ``s`` (the sigmoid a training gate noted on the active
    tape, else the same bits afresh) with the ``(free, c)`` in ``capacity``.
    In the float order of ``add(loss, scale(regularizer(current masks),
    reg_lambda))``: per layer ``sum(mask * free) * c + neg_quota``, floored
    at 0 as ``relu`` does, summed in order; a mask's gradient is
    ``((g * λ * over_quota) * c) * free``, then the chain rule to the row,
    whose hook compensates it on a training tape. For member maskers the
    loss, the scale column and each ``c`` are per member, and every sum runs
    over one member's units alone."""
    notes = Tape.current().notes
    rows = [m.embedding_rows[task] for m in maskers]
    total, terms = None, []
    for row, (free, c) in zip(rows, capacity):
        note = notes.get(row)
        mask = (note[1] if note is not None and _same_scale(note[0], s)
                else sigmoid_values(row.data * s))
        excess = np.add.reduce(mask * free, axis=-1) * c + neg_quota
        on = excess > 0
        # relu's 0 for -0.0 and NaN; one masker's excess is a numpy scalar
        over = np.where(on, excess, 0.0) if excess.ndim else (excess if on else 0.0)
        total = over if total is None else total + over
        terms.append((free, c, on, mask))
    lam = float(reg_lambda)

    def backward_fn(g):
        gl = g * lam
        # a value per member times free: the bits of np.full(...) * free
        return [g] + [_embedding_grad(((gl * on) * c)[..., None] * free, mask, s)
                      for free, c, on, mask in terms]

    return ops._record("objective", [loss] + rows, loss.data + total * lam, backward_fn)


def init_embeddings(maskers: list, kind: str, rng: Optional[np.random.Generator] = None) -> None:
    """Reset every task slot of every masker (``HATMasker.reset_task``):
    all-ones or standard-normal embedding rows."""
    check_embedding_init(kind, rng)
    for masker in maskers:
        for task in range(masker.task_count):
            masker.reset_task(task, kind, rng)


class SGD:
    """Plain stochastic gradient descent with classical momentum.

    Velocity buffers start at zero, and restart at zero on the first step
    after the completed tasks of the parameters' model change (a task
    finalized or forgotten, masks restored): velocity from before a
    finalization cannot move an entry it claims, and one optimizer may serve
    many tasks as a fresh one per task (``train_task``) does. The parameters
    name their model's maskers (``guards``, set by ``Sequential``), so
    finalizing one model leaves another's optimizer alone. ``lr`` and
    ``momentum`` are checked as ``TrainerConfig`` checks them
    (``check_trainer_numbers``).
    """

    def __init__(self, params: list, lr: float, momentum: float = 0.9):
        check_trainer_numbers(lr, momentum)
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]
        self._maskers = list(dict.fromkeys(m for p in self.params
                                           for m in getattr(p, "guards", ())))
        self._seen = [m.cumulative_mask for m in self._maskers]

    def step(self, live: Optional[np.ndarray] = None) -> None:
        """One step of every parameter with a gradient. For a member model,
        ``live`` (a boolean [M] array) picks the members that move; the
        others keep their values and velocity."""
        for m, seen in zip(self._maskers, self._seen):
            # a masker's cumulative mask is a new array exactly when its records change
            if m.cumulative_mask is not seen:
                for v in self.velocity:
                    v.fill(0.0)
                self._seen = [m.cumulative_mask for m in self._maskers]
                break
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            if live is None:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                v[live] = v[live] * self.momentum + p.grad[live]
                p.data[live] -= self.lr * v[live]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def check_trainer_numbers(lr, momentum, reg_lambda=0.0, seed=0, **counts) -> None:
    """Refuse, each with a one-line ``UsageError`` naming the field: an
    ``lr`` or ``reg_lambda`` that is not a finite real number >= 0 (a NaN
    weight would turn the penalty off unseen), a ``momentum`` outside
    [0, 1), a ``seed`` that is not an int >= 0 (numpy's generators take no
    other), and each of ``counts`` (task count, epochs, batch size) that is
    not an int >= 1. Bools are refused throughout."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise UsageError(f"seed must be an int >= 0, got {seed!r}")
    for name, value in counts.items():
        _width(value, name)
    for name, value, hi, bounds in (("lr", lr, math.inf, "finite and >= 0"),
                                    ("reg_lambda", reg_lambda, math.inf, "finite and >= 0"),
                                    ("momentum", momentum, 1.0, "in [0, 1)")):
        if not (_real(value) and 0.0 <= value < hi):
            raise UsageError(f"{name} must be {bounds}, got {value!r}")


@dataclass
class TrainerConfig:
    task_count: int = 5
    s_max: float = 400.0
    schedule: str = "cosine"  # one of SCHEDULES
    init: str = "ones"        # one of EMBEDDING_INITS
    lr: float = 0.05
    momentum: float = 0.9
    reg_lambda: float = 0.1
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_trainer_numbers(self.lr, self.momentum, self.reg_lambda, self.seed,
                              task_count=self.task_count, epochs=self.epochs,
                              batch_size=self.batch_size)
        if self.schedule not in SCHEDULES:
            raise UsageError(f"unknown schedule '{self.schedule}'")
        if self.init not in EMBEDDING_INITS:
            raise UsageError(f"unknown init '{self.init}'")
        check_s_max(self.s_max)


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


MEMBER_FIELDS = ("seed", "schedule", "init")  # the TrainerConfig fields members may differ in


def _member_configs(cfg, members: Optional[int]) -> list:
    """Each member's ``TrainerConfig``: ``[cfg]`` for an unstacked model;
    for a member model a sequence of M configs that agree on every field
    but ``MEMBER_FIELDS``. Anything else is refused with ``UsageError``."""
    if members is None:
        if not isinstance(cfg, TrainerConfig):
            raise UsageError(f"an unstacked model trains under one TrainerConfig, "
                             f"got {type(cfg).__name__}")
        return [cfg]
    cfgs = list(cfg) if isinstance(cfg, (list, tuple)) else None
    if (cfgs is None or len(cfgs) != members
            or not all(isinstance(c, TrainerConfig) for c in cfgs)):
        raise UsageError(f"a model of {members} members trains under a list of "
                         f"{members} TrainerConfigs, one per member")
    for f in fields(TrainerConfig):
        if f.name not in MEMBER_FIELDS:
            values = {getattr(c, f.name) for c in cfgs}
            if len(values) > 1:
                raise UsageError(f"members differ in {f.name} ({sorted(values)}); "
                                 f"they may differ only in {', '.join(MEMBER_FIELDS)}")
    return cfgs


def _samples(dataset, members: Optional[int] = None) -> tuple:
    """``(x, y)`` of a dataset as arrays, refused with a one-line
    ``ShapeError`` when they are not [N,...] samples and [N] labels and
    ``UsageError`` when it has none, its samples are not real numbers or
    hold NaN or ±inf, or its labels are not integers. For M members the
    dataset is stacked per member: [M,N,...] samples and [M,N] labels."""
    x, y = dataset
    x, y = np.asarray(x), np.asarray(y)
    if members is None:
        if x.ndim < 1 or y.ndim != 1:
            raise ShapeError(f"a dataset needs [N,...] samples and [N] labels, got "
                             f"shapes {x.shape} and {y.shape}")
        n, n_labels = len(x), len(y)
    else:
        if x.ndim < 2 or y.ndim != 2 or len(x) != members or len(y) != members:
            raise ShapeError(f"a model of {members} members needs [{members},N,...] "
                             f"samples and [{members},N] labels, got shapes "
                             f"{x.shape} and {y.shape}")
        n, n_labels = x.shape[1], y.shape[1]
    if n != n_labels:
        raise ShapeError(f"dataset has {n} samples but {n_labels} labels")
    if n == 0:
        raise UsageError("dataset is empty")
    if x.dtype.kind not in "biuf":
        raise UsageError(f"dataset samples must be real numbers, got dtype {x.dtype}")
    # relu maps NaN to 0 and can hide an inf from the loss, while the
    # gate's backward writes NaN into the task's embedding row
    bad = np.count_nonzero(~np.isfinite(x))
    if bad:
        raise UsageError(f"dataset samples hold {bad} NaN or infinite values")
    ops.check_labels(y)
    return x, y


def _mask_scale(linear, b: int, batches: int, s_max: float):
    """Batch b's mask scale: ``linear`` True or False picks the schedule;
    a boolean [M,1] column picks it per member and gives a [M,1] float64
    column."""
    if linear is True:
        return scale_linear(b, batches, s_max)
    cosine = scale_cosine((b - 1) / batches, s_max)
    if linear is False:
        return cosine
    return np.where(linear, scale_linear(b, batches, s_max), cosine)


def _close_epoch(metrics: list, runs: np.ndarray, epoch: int, loss, accuracy) -> None:
    """Append an epoch's figures to the books of each run ``runs`` picks."""
    for m in np.flatnonzero(runs):
        metrics[m].append(EpochMetrics(epoch=epoch, loss=float(loss[m]),
                                       accuracy=float(accuracy[m])))


def train_task(model: Sequential, dataset, task: Optional[int],
               cfg, on_batch_end=None) -> list:
    """Train one task end to end and finalize its masks.

    dataset is (x, y) numpy arrays. task=None trains in plain mode: no
    masking, no compensation, no regularizer pressure, no finalization — the
    code path degenerates to ordinary network training, except that the
    weights completed tasks claim stay frozen, as on any tape.

    on_batch_end, if given, is called after every optimizer step with
    (global_batch_index, model); returning True stops training early (the
    toy benchmark uses this to count batches until the mask locks in). It
    returns one bool, None reading as False; anything else (a list, a
    string, a number, NaN) is refused with ``UsageError``.
    Returns one EpochMetrics per epoch run, an early-stopped one included.
    Each batch runs the model forward exactly once: an epoch's loss and
    accuracy come from the logits its batches trained on (see
    EpochMetrics), with no separate pass over the data. Each batch's tape
    is dropped as soon as its backward ends or the batch is refused, which
    frees its graph and detaches every parameter from it.
    A task already finalized, or whose embedding row at some masker is not
    finite, is refused with ``StateError`` before training and again
    before any masker finalizes it. A batch whose loss, or whose gradient
    of the task's embedding rows (``relu`` hides a NaN from the loss, not
    from the gate's backward), is not finite is refused with ``StateError``
    before its optimizer step, leaving no gradient behind, so the task can
    be trained again on finite data. The loss is checked before backward and
    the rows after it, each by one ``math.isfinite`` on a sum of all its
    values; only when that sum is NaN or ±inf are the values looked at one
    run at a time, so a sum that overflows from finite values refuses
    nothing. A model with no parameters to train for the task, a dataset
    with no samples, with a label count that differs from its sample count,
    with samples that hold NaN or ±inf, or with labels that are not
    integers, is refused before anything is touched, as is a
    ``cfg.task_count`` or ``cfg.s_max`` other than some masker's.

    A member model (``layers.stack_members``) trains its M independent runs
    in lockstep along the leading member axis: one tape, one backward and
    one optimizer step per batch for all of them. ``cfg`` is then a list of
    M configs, each the one member m would get alone, differing only in
    ``seed``, ``schedule`` and ``init``; the dataset is stacked per member.
    Member m draws its own shuffle order and mask scale, pays its own
    capacity penalty and, bit for bit, ends where training ``models[m]``
    alone would. on_batch_end may return a bool for every member or an [M]
    array of them; a member stops at its first True and takes no further
    optimizer step, and training ends once every member has stopped. A
    member's non-finite loss refuses the whole group's batch as above,
    naming the member; so does a non-finite row gradient. Returns one list
    of EpochMetrics per member.

    Both kinds of model keep one set of books: each batch's losses, hit
    counts, stop flags and epoch figures are arrays with an entry per run,
    one for an unstacked model and M for a member model.
    """
    members = model.members
    cfgs = _member_configs(cfg, members)
    cfg = cfgs[0]  # what the members share
    params = model.task_parameters(task)
    if not params:  # backward would find no loss on the tape
        raise UsageError(f"the model has no parameters to train for task {task}")
    x, y = _samples(dataset, members)
    n = y.shape[-1]
    maskers = model.maskers()
    for masker in maskers:
        if masker.task_count != cfg.task_count:
            raise UsageError(f"cfg.task_count is {cfg.task_count} but masker "
                             f"'{masker.layer_tag}' has {masker.task_count} tasks")
        if masker.s_max != cfg.s_max:
            raise UsageError(f"cfg.s_max is {cfg.s_max:g} but masker "
                             f"'{masker.layer_tag}' has s_max {masker.s_max:g}")
    if task is not None:  # refused up front as at finalization
        for masker in maskers:
            masker.check_finalizable(task)

    optimizer = SGD(params, cfg.lr, cfg.momentum)
    # capacity only changes when a task is finalized, so each layer's free
    # capacity is worked out once; a layer with none left pays no penalty
    # and asks for no live mask, and with none anywhere there is no term
    penalized, capacity = [], []
    if task is not None and cfg.reg_lambda > 0.0:
        for masker in maskers:
            free = _free_capacity(masker.cumulative_mask)
            if free is not None:
                penalized.append(masker)
                capacity.append(free)
    neg_quota = np.float64(-1.0 / cfg.task_count)
    total_batches = math.ceil(n / cfg.batch_size)
    # the schedule restarts every epoch: batch b trains at scales[b - 1],
    # each value checked here, before the first batch
    batch_indices = range(1, total_batches + 1)
    if members is None:
        lanes = None
        scales = [_mask_scale(cfg.schedule == "linear", b, total_batches, cfg.s_max)
                  for b in batch_indices]
    else:  # member m reads row m of every stacked array
        lanes = np.arange(members)[:, None]
        linear = np.array([[c.schedule == "linear"] for c in cfgs])
        scales = np.stack([_mask_scale(linear, b, total_batches, cfg.s_max)
                           for b in batch_indices])  # [B,M,1]: row b - 1 is batch b's column
        scales.flags.writeable = False
    # the books keep one entry per run: one for an unstacked model, one per member
    active = np.ones(len(cfgs), dtype=bool)
    rows = [] if task is None else [m.embedding_rows[task] for m in maskers]
    metrics = [[] for _ in cfgs]
    global_batch = 0
    live = None  # the members that step: all until one stops, then ``active``

    for epoch in range(cfg.epochs):
        orders = [np.random.default_rng([c.seed, 0 if task is None else task + 1, epoch])
                  .permutation(n) for c in cfgs]
        order = orders[0] if lanes is None else np.stack(orders)
        epoch_loss, correct = np.zeros((2, len(cfgs)))  # the sums over its batches
        seen = 0
        for b, start in enumerate(range(0, n, cfg.batch_size), start=1):
            idx = order[..., start:start + cfg.batch_size]
            key = idx if lanes is None else (lanes, idx)
            s = scales[b - 1]
            payload = HATPayload(Tensor(x[key]), task=task, scale=s, training=True)
            tape = Tape()
            try:
                with tape:
                    logits = model.forward(payload).masked_data()
                    labels = y[key]
                    loss = ops.softmax_cross_entropy(logits, labels)
                    if penalized:
                        loss = _objective(loss, penalized, capacity, task, s,
                                          cfg.reg_lambda, neg_quota)
                    total = loss if lanes is None else ops.reduce_sum(loss)
                batch_loss = loss.data.reshape(-1)
                refused = _refusal([batch_loss], active, members)
                if refused is not None:
                    optimizer.zero_grad()
                    raise StateError(f"{refused}loss of epoch {epoch} batch {b} is not "
                                     f"finite; refused before its optimizer step")
                tape.backward(total)
                refused = _refusal([r.grad for r in rows if r.grad is not None],
                                   active, members)
                if refused is not None:
                    optimizer.zero_grad()
                    raise StateError(f"{refused}gradient of task {task}'s embedding rows "
                                     f"in epoch {epoch} batch {b} is not finite; "
                                     f"refused before its optimizer step")
            finally:
                del tape  # frees the graph, even while a refusal's traceback lives
            optimizer.step(live)
            optimizer.zero_grad()
            if task is not None:  # only the training task's rows moved
                for masker in maskers:
                    masker.clamp_embeddings(task)
            epoch_loss += batch_loss
            correct += np.add.reduce(logits.data.argmax(axis=-1) == labels, axis=-1)
            seen += idx.shape[-1]
            global_batch += 1
            if on_batch_end is None:
                continue
            ended = active & _stop_flags(on_batch_end(global_batch, model), members)
            if np.logical_or.reduce(ended):
                _close_epoch(metrics, ended, epoch, epoch_loss / b, correct / seen)
                active &= ~ended
                live = active
                if not np.logical_or.reduce(active):
                    break
        _close_epoch(metrics, active, epoch, epoch_loss / b, correct / seen)
        if not np.logical_or.reduce(active):
            break

    if task is not None:
        for masker in maskers:  # all or none: refuse before any finalizes
            masker.check_finalizable(task)
        for masker in maskers:
            masker.finalize_task(task)
    return metrics[0] if lanes is None else metrics


def _refusal(values: list, active: np.ndarray, members: Optional[int]) -> Optional[str]:
    """None when the ``values`` (arrays, a member's along the leading axis)
    of every ``active`` run are finite, else how a refusal names them: ""
    unstacked, else the first such member. Only a sum of them all that is
    NaN or ±inf, as one of finite values can be, is looked at per run."""
    if math.isfinite(sum(np.add.reduce(v, axis=None) for v in values)):
        return None
    finite = np.ones(len(active), dtype=bool)
    for v in values:
        finite &= np.isfinite(v.reshape(len(active), -1)).all(axis=-1)
    bad = np.flatnonzero(active & ~finite)
    if not len(bad):
        return None
    return "" if members is None else f"member {bad[0]}'s "


def _stop_flags(stop, members: Optional[int]) -> np.ndarray:
    """What ``on_batch_end`` returned, as booleans: one flag of shape (),
    or for a member model also [M] of them, one per member. None reads as
    False; any other shape or dtype is refused with ``UsageError``."""
    flags = np.asarray(False if stop is None else stop)
    if flags.dtype == bool and (flags.shape == () or flags.shape == (members,)):
        return flags
    wanted = "one bool" if members is None else f"a bool or {members} of them"
    raise UsageError(f"on_batch_end must return {wanted}, got shape {flags.shape} "
                     f"of dtype {flags.dtype}")


def evaluate(model: Sequential, dataset, task: Optional[int]):
    """Fraction of correct predictions at full mask hardness; no tape, no
    hooks, no state changes. A call inside an active tape is refused with
    ``UsageError`` before the forward, and a dataset as in ``train_task``,
    labels outside the head's classes included. A member model reads a
    dataset stacked per member and returns an [M] array, member m's
    fraction at m."""
    if Tape.current() is not None:
        raise UsageError("evaluate records nothing; call it outside the active tape")
    x, y = _samples(dataset, model.members)
    payload = HATPayload(Tensor(x), task=task, scale=None, training=False)
    logits = model.forward(payload).masked_data().data
    ops.check_labels(y, logits.shape[-1])
    hits = np.argmax(logits, axis=-1) == y
    return float(np.mean(hits)) if model.members is None else np.mean(hits, axis=-1)
