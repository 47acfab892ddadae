"""Selective removal of one task's knowledge from a gated network.

A unit is *exclusive* to a task when its stored binary mask is on for that
task and off for every other completed task. Zeroing the weights wired
between exclusive units (plus the biases of exclusive output units) destroys
only the forgotten task: every remaining task runs on its stored mask, which
is exactly zero at those units, so its outputs do not change by a single
bit.

Weights are zeroed only when *both* endpoints are exclusive. A weight into a
shared output unit is kept even if its input unit is exclusive — erasing less
in exchange for a hard non-interference guarantee.

Exclusivity is read from the stored binary masks alone: they are the record
of what each completed task owns. A task-indexed ``Linear`` is exclusive by
construction and is zeroed outright; a task-indexed ``LayerNorm`` returns to
its fresh state. Each masker's ``reset_task`` then frees the task's slot.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .layers import (HATMasker, Linear, Sequential, TaskIndexed, check_embedding_init,
                     held_entries, refuse_members, walk)
from .payload import check_task_id
from .tensor import StateError

__all__ = ["ForgetReport", "attribution", "forget_task"]


@dataclass
class ForgetReport:
    """Per-layer counts of parameter entries that were changed to zero."""

    weight_counts: dict = field(default_factory=dict)  # layer_tag -> int
    bias_counts: dict = field(default_factory=dict)
    total: int = 0

    def add_layer(self, tag: str, weights: int, biases: int) -> None:
        self.weight_counts[tag] = weights
        self.bias_counts[tag] = biases
        self.total += weights + biases

    def lines(self) -> list:
        out = [f"{tag} weights={self.weight_counts[tag]} "
               f"biases={self.bias_counts[tag]}"
               for tag in self.weight_counts]
        out.append(f"total {self.total}")
        return out


def attribution(masker: HATMasker, task: int) -> np.ndarray:
    """Boolean vector of units whose stored mask is on for `task` and off for
    every other completed task."""
    stored = masker.stored_task_masks
    if task not in stored:
        raise StateError(f"task {task} was never finalized at masker "
                         f"'{masker.layer_tag}'")
    exclusive = stored[task].copy()
    for other in masker.completed_tasks():
        if other != task:
            exclusive &= ~stored[other]
    return exclusive


def _zero_counting(values: np.ndarray, select) -> int:
    """Zero `values[select]` (all of it for ``...``), returning how many
    entries actually changed."""
    changed = int(np.count_nonzero(values[select]))
    values[select] = 0.0
    return changed


def forget_task(model: Sequential, task: int, embedding_init: str = "ones",
                rng: Optional[np.random.Generator] = None) -> ForgetReport:
    """Erase the parameters exclusively associated with one finalized task.

    A gated layer zeroes the entries the protection rule would hold were
    the task's exclusive units (``attribution``) the only ones claimed
    (``layers.held_entries``): weight (i, j) when output unit i and the unit
    input j reads are exclusive (the whole row when its inputs count as
    claimed), bias i when unit i is. Shared modules belong to no one task and
    are left alone. The task's task-indexed submodules are zeroed or reset,
    their gradients dropped, and every masker resets the task's slot
    (``HATMasker.reset_task``) so it can be retrained. A refused call
    changes nothing; a member model is refused (see ``refuse_members``).
    """
    refuse_members(model, "forget_task")
    task = check_task_id(task)
    check_embedding_init(embedding_init, rng)
    maskers = model.maskers()
    if not maskers:
        raise StateError("model has no masker, so no record of completed "
                         "tasks to forget from")
    for masker in maskers:
        if task not in masker.stored_task_masks:
            raise StateError(f"task {task} was never finalized at masker "
                             f"'{masker.layer_tag}'")
    walked = walk(model)
    # every range check before the first entry is zeroed
    slots = {module: module.submodule(task) for _, module, _ in walked
             if isinstance(module, TaskIndexed)}

    report = ForgetReport()
    for _, module, side in walked:
        sub = slots.get(module)
        if side is not None:
            held = held_entries(module, lambda masker: attribution(masker, task))
            weights, biases = [_zero_counting(leaf.data, sel) for leaf, sel in held] or (0, 0)
            report.add_layer(module.layer_tag, weights, biases)
        elif isinstance(sub, Linear):
            # a per-task head is exclusive by construction: zero it outright,
            # leaving the forgotten slot with constant (all-zero) outputs
            weights = _zero_counting(sub.weight.data, ...)
            biases = _zero_counting(sub.bias.data, ...)
            report.add_layer(module.layer_tag, weights, biases)
        elif sub is not None:
            # a LayerNorm: fresh normalization state; the shift lands on
            # zero, so entries it actually moved there count toward the report
            biases = _zero_counting(sub.shift.data, ...)
            sub.reset()
            report.add_layer(module.layer_tag, 0, biases)
        if sub is not None:  # a stale gradient would move the emptied slot
            for leaf in sub.local_parameters():
                leaf.grad = None
    for masker in maskers:
        masker.reset_task(task, embedding_init, rng)
    return report
