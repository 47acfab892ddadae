"""Tensor-plus-task-metadata value that flows through gated networks.

A payload carries the tensor, the task id (absent = plain/unmasked mode), the
current mask scale (for a member model, one float or an [M,1] column with
a scale per member) and the ``training`` flag, under which each gate hooks
its task's embedding row to compensate and rail its gradients
(``train_task`` sets it). Protection of completed tasks depends on neither
the flag nor the task id: it applies to any forward recorded on a tape.
Maskers apply their mask as soon as they run, so a payload's data is always
fully masked; which masker feeds which gated layer is resolved once, from
the model's structure, when a ``Sequential`` is built.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .tensor import Tensor, UsageError


def check_task_id(task) -> int:
    """``task`` as an ``int``; a float, a bool or a string is refused."""
    if isinstance(task, bool) or not isinstance(task, (int, np.integer)):
        raise UsageError(f"task id must be an int, got {task!r}")
    return int(task)


class HATPayload:
    """A tensor with task routing metadata."""

    __slots__ = ("data", "task", "scale", "training")

    def __init__(self, data: Tensor, task: Optional[int] = None,
                 scale: Optional[float] = None, training: bool = False):
        if task is not None and check_task_id(task) < 0:
            raise UsageError(f"task id must be nonnegative, got {task}")
        self.data = data
        self.task = task
        self.scale = scale
        self.training = training

    def masked_data(self) -> Tensor:
        """The data, every mask upstream of this point already applied."""
        return self.data

    def with_data(self, data: Tensor) -> "HATPayload":
        """New payload with the same task/scale/training flags."""
        return HATPayload(data, task=self.task, scale=self.scale,
                          training=self.training)

    def forward_by(self, plain_op: Callable[[Tensor], Tensor]) -> "HATPayload":
        """Send the data through a function that only knows tensors."""
        return self.with_data(plain_op(self.data))

    def __repr__(self):
        return (f"HATPayload(shape={self.data.shape}, task={self.task}, "
                f"scale={self.scale})")
