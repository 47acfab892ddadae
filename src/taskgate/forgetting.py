"""Selective removal of one task's knowledge from a gated network.

A unit is *exclusive* to a task when its stored binary mask is on for that
task and off for every other completed task. Zeroing the weights wired
between exclusive units (plus the biases of exclusive output units) destroys
only the forgotten task: under any remaining task those units are masked to
zero anyway, so for exactly-binary masks the other tasks' outputs do not
change by a single bit.

Weights are zeroed only when *both* endpoints are exclusive. A weight into a
shared output unit is kept even if its input unit is exclusive — erasing less
in exchange for a hard non-interference guarantee.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .layers import (THETA_BIN, HATMasker, InputSide, LayerNorm, Linear,
                     Sequential, TaskIndexed, walk)
from .tensor import StateError, UsageError

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


def attribution(masker: HATMasker, task: int,
                theta: float = THETA_BIN) -> np.ndarray:
    """Boolean vector of units used by `task` and by no other completed task.

    At the default threshold this reads the stored binary masks directly; any
    other threshold re-binarizes the current embeddings at full scale.
    """
    if task not in masker.stored_task_masks:
        raise StateError(f"task {task} was never finalized at masker "
                         f"'{masker.layer_tag}'")
    if not 0.0 < theta < 1.0:
        raise UsageError(f"attribution threshold must lie in (0,1), got {theta}")

    def usage(t: int) -> np.ndarray:
        if theta == THETA_BIN:
            return masker.stored_task_masks[t]
        return masker.mask_values(t) > theta

    exclusive = usage(task).copy()
    for other in masker.completed_tasks():
        if other != task:
            exclusive &= ~usage(other)
    return exclusive


def _zero_counting(values: np.ndarray, select: np.ndarray) -> int:
    """Zero `values[select]`, returning how many entries actually changed."""
    changed = int(np.count_nonzero(values[select]))
    values[select] = 0.0
    return changed


def forget_task(model: Sequential, task: int, theta: float = THETA_BIN,
                embedding_init: str = "ones",
                rng: Optional[np.random.Generator] = None) -> ForgetReport:
    """Erase the parameters exclusively associated with one finalized task.

    Weight (i, j) of a gated layer is zeroed when output unit i is exclusive
    to `task` and input feature j is exclusive at the masker that guards it
    (first layers, having no such masker, zero the whole row; a dense layer
    after a flattened convolution reads each channel's exclusivity at all of
    its pixels). Bias i is zeroed on output-side exclusivity alone. The
    task's embedding rows are reset so the slot can be retrained, its stored
    masks are dropped, cumulative masks are rebuilt from the remaining
    tasks, and any task-indexed submodule for the slot is freshly
    reinitialized.
    """
    if embedding_init not in ("ones", "gaussian"):
        raise UsageError(f"unknown embedding init '{embedding_init}'")
    if embedding_init == "gaussian" and rng is None:
        raise UsageError("gaussian embedding reset needs an rng")
    for masker in model.maskers():
        if task not in masker.stored_task_masks:
            raise StateError(f"task {task} was never finalized at masker "
                             f"'{masker.layer_tag}'")

    report = ForgetReport()
    for _, module, side in walk(model):
        if side is not None:
            _forget_gated(module, side, task, theta, report)
            continue
        if not isinstance(module, TaskIndexed):
            continue
        sub = module.submodules[task]
        if isinstance(sub, Linear):
            # a per-task head is exclusive by construction: zero it outright,
            # leaving the forgotten slot with constant (all-zero) outputs
            weights = _zero_counting(sub.weight.data,
                                     np.ones(sub.weight.shape, dtype=bool))
            biases = _zero_counting(sub.bias.data,
                                    np.ones(sub.bias.shape, dtype=bool))
            sub.weight.grad = None
            sub.bias.grad = None
            report.add_layer(module.layer_tag, weights, biases)
        elif isinstance(sub, LayerNorm):
            # fresh normalization state; the shift lands on zero, so entries
            # it actually moved there count toward the report
            biases = _zero_counting(sub.shift.data,
                                    np.ones(sub.shift.shape, dtype=bool))
            sub.reset()
            report.add_layer(module.layer_tag, 0, biases)
        else:
            reset_rng = rng if rng is not None else np.random.default_rng(task)
            module.reset_task(task, reset_rng)

    for masker in model.maskers():
        row = masker.embedding_rows[task]
        if embedding_init == "ones":
            row.data[...] = 1.0
        else:
            row.data[...] = rng.standard_normal(row.shape)
        row.grad = None
        del masker.stored_task_masks[task]
        rebuilt = np.zeros(masker.n_features)
        for other in masker.completed_tasks():
            rebuilt = np.maximum(rebuilt, masker.mask_values(other))
        masker.cumulative_mask = rebuilt

    return report


def _forget_gated(layer, side: InputSide, task: int, theta: float,
                  report: ForgetReport) -> None:
    out_excl = attribution(layer.output_masker, task, theta)
    if side.masker is None:
        weight_sel = out_excl
    else:
        in_excl = side.expand(attribution(side.masker, task, theta))
        pair = out_excl[:, None] & in_excl[None, :]
        # conv kernels share the channel pair across all taps
        weight_sel = np.broadcast_to(
            pair.reshape(pair.shape + (1,) * (layer.weight.ndim - 2)),
            layer.weight.shape)
    weights = _zero_counting(layer.weight.data, weight_sel)
    biases = _zero_counting(layer.bias.data, out_excl)
    report.add_layer(layer.layer_tag, weights, biases)
