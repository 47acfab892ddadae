"""Gated layers: per-task sigmoid masks, gradient protection, task dispatch.

The pieces:

* ``HATMasker`` owns one trainable embedding row per task; the row's scaled
  sigmoid is that task's unit mask, applied as soon as the masker runs.
  Completed tasks leave behind a cumulative mask (elementwise max) and a
  stored binary mask.
* ``HATLinear`` / ``HATConv2d`` wrap a weighted base layer and gate its
  output through an output masker. Once a completed task has claimed any of
  its output units, training registers a gradient hook on the weights that
  multiplies each entry's gradient by ``1 - min(out_mask_i, in_mask_j)``, so
  parameters fully claimed by earlier tasks stop moving.
* Mask embeddings get their own hook pair at mask-application time: an
  analytic rescaling that undoes the vanishing sigmoid derivative at large
  mask scales, followed by a magnitude rail.
* ``TaskIndexed`` holds one isolated submodule per task and dispatches on the
  payload's task id.

Plain modules and functions (``Linear``, ``ReLU``, a flatten) operate on
bare tensors inside a ``Sequential``, which may nest. ``walk`` is the one
traversal of a model; it also decides which masker guards each gated
layer's input features and how those features map onto its units.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from . import tensor as ops
from .payload import HATPayload
from .tensor import ShapeError, StateError, Tape, Tensor, UsageError, sigmoid_values

E_MAX = 6.0           # post-step bound on embedding values
COSH_CLAMP = 50.0     # bound on cosh arguments inside the gradient rescaling
RAIL_FACTOR = 100.0   # rescaled gradients may not exceed 100x the raw max
THETA_BIN = 0.5       # threshold for storing a completed task's binary mask


class Module:
    """Minimal parameter container; models are traversed by ``walk``."""

    def local_parameters(self) -> list:
        return []


class PayloadModule(Module):
    """Marker base for modules that consume and produce payloads."""

    def forward(self, p: HATPayload) -> HATPayload:
        raise NotImplementedError

    def __call__(self, p: HATPayload) -> HATPayload:
        return self.forward(p)


def attention(e: Tensor, s: float) -> Tensor:
    """Unit mask a = sigmoid(s * e), differentiable in e."""
    if s <= 0:
        raise UsageError(f"mask scale must be positive, got {s}")
    return ops.sigmoid(ops.scale(e, s))


def grad_nullify(g: np.ndarray, a_out_cum: np.ndarray,
                 a_in_cum: Optional[np.ndarray] = None) -> np.ndarray:
    """Scale each gradient entry by 1 - min(out-side mask, in-side mask).

    With ``a_in_cum`` given, entry (i, j) of a weight gradient is multiplied
    by ``1 - min(a_out_cum[i], a_in_cum[j])``; extra trailing axes (conv
    spatial taps) share their (i, j) factor. Without it — bias vectors and
    first-layer weights, whose input side carries no mask — the factor is
    ``1 - a_out_cum[i]`` per output unit.
    """
    a_out = np.asarray(a_out_cum, dtype=g.dtype)
    if a_in_cum is None:
        factor = 1.0 - a_out
    else:
        factor = 1.0 - np.minimum.outer(a_out, np.asarray(a_in_cum, dtype=g.dtype))
    if factor.ndim > g.ndim:
        raise ShapeError(f"mask factor rank {factor.ndim} exceeds gradient rank {g.ndim}")
    return g * factor.reshape(factor.shape + (1,) * (g.ndim - factor.ndim))


def grad_compensate(q: np.ndarray, e: np.ndarray, s: float, s_max: float,
                    cosh_clamp: float = COSH_CLAMP) -> np.ndarray:
    """Rescale embedding gradients to undo the sigmoid's scale-induced decay.

    q'_i = s_max * (cosh(s * e_i) + 1) / (s * (cosh(e_i) + 1)) * q_i,
    with both cosh arguments clamped to [-cosh_clamp, cosh_clamp] so the
    ratio stays representable. At s = s_max and e = 0 the factor is exactly 1.
    """
    e = np.asarray(e, dtype=np.float64)
    num = np.cosh(np.clip(s * e, -cosh_clamp, cosh_clamp)) + 1.0
    den = np.cosh(np.clip(e, -cosh_clamp, cosh_clamp)) + 1.0
    return q * (s_max * num) / (s * den)


def grad_rail(q: np.ndarray, raw_abs_max: float,
              factor: float = RAIL_FACTOR) -> np.ndarray:
    """Clip a rescaled gradient to +/- factor times the raw gradient's max."""
    bound = factor * raw_abs_max
    return np.clip(q, -bound, bound)


class HATMasker(PayloadModule):
    """Per-task sigmoid gate over one feature axis.

    Owns a trainable embedding row per task. Applying the masker multiplies
    the payload's data by sigmoid(scale * embedding[task]) along the feature
    axis (axis 1 for stacked data, elementwise for vectors). Completed tasks
    are recorded in ``cumulative_mask`` (running elementwise max, drives
    gradient nullification) and ``stored_task_masks`` (binary, drives
    forgetting attribution).
    """

    def __init__(self, n_features: int, task_count: int, layer_tag: str,
                 s_max: float = 400.0):
        if task_count < 1:
            raise UsageError(f"task_count must be >= 1, got {task_count}")
        self.n_features = n_features
        self.task_count = task_count
        self.layer_tag = layer_tag
        self.s_max = float(s_max)
        self.embedding_rows = [Tensor(np.ones(n_features), requires_grad=True)
                               for _ in range(task_count)]
        self.cumulative_mask = np.zeros(n_features)
        self.stored_task_masks: dict[int, np.ndarray] = {}
        self._hooked_tape = None

    def local_parameters(self):
        return list(self.embedding_rows)

    def _check_task(self, task: int) -> int:
        if task is None:
            raise UsageError(f"masker '{self.layer_tag}' needs a task id")
        if not 0 <= task < self.task_count:
            raise UsageError(f"task id {task} out of range [0, {self.task_count}) "
                             f"at masker '{self.layer_tag}'")
        return task

    def resolve_scale(self, scale: Optional[float]) -> float:
        return self.s_max if scale is None else float(scale)

    def current_mask(self, task: int, scale: Optional[float]) -> Tensor:
        """The live (differentiable) mask for a task at a given scale."""
        return attention(self.embedding_rows[self._check_task(task)],
                         self.resolve_scale(scale))

    def mask_values(self, task: int, scale: Optional[float] = None) -> np.ndarray:
        """Mask as plain numbers, no tape."""
        e = self.embedding_rows[self._check_task(task)].data
        return sigmoid_values(self.resolve_scale(scale) * e)

    def apply(self, payload: HATPayload) -> Tensor:
        """The payload's data with this masker's mask for its task applied."""
        data = payload.data
        if payload.task is None:
            return data
        task = self._check_task(payload.task)
        feature_extent = data.shape[0] if data.ndim == 1 else data.shape[1]
        if feature_extent != self.n_features:
            raise ShapeError(f"masker '{self.layer_tag}' covers {self.n_features} "
                             f"features but data has {feature_extent}")
        s = self.resolve_scale(payload.scale)
        mask = attention(self.embedding_rows[task], s)
        if payload.training:
            self._register_embedding_hooks(task, s)
        return ops.mul(data, mask)

    def _register_embedding_hooks(self, task: int, s: float) -> None:
        # Two hooks on the embedding leaf, firing in order on every incoming
        # gradient: the analytic rescaling, then the safety rail. The rail's
        # bound depends on the raw gradient, so the first hook stashes it.
        tape = Tape.current()
        if tape is None or tape is self._hooked_tape:
            return
        e_row = self.embedding_rows[task]
        e_vals = e_row.data.copy()
        s_max = self.s_max
        stash = {}

        def compensate(q):
            stash["raw_abs_max"] = float(np.max(np.abs(q))) if q.size else 0.0
            return grad_compensate(q, e_vals, s, s_max)

        def rail(q):
            return grad_rail(q, stash["raw_abs_max"])

        e_row.register_hook(compensate)
        e_row.register_hook(rail)
        self._hooked_tape = tape

    def forward(self, p: HATPayload) -> HATPayload:
        return p.with_data(self.apply(p))

    def finalize_task(self, task: int) -> None:
        """Fold a finished task's mask into the cumulative/stored records."""
        task = self._check_task(task)
        if task in self.stored_task_masks:
            raise StateError(f"task {task} already finalized at masker "
                             f"'{self.layer_tag}'")
        mask = self.mask_values(task)  # at s_max
        self.cumulative_mask = np.maximum(self.cumulative_mask, mask)
        self.stored_task_masks[task] = mask > THETA_BIN

    def clamp_embeddings(self) -> None:
        """Post-optimizer-step value clamp: |e| <= E_MAX."""
        for row in self.embedding_rows:
            np.clip(row.data, -E_MAX, E_MAX, out=row.data)

    def completed_tasks(self) -> list:
        return sorted(self.stored_task_masks)


def _dense(x: Tensor, weight: Tensor, bias: Tensor, who: str) -> Tensor:
    """y = x Wᵀ + b for a [B, in] batch; `who` names the layer in errors."""
    if x.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"{who} expects [B,{weight.shape[1]}], got {x.shape}")
    return ops.add(ops.matmul(x, ops.permute(weight, (1, 0))), bias)


class Linear(Module):
    """Plain dense layer y = x Wᵀ + b on bare tensors."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(np.zeros((out_features, in_features)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)
        self.reset(rng)

    def reset(self, rng: np.random.Generator) -> None:
        bound = np.sqrt(1.0 / self.in_features)
        self.weight.data[...] = rng.standard_normal(self.weight.shape) * bound
        self.bias.data[...] = 0.0

    def local_parameters(self):
        return [self.weight, self.bias]

    def __call__(self, x: Tensor) -> Tensor:
        return _dense(x, self.weight, self.bias, "linear")


class ReLU:
    def __call__(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class LayerNorm(Module):
    """Per-sample feature normalization with learnable gain/shift."""

    def __init__(self, n_features: int, eps: float = 1e-5):
        self.n_features = n_features
        self.eps = eps
        self.gain = Tensor(np.ones(n_features), requires_grad=True)
        self.shift = Tensor(np.zeros(n_features), requires_grad=True)

    def reset(self, rng=None) -> None:
        self.gain.data[...] = 1.0
        self.shift.data[...] = 0.0

    def local_parameters(self):
        return [self.gain, self.shift]

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gain, self.shift, eps=self.eps)


class InputSide(NamedTuple):
    """The masker over a gated layer's inputs (None for a first layer); each
    of its units covers ``taps`` consecutive input features (channel-major
    pixels when a dense layer reads a flattened convolution)."""

    masker: Optional[HATMasker] = None
    taps: int = 1

    def expand(self, per_unit: np.ndarray) -> np.ndarray:
        """A vector over the masker's units as a new one over input features."""
        return np.repeat(per_unit, self.taps)


class _GatedWeightedLayer(PayloadModule):
    """Shared plumbing for weighted layers with an output masker."""

    weight: Tensor
    bias: Tensor
    output_masker: HATMasker
    layer_tag: str

    def __init__(self):
        self._nullify_tape = None
        # alone, a layer is a first layer; every Sequential holding it
        # rebinds this from the model's structure (see walk)
        self.input_side = InputSide()

    def local_parameters(self):
        return [self.weight, self.bias]

    def _weighted(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def forward(self, p: HATPayload) -> HATPayload:
        h = self._weighted(p.data)
        # nothing to protect until a completed task claims an output unit:
        # with a zero output-side mask every factor 1 - min(out, in) is 1
        if (p.training and p.task is not None
                and self.output_masker.cumulative_mask.any()):
            self._register_nullify_hooks()
        return self.output_masker.forward(p.with_data(h))

    def _register_nullify_hooks(self) -> None:
        # Freeze factors are snapshots of the cumulative masks: they only
        # change at task finalization, never inside a task.
        tape = Tape.current()
        if tape is None or tape is self._nullify_tape:
            return
        a_out = self.output_masker.cumulative_mask.copy()
        # A first layer (no masker below) protects by output side alone: its
        # inputs are task-free, so a weight is frozen exactly when its output
        # unit is fully claimed. Equivalent to an all-ones input-side mask.
        side = self.input_side
        a_in = (None if side.masker is None
                else side.expand(side.masker.cumulative_mask))
        self.weight.register_hook(lambda g: grad_nullify(g, a_out, a_in))
        self.bias.register_hook(lambda g: grad_nullify(g, a_out))
        self._nullify_tape = tape


class HATLinear(_GatedWeightedLayer):
    """Dense layer whose output units are gated by a per-task mask."""

    def __init__(self, in_features: int, out_features: int, task_count: int,
                 layer_tag: str, rng: np.random.Generator, s_max: float = 400.0):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.layer_tag = layer_tag
        bound = np.sqrt(1.0 / in_features)
        self.weight = Tensor(rng.standard_normal((out_features, in_features)) * bound,
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)
        self.output_masker = HATMasker(out_features, task_count,
                                       layer_tag + ".mask", s_max=s_max)

    def _weighted(self, x: Tensor) -> Tensor:
        return _dense(x, self.weight, self.bias, f"'{self.layer_tag}'")


class HATConv2d(_GatedWeightedLayer):
    """Convolution whose output channels are gated by a per-task mask."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 task_count: int, layer_tag: str, rng: np.random.Generator,
                 stride=1, padding=0, s_max: float = 400.0):
        super().__init__()
        kh, kw = ops._pair(kernel_size, "kernel_size", 1)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = ops._pair(stride, "stride", 1)
        self.padding = ops._pair(padding, "padding", 0)
        self.layer_tag = layer_tag
        bound = np.sqrt(1.0 / (in_channels * kh * kw))
        self.weight = Tensor(
            rng.standard_normal((out_channels, in_channels, kh, kw)) * bound,
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.output_masker = HATMasker(out_channels, task_count,
                                       layer_tag + ".mask", s_max=s_max)

    def _weighted(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias,
                          stride=self.stride, padding=self.padding)


class TaskIndexed(PayloadModule):
    """One isolated submodule per task, dispatched by the payload's task id."""

    def __init__(self, submodules: list, layer_tag: str):
        self.submodules = list(submodules)
        self.layer_tag = layer_tag

    def local_parameters(self):
        return []  # parameters live on the submodules, one task's at a time

    def forward(self, p: HATPayload) -> HATPayload:
        if p.task is None:
            raise UsageError(f"task-indexed module '{self.layer_tag}' needs a task id")
        if not 0 <= p.task < len(self.submodules):
            raise UsageError(f"task id {p.task} out of range [0, "
                             f"{len(self.submodules)}) at '{self.layer_tag}'")
        return p.with_data(self.submodules[p.task](p.data))

    def reset_task(self, task: int, rng: np.random.Generator) -> None:
        self.submodules[task].reset(rng)

    def task_parameters(self, task: int) -> list:
        return self.submodules[task].local_parameters()


def task_indexed_layer_norm(n_features: int, task_count: int, layer_tag: str) -> TaskIndexed:
    return TaskIndexed([LayerNorm(n_features) for _ in range(task_count)], layer_tag)


def task_indexed_linear(in_features: int, out_features: int, task_count: int,
                        layer_tag: str, rng: np.random.Generator) -> TaskIndexed:
    # identical initialization across tasks: fresh submodules are
    # indistinguishable until their task trains them apart
    first = Linear(in_features, out_features, rng)
    rest = []
    for _ in range(task_count - 1):
        twin = Linear(in_features, out_features, rng)
        twin.weight.data[...] = first.weight.data
        twin.bias.data[...] = first.bias.data
        rest.append(twin)
    return TaskIndexed([first] + rest, layer_tag)


class Sequential(PayloadModule):
    """Payload pipeline: gated modules run natively, plain ones via forward_by.

    Building a pipeline binds each gated layer's input side from ``walk``,
    so a model whose widths cannot be protected is refused right here.
    """

    def __init__(self, *modules):
        self.steps = list(modules)
        for _, module, side in walk(self):
            if side is not None:
                module.input_side = side

    def forward(self, p: HATPayload) -> HATPayload:
        for m in self.steps:
            p = m.forward(p) if isinstance(m, PayloadModule) else p.forward_by(m)
        return p

    def maskers(self) -> list:
        """Every masker in pipeline order (standalone and layer-owned)."""
        return [m for _, m, _ in walk(self) if isinstance(m, HATMasker)]

    def task_parameters(self, task: Optional[int]) -> list:
        """The leaves that task's training may move."""
        params = []
        for _, m, _ in walk(self):
            if isinstance(m, HATMasker):
                if task is not None:
                    params.append(m.embedding_rows[task])
            elif isinstance(m, TaskIndexed):
                if task is not None:
                    params.extend(m.task_parameters(task))
            elif isinstance(m, Module):
                params.extend(m.local_parameters())
        return params


def _input_side(layer: _GatedWeightedLayer, masker: Optional[HATMasker],
                owner, between: Optional[Module]) -> InputSide:
    """How `layer`'s input features map onto the units of `masker`, the most
    recent masker before it (`owner` is the module it belongs to; `between`
    the first weighted module run between them, if any)."""
    if masker is None:
        return InputSide()
    width = layer.weight.shape[1]  # input features, or a conv's input channels
    units = masker.n_features
    if width == units:
        side = InputSide(masker)
    elif (isinstance(layer, HATLinear) and isinstance(owner, HATConv2d)
            and width % units == 0):
        side = InputSide(masker, width // units)  # a flattened convolution
    else:
        raise ShapeError(f"'{layer.layer_tag}' reads {width} input features, which "
                         f"do not map onto the {units} units of masker "
                         f"'{masker.layer_tag}'")
    if between is not None:
        # a shared module trains under every task, and even a task-indexed
        # one turns masked-off units into nonzero inputs, so the masker no
        # longer guards what this layer reads and a completed task drifts
        raise ShapeError(f"'{layer.layer_tag}' reads masker '{masker.layer_tag}' "
                         f"through a {type(between).__name__}; only functions "
                         f"such as ReLU or a flatten may sit between them")
    return side


def walk(model: Sequential):
    """Every module of a pipeline in run order, nested ``Sequential`` flattened.

    Yields ``(name, module, input_side)``. ``name`` is the module's position:
    ``"3"`` for step 3, ``"3.1"`` for step 1 of a ``Sequential`` at step 3.
    A gated layer is followed by its output masker, under the same name, and
    is the only module yielded with an ``InputSide`` (None for the rest): the
    most recent masker before it in run order, or none for a first layer.
    A weighted module (``Linear``, ``LayerNorm``, ``TaskIndexed``) between
    that masker and the gated layer is refused with ``ShapeError``.
    """
    # most recent masker, the module that owns it, and the first weighted
    # module run after it; a list handed down, not a closure cell, so a
    # walk leaves no reference cycle behind
    yield from _visit(model.steps, "", [None, None, None])


def _visit(steps, prefix: str, last: list):
    for i, module in enumerate(steps):
        name = f"{prefix}{i}"
        if isinstance(module, Sequential):
            yield from _visit(module.steps, name + ".", last)
        elif isinstance(module, _GatedWeightedLayer):
            yield name, module, _input_side(module, *last)
            last[:] = (module.output_masker, module, None)
            yield name, module.output_masker, None
        else:
            if isinstance(module, HATMasker):
                last[:] = (module, module, None)
            elif last[2] is None and isinstance(module, Module):
                last[2] = module
            yield name, module, None
