"""Gated layers: per-task sigmoid masks, gradient protection, task dispatch.

The pieces:

* ``HATMasker`` owns one trainable embedding row per task; its scaled sigmoid
  masks a training task's units. A completed task runs on its stored binary
  mask. The cumulative mask, their OR, is rebuilt only where those records
  change; ``reset_task`` frees a slot.
* ``HATLinear`` / ``HATConv2d`` are a dense layer and a convolution whose
  output units an output masker gates; one constructor makes their leaves.
* One rule protects completed tasks: an entry stops moving once a completed
  task claims both of its ends. A gated layer's output ends are its output
  masker's units, its input ends those of the most recent masker if only
  functions sit between them (else claimed). Any other weighted module
  outside a task slot has every end claimed once its model has a completed
  task, and a task slot's module once its own task is complete. Each
  kind's ``_held`` says which entries are held: in any training loop a
  forward on a tape, task id or not, hooks their gradients by
  ``1 - min(out_i, in_j)`` (once per tape, ``_protect``); ``forget_task``
  and ``held_entries`` read it too.
* Applying a training mask records one ``gate`` node, ``data * sigmoid(s * e)``.
  With the payload's ``training`` flag it also hooks the task's embedding
  row (once per tape): each gradient reaching the row is rescaled to undo
  the vanishing sigmoid derivative at large mask scales, then clipped to a
  magnitude rail. A live mask is ``attention`` over the row, or part of
  ``train_task``'s ``objective``; on a training tape the row's hook takes
  its gradient too.
* Per-recording state (hooks registered, the gate's scale and mask) is
  noted in ``Tape.notes`` and dropped with the tape; modules keep none.
* ``TaskIndexed`` holds one isolated ``Linear`` or ``LayerNorm`` per task and
  dispatches on the payload's task id.
* ``stack_members`` turns M models of one structure into one member model:
  each parameter gains a leading member axis, and ``train_task`` trains
  the members in lockstep. Maskers (per-member rows, gate, compensation
  hook and rail), ``Linear``, ``HATLinear``, ``ReLU`` and nullification
  serve members. Everything else refuses them with a one-line error:
  ``HATConv2d``, ``LayerNorm`` and ``TaskIndexed`` when stacked, and
  checkpoints and ``forget_task`` (``refuse_members``).

Plain modules and functions (``Linear``, ``ReLU``, a flatten) operate on
bare tensors inside a ``Sequential``, which may nest. Building one is the
one traversal of its model (``walk`` returns the parts it kept); it also
decides which masker, if any, claims each gated layer's input features and
how those features map onto its units.
"""

from __future__ import annotations

import copy
import math
import operator
import weakref
from typing import NamedTuple, Optional

import numpy as np

from . import tensor as ops
from .payload import HATPayload, check_task_id
from .tensor import ShapeError, StateError, Tape, Tensor, UsageError, sigmoid_values

E_MAX = 6.0           # post-step bound on embedding values
COSH_CLAMP = 50.0     # bound on cosh arguments inside the gradient rescaling
RAIL_FACTOR = 100.0   # rescaled gradients may not exceed 100x the raw max
THETA_BIN = 0.5       # threshold for storing a completed task's binary mask
EMBEDDING_INITS = ("ones", "gaussian")  # how a task slot's embedding row starts
_CLAIMED = operator.attrgetter("cumulative_mask")  # a masker's completed tasks' units

# each module with parameters -> a weak reference to the Sequential holding
# it; both sides weak, so a dropped model frees its modules for another
_MODEL_OF: "weakref.WeakKeyDictionary[Module, weakref.ref]" = weakref.WeakKeyDictionary()


class Module:
    """Minimal parameter container; ``_leaf_names`` names the attributes
    holding a kind's trainable leaves. A plain module implements ``forward``
    on bare tensors, which calling it runs under ``_protect``.

    ``members`` is None for an ordinary module and M for one that
    ``stack_members`` built, whose parameters carry a leading member axis.
    ``slot`` is the task a task-indexed submodule serves, None elsewhere.
    """

    members: Optional[int] = None
    guards: tuple = ()
    slot: Optional[int] = None
    _leaf_names: tuple = ()

    def local_parameters(self) -> list:
        return [getattr(self, name) for name in self._leaf_names]

    def _held(self, units) -> list:
        """``(leaf, a_out, a_in)`` per leaf with held entries (see ``grad_nullify``),
        ``units(masker)`` giving a masker's claimed units. A plain module claims
        all its ends once a masker of its model (``guards``) has a completed
        task; a task-indexed submodule once its own task (``slot``) is one."""
        slot = self.slot
        if not any(m.stored_task_masks if slot is None else slot in m.stored_task_masks
                   for m in self.guards):
            return []  # no numpy work while nothing is claimed
        lead = 1 if self.members is None else 2
        return [(leaf, np.ones(leaf.shape[:lead]), None) for leaf in self.local_parameters()]

    def __call__(self, x: Tensor) -> Tensor:
        return _protect(self, self.forward(x))


class PayloadModule(Module):
    """Marker base for modules that consume and produce payloads."""

    def forward(self, p: HATPayload) -> HATPayload:
        raise NotImplementedError

    def __call__(self, p: HATPayload) -> HATPayload:
        return self.forward(p)


def _real(value) -> bool:
    """Whether ``value`` is a real number: an int or a float, numpy's
    included, but not a bool or a string."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def check_scale(value, name: str = "mask scale") -> float:
    """``value`` as a mask scale: a real number, finite and > 0.
    Anything else (NaN, an infinity, a bool, a string) is refused."""
    if _real(value) and 0.0 < value < math.inf:
        return float(value)
    raise UsageError(f"{name} must be finite and > 0, got {value!r}")


def check_s_max(value) -> float:
    """``value`` as a masker's or a schedule's ``s_max``: a real number,
    finite and >= 1, since both schedules span [1/s_max, s_max]. Anything
    else is refused."""
    if _real(value) and 1.0 <= value < math.inf:
        return float(value)
    raise UsageError(f"s_max must be finite and >= 1, got {value!r}")


def _check_member_scale(value, members: int):
    """``value`` as a member masker's mask scale: an [M,1] float64 column
    with one for each member, finite and > 0. Anything else is refused."""
    if (isinstance(value, np.ndarray) and value.dtype == np.float64
            and value.shape == (members, 1)
            and np.logical_and.reduce((value > 0.0) & (value < math.inf), axis=None)):
        return value
    raise UsageError(f"mask scale must be a [{members},1] float64 column, finite and > 0 "
                     f"for each of {members} members, got {' '.join(repr(value).split())}")


def _same_scale(a, b) -> bool:
    """Whether two resolved mask scales (floats, or member columns) agree."""
    return a is b or bool(np.array_equal(a, b))


def attention(e: Tensor, s: float) -> Tensor:
    """Unit mask a = sigmoid(s * e), differentiable in e."""
    return ops.sigmoid(ops.scale(e, check_scale(s)))


def _clip(x, bound, out=None):
    """``np.clip(x, -bound, bound)`` for a bound >= 0 or NaN, with the same
    bits (NaN signs and -0.0 included) but without np.clip's Python wrapper."""
    return np.maximum(-bound, np.minimum(bound, x, out=out), out=out)


def grad_nullify(g: np.ndarray, a_out_cum: np.ndarray,
                 a_in_cum: Optional[np.ndarray] = None) -> np.ndarray:
    """Scale each gradient entry by 1 - min(out-side mask, in-side mask).

    With ``a_in_cum`` given, entry (i, j) of a weight gradient is multiplied
    by ``1 - min(a_out_cum[i], a_in_cum[j])``; extra trailing axes (conv
    spatial taps) share their (i, j) factor; a leading member axis pairs up.
    Without it — biases, and weights whose inputs count as claimed — the
    factor is ``1 - a_out_cum[i]`` per output unit. An entry whose factor is
    0 comes out as an exact zero even where ``g`` is infinite or NaN.
    """
    a_out = np.asarray(a_out_cum, dtype=g.dtype)
    if a_in_cum is None:
        factor = 1.0 - a_out
    else:
        a_in = np.asarray(a_in_cum, dtype=g.dtype)
        factor = 1.0 - np.minimum(a_out[..., :, None], a_in[..., None, :])
    if factor.ndim > g.ndim:
        raise ShapeError(f"mask factor rank {factor.ndim} exceeds gradient rank {g.ndim}")
    factor = factor.reshape(factor.shape + (1,) * (g.ndim - factor.ndim))
    return np.where(factor == 0.0, 0.0, g * factor)  # inf * 0 would be NaN


def grad_compensate(q: np.ndarray, e: np.ndarray, s: float, s_max: float) -> np.ndarray:
    """Rescale embedding gradients to undo the sigmoid's scale-induced decay.

    q'_i = s_max * (cosh(s * e_i) + 1) / (s * (cosh(e_i) + 1)) * q_i,
    with both cosh arguments clamped to [-COSH_CLAMP, COSH_CLAMP] so the
    ratio stays representable. At s = s_max and e = 0 the factor is exactly 1.
    """
    num, den = _compensation(e, s, s_max)
    return q * num / den


def _compensation(e: np.ndarray, s: float, s_max: float) -> tuple:
    """``grad_compensate``'s factor as the pair ``(s_max * num, s * den)``."""
    e = np.asarray(e, dtype=np.float64)
    num = np.cosh(_clip(s * e, COSH_CLAMP)) + 1.0
    den = np.cosh(_clip(e, COSH_CLAMP)) + 1.0
    return s_max * num, s * den


def grad_rail(q: np.ndarray, raw_abs_max,
              factor: float = RAIL_FACTOR) -> np.ndarray:
    """Clip a rescaled gradient to +/- factor times the raw gradient's max
    (a float, or per member an [M,1] column of them)."""
    return _clip(q, factor * raw_abs_max)


def _width(v, name: str) -> int:
    """``v`` as a layer width or a count, an int >= 1; anything else (a
    bool, a float) is refused."""
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
        raise UsageError(f"{name} must be an int >= 1, got {v!r}")
    return int(v)


def _tag(v) -> str:
    """``v`` as a layer tag, the stem of its checkpoint entry names: a str
    without '/'; anything else is refused."""
    if not isinstance(v, str) or "/" in v:
        raise UsageError(f"layer tag must be a str without '/', got {v!r}")
    return v


def check_embedding_init(kind: str, rng: Optional[np.random.Generator]) -> None:
    """Refuse an init kind outside ``EMBEDDING_INITS``, or gaussian without an rng."""
    if kind not in EMBEDDING_INITS:
        raise UsageError(f"unknown embedding init '{kind}'")
    if kind == "gaussian" and rng is None:
        raise UsageError("gaussian embedding init needs an rng")


def _embedding_grad(q: np.ndarray, mask: np.ndarray, s: float) -> np.ndarray:
    """The chain rule from ``q``, the gradient of ``mask = sigmoid(s * e)``,
    to ``e``, in the float order of the generic sigmoid and scale nodes."""
    return q * mask * (1.0 - mask) * s


def _task_index(task, count: int, kind: str, tag: str) -> int:
    """``task`` as an index into ``count`` task slots; a missing, non-int
    or out-of-range id is refused, naming the ``kind`` of module and its tag."""
    if task is None:
        raise UsageError(f"{kind} '{tag}' needs a task id")
    task = check_task_id(task)
    if not 0 <= task < count:
        raise UsageError(f"task id {task} out of range [0, {count}) at {kind} '{tag}'")
    return task


class HATMasker(PayloadModule):
    """Per-task gate over one feature axis.

    Owns a trainable embedding row per task. Applying the masker multiplies
    the payload's data along the feature axis (axis 1 for stacked data,
    elementwise for vectors) by sigmoid(scale * embedding[task]), or for a
    completed task by its binary ``stored_task_masks`` entry, the one
    record of that task; ``cumulative_mask`` is derived from those. Only
    this class writes either of them.

    A member masker (``stack_members``) holds an [M,F] row per task, one
    row per member, and gates [M,B,F] data along its last axis; its mask
    scale is an [M,1] column (``_check_member_scale``), and its stored masks
    and cumulative mask are [M,F] too.
    """

    def __init__(self, n_features: int, task_count: int, layer_tag: str,
                 s_max: float = 400.0):
        self.n_features = n_features = _width(n_features, "n_features")
        self.task_count = task_count = _width(task_count, "task_count")
        self.layer_tag = _tag(layer_tag)
        self.s_max = check_s_max(s_max)
        self.embedding_rows = [Tensor(np.ones(n_features), requires_grad=True)
                               for _ in range(task_count)]
        self.restore_stored_masks({})

    def _check_task(self, task: int) -> int:
        return _task_index(task, self.task_count, "masker", self.layer_tag)

    def resolve_scale(self, scale):
        if scale is None:
            return self.s_max
        if self.members is None:
            return check_scale(scale)
        return _check_member_scale(scale, self.members)

    @property
    def cumulative_mask(self) -> np.ndarray:
        """1.0 at each unit some completed task's stored mask claims, else 0.0.

        A read-only array, rebuilt only where the stored masks change; the
        same object is returned until then.
        """
        return self._cumulative

    def _rebuild_cumulative(self) -> None:
        claimed = np.zeros(self.embedding_rows[0].shape)
        for mask in self.stored_task_masks.values():
            claimed[mask] = 1.0
        claimed.flags.writeable = False
        self._cumulative = claimed

    def mask_values(self, task: int) -> np.ndarray:
        """Mask at ``s_max`` as plain numbers in the embedding row's dtype,
        no tape; a completed task's stored one."""
        task = self._check_task(task)
        stored = self.stored_task_masks.get(task)
        row = self.embedding_rows[task].data
        if stored is not None:
            return stored.astype(row.dtype)
        return sigmoid_values(self.s_max * row)

    def apply(self, payload: HATPayload) -> Tensor:
        """The payload's data with this masker's mask for its task applied.

        Records one ``gate`` node over (data, embedding row). Its backward
        takes the chain rule through the product, the sigmoid and the scale
        in the float order of those generic ops. In training the row gets
        one hook per tape that compensates each contribution reaching it at
        this scale and rails it to that contribution's own raw maximum (per
        member for a member masker); a training gate for the task at
        another scale on that tape is refused. A completed task's gate
        multiplies by its stored mask (``mask_values``) the same way, as a
        node over the data alone: no row, no hook.
        """
        data = payload.data
        if payload.task is None:
            return data
        task = self._check_task(payload.task)
        members, x = self.members, data.data
        if members is None:
            feature_axis = 0 if x.ndim == 1 else 1
        elif x.ndim == 3 and x.shape[0] == members:
            feature_axis = 2
        else:
            raise ShapeError(f"masker '{self.layer_tag}' has {members} members and "
                             f"needs [{members},B,F] data, got {x.shape}")
        if x.shape[feature_axis] != self.n_features:
            raise ShapeError(f"masker '{self.layer_tag}' covers {self.n_features} "
                             f"features but data has {x.shape[feature_axis]}")
        s = self.resolve_scale(payload.scale)
        completed = task in self.stored_task_masks  # no gradient to its embedding
        row = self.embedding_rows[task]
        tape = Tape.current() if payload.training and not completed else None
        note = None if tape is None else tape.notes.get(row)
        if note is not None and not _same_scale(note[0], s):
            raise UsageError(f"task {task} trains at masker '{self.layer_tag}' "
                             f"at scale {note[0]!r} on this tape, not {s!r}")
        mask = self.mask_values(task) if completed else sigmoid_values(row.data * s)
        if members is None:  # the mask along axis 1 (elementwise for a vector)
            shaped = mask if x.ndim == 1 else mask.reshape((1, -1) + (1,) * (x.ndim - 2))
            axes = (0,) + tuple(range(2, x.ndim))
        else:  # member m's mask along the last axis of its [B,F] slice
            shaped, axes = mask[:, None, :], (1,)
        if completed:
            return ops._record("gate", (data,), x * shaped, lambda g: (g * shaped,))
        need_gx = data.requires_grad  # decided when recorded, as the parent ids are

        def backward_fn(g):
            gx = g * shaped if need_gx else None
            q = g * x
            if x.ndim > 1:
                q = np.add.reduce(q, axis=axes)
            return gx, _embedding_grad(q, mask, s)

        out = ops._record("gate", (data, row), x * shaped, backward_fn)
        if tape is not None and note is None:
            num, den = _compensation(row.data, s, self.s_max)
            column = members is not None  # each member's maximum, else one
            row.register_hook(lambda q: grad_rail(
                q * num / den, np.maximum.reduce(np.abs(q), axis=-1, keepdims=column)))
            tape.notes[row] = (s, mask)  # the hook is on; the objective reuses the mask
        return out

    def forward(self, p: HATPayload) -> HATPayload:
        return p.with_data(self.apply(p))

    def check_finalizable(self, task: int) -> int:
        """Refuse to finalize a task twice, or from a non-finite embedding
        row, whose NaN mask would spread to every later task's factors."""
        task = self._check_task(task)
        if task in self.stored_task_masks:
            raise StateError(f"task {task} already finalized at masker "
                             f"'{self.layer_tag}'")
        if not np.isfinite(self.embedding_rows[task].data).all():
            raise StateError(f"task {task}'s embedding row at masker "
                             f"'{self.layer_tag}' is not finite; not finalized")
        return task

    def finalize_task(self, task: int) -> None:
        """Store a finished task's mask at s_max, binarized at THETA_BIN."""
        task = self.check_finalizable(task)
        self.stored_task_masks[task] = self.mask_values(task) > THETA_BIN
        self._rebuild_cumulative()

    def reset_task(self, task: int, init: str,
                   rng: Optional[np.random.Generator] = None) -> None:
        """Return a task's slot to its untrained state.

        The embedding row becomes all ones or fresh standard-normal draws,
        and a stored mask for the task is dropped.
        """
        task = self._check_task(task)
        check_embedding_init(init, rng)
        row = self.embedding_rows[task]
        row.data[...] = 1.0 if init == "ones" else rng.standard_normal(row.shape)
        row.grad = None
        if self.stored_task_masks.pop(task, None) is not None:
            self._rebuild_cumulative()

    def restore_stored_masks(self, masks: dict) -> None:
        """Take ``{task: mask of 0s and 1s}`` as the completed tasks' records."""
        self.stored_task_masks = {t: np.asarray(m, dtype=bool) for t, m in masks.items()}
        self._rebuild_cumulative()

    def clamp_embeddings(self, task: int) -> None:
        """Post-optimizer-step value clamp on a task's row: |e| <= E_MAX."""
        row = self.embedding_rows[self._check_task(task)].data
        _clip(row, E_MAX, out=row)

    def completed_tasks(self) -> list:
        return sorted(self.stored_task_masks)


def held_entries(module: Module, units=_CLAIMED) -> list:
    """``(leaf, selection)`` per leaf ``module._held(units)`` names: the entries
    whose ``grad_nullify`` factor is 0, held by default by completed tasks."""
    return [(leaf, grad_nullify(np.ones(leaf.shape), a_out, a_in) == 0.0)
            for leaf, a_out, a_in in module._held(units)]


def _protect(module: Module, out: Tensor) -> Tensor:
    """``out``, just recorded by ``module``'s forward. On a tape, once per tape,
    each leaf ``module._held`` names that is on it gets a ``grad_nullify`` hook."""
    tape = Tape.current()
    if tape is not None and module not in tape.notes:
        for leaf, a_out, a_in in module._held(_CLAIMED):
            if leaf._node_tape is tape:
                leaf.register_hook(lambda g, a_out=a_out, a_in=a_in: grad_nullify(g, a_out, a_in))
                tape.notes[module] = True  # hooks are on this tape
    return out


def _dense(x: Tensor, weight: Tensor, bias: Tensor, who: str) -> Tensor:
    """y = x Wᵀ + b for a [B, in] batch ([M, B, in] for M members); `who`
    names the layer in errors."""
    if x.ndim != weight.ndim or x.shape[-1] != weight.shape[-1]:
        lead = "B" if weight.ndim == 2 else f"{weight.shape[0]},B"
        raise ShapeError(f"{who} expects [{lead},{weight.shape[-1]}], got {x.shape}")
    return ops.linear(x, weight, bias)


def _fresh_leaves(shape: tuple, fan_in: int, rng: np.random.Generator) -> tuple:
    """A weighted layer's ``(weight, bias)``: standard-normal draws times
    sqrt(1/fan_in), and zeros over the output units (``shape[0]``)."""
    weight = Tensor(rng.standard_normal(shape) * np.sqrt(1.0 / fan_in), requires_grad=True)
    return weight, Tensor(np.zeros(shape[0]), requires_grad=True)


class Linear(Module):
    """Plain dense layer y = x Wᵀ + b on bare tensors."""

    _leaf_names = ("weight", "bias")

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features = _width(in_features, "in_features")
        self.out_features = out_features = _width(out_features, "out_features")
        self.weight, self.bias = _fresh_leaves((out_features, in_features), in_features, rng)

    def forward(self, x: Tensor) -> Tensor:
        return _dense(x, self.weight, self.bias, "linear")


class ReLU:
    def __call__(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class LayerNorm(Module):
    """Per-sample feature normalization with learnable gain/shift."""

    _leaf_names = ("gain", "shift")

    def __init__(self, n_features: int):
        self.n_features = n_features = _width(n_features, "n_features")
        self.gain = Tensor(np.ones(n_features), requires_grad=True)
        self.shift = Tensor(np.zeros(n_features), requires_grad=True)

    def reset(self) -> None:
        self.gain.data[...] = 1.0
        self.shift.data[...] = 0.0

    def forward(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gain, self.shift)


class InputSide(NamedTuple):
    """The masker whose units are a gated layer's input ends (None when they count
    as claimed: a first layer, or one reading a weighted module). Each unit covers
    ``taps`` consecutive input features, a flattened convolution's channel-major pixels."""

    masker: Optional[HATMasker] = None
    taps: int = 1

    def expand(self, per_unit: np.ndarray) -> np.ndarray:
        """A vector over the masker's units as one over input features: the
        same array when each unit covers one feature, else a new one."""
        return per_unit if self.taps == 1 else np.repeat(per_unit, self.taps, axis=-1)


class _GatedWeightedLayer(PayloadModule):
    """A weighted layer with an output masker over its ``shape[0]`` output
    units; a kind checks its geometry, then builds its leaves here."""

    _leaf_names = ("weight", "bias")

    def __init__(self, shape: tuple, fan_in: int, task_count: int, layer_tag: str,
                 rng: np.random.Generator, s_max: float):
        self.layer_tag = layer_tag = _tag(layer_tag)
        self.weight, self.bias = _fresh_leaves(shape, fan_in, rng)
        self.output_masker = HATMasker(shape[0], task_count, layer_tag + ".mask",
                                       s_max=s_max)
        # alone, a layer is a first layer; every Sequential holding it
        # rebinds this from the model's structure (see walk)
        self.input_side = InputSide()

    def _held(self, units) -> list:
        a_out, side = units(self.output_masker), self.input_side
        if not a_out.any():  # every factor 1 - min(out, in) is 1
            return []
        a_in = side.masker and side.expand(units(side.masker))
        return [(self.weight, a_out, a_in), (self.bias, a_out, None)]

    def forward(self, p: HATPayload) -> HATPayload:
        h = _protect(self, self._weighted(p.data))
        return self.output_masker.forward(p.with_data(h))


class HATLinear(_GatedWeightedLayer):
    """Dense layer whose output units are gated by a per-task mask."""

    def __init__(self, in_features: int, out_features: int, task_count: int,
                 layer_tag: str, rng: np.random.Generator, s_max: float = 400.0):
        self.in_features = in_features = _width(in_features, "in_features")
        self.out_features = out_features = _width(out_features, "out_features")
        super().__init__((out_features, in_features), in_features, task_count,
                         layer_tag, rng, s_max)

    def _weighted(self, x: Tensor) -> Tensor:
        return _dense(x, self.weight, self.bias, f"'{self.layer_tag}'")


class HATConv2d(_GatedWeightedLayer):
    """Convolution whose output channels are gated by a per-task mask."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 task_count: int, layer_tag: str, rng: np.random.Generator,
                 stride=1, padding=0, s_max: float = 400.0):
        self.in_channels = in_channels = _width(in_channels, "in_channels")
        self.out_channels = out_channels = _width(out_channels, "out_channels")
        kh, kw = ops._pair(kernel_size, "kernel_size", 1)
        self.stride = ops._pair(stride, "stride", 1)
        self.padding = ops._pair(padding, "padding", 0)
        super().__init__((out_channels, in_channels, kh, kw), in_channels * kh * kw,
                         task_count, layer_tag, rng, s_max)

    def _weighted(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias,
                          stride=self.stride, padding=self.padding)


class TaskIndexed(PayloadModule):
    """One isolated ``Linear`` or ``LayerNorm`` per task, dispatched by the
    payload's task id. Only these can be trained, checkpointed and forgotten
    slot by slot, so any other submodule is refused when built. Within a
    model, a slot's entries are all held once its task is complete."""

    def __init__(self, submodules: list, layer_tag: str):
        self.submodules = list(submodules)
        self.layer_tag = _tag(layer_tag)
        kinds = [type(sub).__name__ for sub in self.submodules]
        if not kinds or not all(isinstance(s, (Linear, LayerNorm)) for s in self.submodules):
            raise UsageError(f"task-indexed module '{layer_tag}' needs one Linear or "
                             f"LayerNorm per task, got [{', '.join(kinds)}]")

    def _check_task(self, task: Optional[int]) -> int:
        return _task_index(task, len(self.submodules), "task-indexed module",
                           self.layer_tag)

    def submodule(self, task: Optional[int]):
        """The submodule serving ``task`` (see ``_task_index``)."""
        return self.submodules[self._check_task(task)]

    def forward(self, p: HATPayload) -> HATPayload:
        return p.with_data(self.submodule(p.task)(p.data))


def task_indexed_layer_norm(n_features: int, task_count: int, layer_tag: str) -> TaskIndexed:
    return TaskIndexed([LayerNorm(n_features)
                        for _ in range(_width(task_count, "task_count"))], layer_tag)


def task_indexed_linear(in_features: int, out_features: int, task_count: int,
                        layer_tag: str, rng: np.random.Generator) -> TaskIndexed:
    # identical initialization across tasks: fresh submodules are
    # indistinguishable until their task trains them apart
    task_count = _width(task_count, "task_count")
    first = Linear(in_features, out_features, rng)
    return TaskIndexed([first] + [copy.deepcopy(first) for _ in range(task_count - 1)],
                       layer_tag)


class Sequential(PayloadModule):
    """Payload pipeline: gated modules take the payload, plain ones its data.

    Building a pipeline walks it once, keeping the parts (``walk``), the
    maskers and a leaf table (``_leaves``), and binds each gated layer's
    input side, so a model whose widths cannot be protected is refused
    right here, as is one that mixes member modules with others or member
    counts, that reaches one trainable parameter twice (a ``ReLU`` or a
    function may repeat), whose parts write one checkpoint entry name twice,
    or whose weighted plain module skips ``Module.__call__`` and with it
    ``_protect``. A module with parameters belongs to one model:
    one that another live model holds is refused, while a nested
    ``Sequential`` hands its modules up to the pipeline built around it.
    Weighted plain modules get its maskers as ``guards``, and so does every
    trainable leaf but the embedding rows, for ``training.SGD`` to see when
    their records change; ``members`` is the member count.
    """

    def __init__(self, *modules):
        self.steps = list(modules)
        # the masker whose units the next module reads, and its owner: a list
        # handed down, not a closure cell, so the walk leaves no reference cycle
        walked = tuple(_visit(self.steps, "", [None, None]))
        counts, reached, table = set(), {}, []
        nested, owned = list(_pipelines(self)), []
        for name, module, _ in walked:
            for row in _leaves(name, module):
                where, _, leaf, _ = row
                if leaf in reached:
                    raise ShapeError(f"steps {reached[leaf]} and {where} reach one "
                                     f"trainable parameter; use each module once")
                reached[leaf] = where
                table.append(row)
            if isinstance(module, Module):
                if (module._leaf_names and not isinstance(module, _GatedWeightedLayer)
                        and type(module).__call__ is not Module.__call__):
                    raise UsageError(f"step {name}'s {type(module).__name__} has trainable "
                                     f"leaves but its own __call__; implement forward, "
                                     f"which Module.__call__ runs under protection")
                counts.add(module.members)
                indexed = module.submodules if isinstance(module, TaskIndexed) else []
                for part in [module] + indexed:
                    holder = _MODEL_OF.get(part)
                    holder = holder and holder()
                    if holder is not None and not any(holder is p for p in nested):
                        raise UsageError(f"step {name}'s {type(part).__name__} belongs "
                                         f"to another model; build each model from "
                                         f"its own modules")
                    owned.append(part)
        if len(counts) > 1:
            raise ShapeError("a model's modules must all be unstacked or all have "
                             "one member count, got "
                             + ", ".join(sorted(map(str, counts))))
        self.members = counts.pop() if counts else None
        maskers = tuple(m for _, m, _ in walked if isinstance(m, HATMasker))
        written = {}  # checkpoint entry name -> the step writing it
        for where, entry in ([(w, e) for w, e, _, _ in table if e is not None]
                             + [(n, f"{m.layer_tag}/embeddings") for n, m, _ in walked
                                if isinstance(m, HATMasker)]):
            if entry in written:
                raise UsageError(f"steps {written[entry]} and {where} both write checkpoint "
                                 f"entry '{entry}'; give each layer a tag of its own")
            written[entry] = where
        for _, module, side in walked:
            if side is not None:
                module.input_side = side
            elif isinstance(module, Module) and module._leaf_names:
                module.guards = maskers
            elif isinstance(module, TaskIndexed):
                for t, sub in enumerate(module.submodules):
                    sub.guards, sub.slot = maskers, t
        for _, entry, leaf, _ in table:
            if entry is not None:  # an embedding row would hold its masker: a cycle
                leaf.guards = maskers
        for part in owned:
            _MODEL_OF[part] = weakref.ref(self)
        self._parts, self._maskers, self._leaf_table = walked, maskers, tuple(table)

    def forward(self, p: HATPayload) -> HATPayload:
        for m in self.steps:
            p = m.forward(p) if isinstance(m, PayloadModule) else p.with_data(m(p.data))
        return p

    def maskers(self) -> list:
        """Every masker in pipeline order (standalone and layer-owned)."""
        return list(self._maskers)

    def task_parameters(self, task: Optional[int]) -> list:
        """The leaves that task's training may move: those every task trains,
        and the task's own slots (none for ``task`` None)."""
        if task is not None:
            for _, m, _ in self._parts:
                if isinstance(m, (HATMasker, TaskIndexed)):
                    task = m._check_task(task)
        return [leaf for _, _, leaf, slot in self._leaf_table if slot in (None, task)]


def _pipelines(model: Sequential):
    """``model`` and every ``Sequential`` nested in it."""
    yield model
    for step in model.steps:
        if isinstance(step, Sequential):
            yield from _pipelines(step)


def _leaves(name: str, module) -> list:
    """A leaf table row ``(step, entry, leaf, task)`` for each trainable leaf
    a walked module holds itself: step ``"4[1]"`` is task 1's submodule at
    step 4; ``entry`` names its checkpoint entry (None for an embedding row,
    stacked in its masker's entry); ``task`` is the slot it serves, None
    when every task trains it."""
    if isinstance(module, HATMasker):
        return [(name, None, row, t) for t, row in enumerate(module.embedding_rows)]
    if isinstance(module, TaskIndexed):
        return [(f"{name}[{t}]", f"{module.layer_tag}/{t}/{attr}", getattr(sub, attr), t)
                for t, sub in enumerate(module.submodules) for attr in sub._leaf_names]
    if not isinstance(module, Module):
        return []
    prefix = module.layer_tag if isinstance(module, _GatedWeightedLayer) else f"step{name}"
    return [(name, f"{prefix}/{attr}", getattr(module, attr), None)
            for attr in module._leaf_names]


def refuse_members(model: Sequential, what: str) -> None:
    """Refuse a member model with a one-line ``UsageError``: checkpoints
    and ``forget_task`` hold and erase one model's tasks, not M members'."""
    if model.members is not None:
        raise UsageError(f"{what} serves unstacked models, not a model of "
                         f"{model.members} members")


def stack_members(models) -> Sequential:
    """One member model from M unstacked models of one structure.

    Each parameter becomes the models' copies stacked, in the order given,
    along a new leading member axis, so member m computes on [M,B,...]
    data exactly what ``models[m]`` computes on [B,...] data (see
    ``tensor.linear``); the models themselves are left as they were. Only
    ``HATMasker``, ``Linear``, ``HATLinear``, ``ReLU`` and nested
    ``Sequential`` have a member form; anything else, member models, and
    models that differ in structure, widths, task count, mask scale bound or
    completed tasks, are refused.
    """
    models = list(models)
    if not models or not all(isinstance(m, Sequential) and m.members is None
                             for m in models):
        raise UsageError("stack_members needs a nonempty list of unstacked "
                         "Sequential models")
    return _stack(models, len(models))


def _stack(modules: list, members: int):
    first = modules[0]
    if any(type(m) is not type(first) for m in modules):
        raise ShapeError(f"members differ in structure: "
                         f"{sorted({type(m).__name__ for m in modules})}")
    if isinstance(first, Sequential):
        if len({len(m.steps) for m in modules}) != 1:
            raise ShapeError("members differ in structure: pipelines of "
                             f"{sorted({len(m.steps) for m in modules})} steps")
        return Sequential(*[_stack([m.steps[i] for m in modules], members)
                            for i in range(len(first.steps))])
    if isinstance(first, ReLU):
        return first
    if not isinstance(first, (HATMasker, Linear, HATLinear)):
        raise UsageError(f"a {type(first).__name__} has no member form; only "
                         f"HATMasker, Linear, HATLinear, ReLU and Sequential stack")
    stacked = copy.copy(first)
    stacked.members = members
    if isinstance(first, HATMasker):
        for name in ("n_features", "task_count", "s_max"):
            if len({getattr(m, name) for m in modules}) != 1:
                raise ShapeError(f"members of masker '{first.layer_tag}' differ in {name}")
        if len({tuple(m.completed_tasks()) for m in modules}) != 1:
            raise ShapeError(f"members of masker '{first.layer_tag}' differ in "
                             f"completed tasks")
        stacked.embedding_rows = [_stack_leaves([m.embedding_rows[t] for m in modules])
                                  for t in range(first.task_count)]
        stacked.restore_stored_masks({t: np.stack([m.stored_task_masks[t] for m in modules])
                                      for t in first.completed_tasks()})
        return stacked
    stacked.weight = _stack_leaves([m.weight for m in modules])
    stacked.bias = _stack_leaves([m.bias for m in modules])
    if isinstance(first, HATLinear):
        stacked.output_masker = _stack([m.output_masker for m in modules], members)
    return stacked


def _stack_leaves(leaves: list) -> Tensor:
    if len({t.shape for t in leaves}) != 1:
        raise ShapeError(f"members differ in parameter shape: "
                         f"{sorted({t.shape for t in leaves})}")
    return Tensor(np.stack([t.data for t in leaves]), requires_grad=True)


def _input_side(layer: _GatedWeightedLayer, masker: Optional[HATMasker],
                owner) -> InputSide:
    """How `layer`'s input features map onto the units of `masker`, the most
    recent masker before it with only functions in between, if any (`owner`
    is the module it belongs to)."""
    if masker is None:
        return InputSide()
    # input features, or a conv's input channels
    width = layer.in_features if isinstance(layer, HATLinear) else layer.in_channels
    units = masker.n_features
    if width == units:
        return InputSide(masker)
    if (isinstance(layer, HATLinear) and isinstance(owner, HATConv2d)
            and width % units == 0):
        return InputSide(masker, width // units)  # a flattened convolution
    raise ShapeError(f"'{layer.layer_tag}' reads {width} input features, which "
                     f"do not map onto the {units} units of masker "
                     f"'{masker.layer_tag}'")


def walk(model: Sequential) -> tuple:
    """Every module of a pipeline in run order, nested ``Sequential`` flattened,
    as its build walked them: ``(name, module, input_side)`` parts.

    ``name`` is the module's position: ``"3"`` for step 3, ``"3.1"`` for
    step 1 of a ``Sequential`` at step 3. A gated layer is followed by its
    output masker, under the same name, and is the only module with an
    ``InputSide`` (None for the rest), the one bound to it: the most recent
    masker before it in run order with only functions between them, or none
    when a weighted module (a ``Linear``, a ``TaskIndexed``, a module of the
    user's own) sits there or the layer comes first.
    """
    return model._parts


def _visit(steps, prefix: str, last: list):
    for i, module in enumerate(steps):
        name = f"{prefix}{i}"
        if isinstance(module, Sequential):
            yield from _visit(module.steps, name + ".", last)
        elif isinstance(module, _GatedWeightedLayer):
            yield name, module, _input_side(module, *last)
            last[:] = (module.output_masker, module)
            yield name, module.output_masker, None
        else:
            if isinstance(module, HATMasker):
                last[:] = (module, module)
            elif isinstance(module, Module):  # its outputs are no masker's units
                last[:] = (None, None)
            yield name, module, None
