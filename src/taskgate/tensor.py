"""Reverse-mode automatic differentiation on numpy arrays.

The graph is recorded on an explicit :class:`Tape`: operations executed while
a tape is active append nodes in creation order, and ``backward`` replays the
node list in exact reverse creation order. Outside a tape, every operation is
a plain numpy computation with no bookkeeping, which is what evaluation paths
use. Recorded tensors hold their tape weakly, so a graph lives exactly as
long as the caller keeps its tape.

Gradient hooks attach to individual nodes. Each hook transforms an incoming
gradient before it is accumulated into the node's gradient slot; hooks on one
node fire in registration order, so registering ``f`` then ``g`` stores
``g(f(upstream))``. What a module must remember about one recording (hooks
it has registered, a mask a later op may reuse) goes in the tape's ``notes``
dict, so it lives and dies with the tape instead of on the module.

Hot compositions get one node where the generic ops would record several,
with the generic ops' arithmetic in their float order. The fused nodes are:

* ``linear`` (here): ``add(matmul(x, permute(w)), b)``;
* ``gate`` (``layers``): data times a task's sigmoid mask over the
  embedding row;
* ``objective`` (``training``): ``train_task``'s cross-entropy plus the
  weighted capacity penalty, over the loss and the embedding rows, in place
  of the live masks' ``scale`` and ``sigmoid`` nodes and the generic ops of
  ``regularizer``, ``scale`` and ``add``.

Other modules record theirs through the same recorder, ``_record``.

A leading member axis lets M independent models run as one (see
``layers.stack_members``). ``linear`` takes [M,B,in] data with [M,out,in]
weights and an [M,out] bias, and ``softmax_cross_entropy`` takes [M,B,C]
logits and gives the [M] member losses, each through the one code path
it shares with the unstacked form. Their products are ``np.matmul``'s
stacks of per-member products and their reductions run along the class or
the batch axis alone, so member m gets the bits of the unstacked call on
its slices. The elementwise ops serve members as they are; ``matmul``,
``layer_norm`` and ``conv2d`` refuse a member axis through their shape
checks.

Everything defaults to double precision. Single precision is available by
constructing tensors with ``dtype=np.float32``.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class UsageError(ValueError):
    """An operation was called in a way its contract forbids."""


class StateError(RuntimeError):
    """An object was driven through an invalid state transition."""


class HookHandle:
    """Removal token for a registered gradient hook."""

    def __init__(self, node: "Node", hook_id: int):
        self._node = node
        self._hook_id = hook_id

    def remove(self) -> None:
        self._node.hooks = [(h, fn) for h, fn in self._node.hooks if h != self._hook_id]


class Node:
    __slots__ = ("nid", "op", "parents", "backward_fn", "tensor", "hooks", "grad")

    def __init__(self, nid, op, parents, backward_fn, tensor):
        self.nid = nid
        self.op = op
        self.parents = parents          # per input: node id or None (non-differentiated)
        self.backward_fn = backward_fn  # out-gradient -> tuple of input gradients
        self.tensor = tensor
        self.hooks = []                 # [(hook_id, transform)] in registration order
        self.grad = None


class Tape:
    """Append-only record of one forward pass.

    Use as a context manager around the forward computation::

        with Tape() as tape:
            loss = model(x)
        tape.backward(loss)

    A tape is consumed by exactly one backward pass. Tapes are
    single-threaded; the active tape is tracked per thread.

    The tape holds its nodes and they hold the recorded tensors, but a
    tensor holds its tape only weakly: dropping the last reference to a
    tape frees its graph at once, without the cycle collector, and every
    tensor it recorded then reads ``node_id`` None, keeping its value and
    gradient. Keep the tape (``as tape``) until its backward has run.

    ``notes`` maps a module or a parameter to what was noted about it in
    this recording; it is dropped with the tape.
    """

    _tls = threading.local()

    def __init__(self):
        self.nodes: list[Node] = []
        self.notes: dict = {}
        self.consumed = False
        self._next_hook_id = 0
        self._ref = weakref.ref(self)  # what recorded tensors hold

    @classmethod
    def current(cls) -> Optional["Tape"]:
        return getattr(cls._tls, "active", None)

    def __enter__(self) -> "Tape":
        if Tape.current() is not None:
            raise UsageError("tapes do not nest; exit the active tape first")
        Tape._tls.active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._tls.active = None
        return False

    def _add_node(self, op, parents, backward_fn, tensor) -> Node:
        node = Node(len(self.nodes), op, parents, backward_fn, tensor)
        self.nodes.append(node)
        return node

    def register_hook(self, node_id: int, transform: Callable[[np.ndarray], np.ndarray]) -> HookHandle:
        """Attach a shape-preserving gradient transform to a node."""
        if not 0 <= node_id < len(self.nodes):
            raise UsageError(f"unknown node id {node_id}")
        node = self.nodes[node_id]
        hook_id = self._next_hook_id
        self._next_hook_id += 1
        node.hooks.append((hook_id, transform))
        return HookHandle(node, hook_id)

    @staticmethod
    def _hooked(node: Node, grad: np.ndarray) -> np.ndarray:
        for _, transform in node.hooks:
            out = np.asarray(transform(grad))
            if out.shape != grad.shape:
                raise ShapeError(
                    f"gradient hook on node {node.nid} changed shape "
                    f"{grad.shape} -> {out.shape}"
                )
            grad = out
        return grad

    def backward(self, loss: "Tensor") -> None:
        if loss.shape != ():
            raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
        if loss._tape_ref is not self._ref:
            raise UsageError("loss was not recorded on this tape")
        if self.consumed:
            raise StateError("tape already consumed by backward; record a new one")
        self.consumed = True

        seed_node = self.nodes[loss._node_id]
        seed = np.array(1, dtype=loss.data.dtype)
        seed_node.grad = self._hooked(seed_node, seed) if seed_node.hooks else seed

        nodes = self.nodes
        for node in reversed(nodes):
            if node.grad is None or node.backward_fn is None:
                continue
            input_grads = node.backward_fn(node.grad)
            for parent_id, g in zip(node.parents, input_grads):
                if parent_id is None or g is None:
                    continue
                parent = nodes[parent_id]
                if type(g) is not np.ndarray:
                    g = np.asarray(g)
                if parent.hooks:
                    g = self._hooked(parent, g)
                parent.grad = g if parent.grad is None else parent.grad + g

        for node in nodes:
            t = node.tensor
            if node.grad is None or t is None or not t.requires_grad:
                continue
            if node.op == "leaf":
                t.grad = node.grad if t.grad is None else t.grad + node.grad
            else:
                t.grad = node.grad


class Tensor:
    """A shaped array of real values, optionally tracked on a tape.

    ``requires_grad`` marks trainable leaves; a leaf only joins a tape when an
    operation first touches it while that tape is active, and ``.grad``
    accumulates across backward passes until cleared.
    """

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None and not (isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64)):
            dtype = DEFAULT_DTYPE
        arr = np.asarray(data, dtype=dtype)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps 0-d shape, unlike calling it blind
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape_ref: Optional[weakref.ref] = None
        self._node_id: Optional[int] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def _node_tape(self) -> Optional[Tape]:
        """The tape this tensor last joined while it lives, held weakly. Read
        by this name in perfbench's tracer (``perfbench/per_layer.py``)."""
        ref = self._tape_ref
        return None if ref is None else ref()

    @property
    def node_id(self) -> Optional[int]:
        """Node id on the tape this tensor last joined, if any."""
        return self._node_id if self._node_tape is not None else None

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def register_hook(self, transform: Callable[[np.ndarray], np.ndarray]) -> HookHandle:
        """Register a gradient hook on this tensor's live tape node."""
        tape = self._node_tape
        if tape is None:
            raise UsageError("tensor has no node; use it inside an active Tape first")
        return tape.register_hook(self._node_id, transform)

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # operator sugar; constants are wrapped, so only tensor operands get gradients
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sigmoid(self):
        return sigmoid(self)

    def relu(self):
        return relu(self)

    def clamp(self, lo, hi):
        return clamp(self, lo, hi)

    def scale(self, c):
        return scale(self, c)

    def reshape(self, shape):
        return reshape(self, shape)

    def permute(self, axes):
        return permute(self, axes)

    def transpose(self):
        if self.ndim != 2:
            raise ShapeError(f"transpose expects a matrix, got shape {self.shape}")
        return permute(self, (1, 0))

    def sum(self):
        return reduce_sum(self)

    def mean(self):
        return reduce_mean(self)


def _leaf_id(tape: Tape, t: Tensor) -> int:
    if t._tape_ref is tape._ref:
        return t._node_id
    node = tape._add_node("leaf", (), None, t)
    t._tape_ref = tape._ref
    t._node_id = node.nid
    return node.nid


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn) -> Tensor:
    """Wrap an op's result as ``Tensor()`` would (an ndarray of the op's
    dtype, 0-d for a numpy scalar, C-contiguous) and, on an active tape with
    an input that requires a gradient, append its node."""
    if type(out_data) is not np.ndarray:
        out_data = np.asarray(out_data)
    if not out_data.flags.c_contiguous:
        out_data = np.ascontiguousarray(out_data)  # never 0-d: those are contiguous
    out = object.__new__(Tensor)  # the fields Tensor.__init__ sets
    out.data = out_data
    out.grad = None
    out._tape_ref = out._node_id = None
    tape = getattr(Tape._tls, "active", None)
    track = False
    if tape is not None:
        parents = []
        for t in inputs:
            if t.requires_grad:
                track = True
                parents.append(_leaf_id(tape, t))
            else:
                parents.append(None)
    out.requires_grad = track
    if track:
        out._node_id = tape._add_node(op, tuple(parents), backward_fn, out).nid
        out._tape_ref = tape._ref
    return out


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=like.data.dtype)
    if arr.ndim == 0 and like.ndim > 0:
        arr = np.full(like.shape, arr[()], dtype=like.data.dtype)
    return Tensor(arr, requires_grad=False)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs [m,k] x [k,n], got {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data

    def backward_fn(g):
        return g @ b_data.T, a_data.T @ g

    return _record("matmul", (a, b), a_data @ b_data, backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Dense layer ``x Wᵀ + b`` of a [B,in] batch with [out,in] weights, or
    of M members at once: a [M,B,in] batch, [M,out,in] weights, [M,out] bias.

    One node with the arithmetic of ``add(matmul(x, permute(weight)), bias)``:
    a contiguous copy of Wᵀ, the product, then the bias. Backward gives
    ``g @ Wᵀ.T``, ``(xᵀ @ g)ᵀ`` and ``g`` summed over the batch; when ``x``
    does not require a gradient, its product is skipped. Over a member axis
    every product is ``np.matmul``'s stack of per-member products, so member
    m's bits are those of the unstacked call on its slices.
    """
    xs, ws = x.data.shape, weight.data.shape
    if (len(xs) != len(ws) or len(xs) not in (2, 3) or xs[:-2] != ws[:-2]
            or xs[-1] != ws[-1] or bias.data.shape != ws[:-1]):
        raise ShapeError(f"linear needs [B,in] input, [out,in] weight and [out] "
                         f"bias, each with one leading member axis or none, "
                         f"got {xs}, {ws}, {bias.shape}")
    x_data = x.data
    wt = np.ascontiguousarray(weight.data.swapaxes(-1, -2))
    need_gx = x.requires_grad  # decided when recorded, as the tape's parent ids are

    def backward_fn(g):
        gx = g @ wt.swapaxes(-1, -2) if need_gx else None
        return gx, (x_data.swapaxes(-1, -2) @ g).swapaxes(-1, -2), g.sum(axis=-2)

    return _record("linear", (x, weight, bias),
                   x_data @ wt + bias.data[..., None, :], backward_fn)


def _feature_axes(full_shape: tuple) -> tuple:
    # all axes except the feature axis (axis 1 for rank >= 2)
    return (0,) + tuple(range(2, len(full_shape)))


def _binary(op: str, a: Tensor, b, fwd, grad_a, grad_b) -> Tensor:
    """Shared machinery for elementwise binary ops.

    Equal shapes, or one operand a rank-1 vector broadcast across the other's
    feature axis (axis 1 of a rank >= 2 tensor). No other broadcast exists.
    """
    b = _wrap(b, a)
    if a.shape == b.shape:
        out = fwd(a.data, b.data)

        def backward_fn(g):
            return grad_a(g, a.data, b.data), grad_b(g, a.data, b.data)

        return _record(op, (a, b), out, backward_fn)

    # vector-over-feature-axis broadcast, in either operand order
    if b.ndim == 1 and a.ndim >= 2 and a.shape[1] == b.shape[0]:
        vec, full, vec_first = b, a, False
    elif a.ndim == 1 and b.ndim >= 2 and b.shape[1] == a.shape[0]:
        vec, full, vec_first = a, b, True
    else:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform")

    expand = (1, vec.shape[0]) + (1,) * (full.ndim - 2)
    vexp = vec.data.reshape(expand)
    axes = _feature_axes(full.shape)
    a_data = vexp if vec_first else full.data
    b_data = full.data if vec_first else vexp

    def backward_fn(g):
        ga = grad_a(g, a_data, b_data)
        gb = grad_b(g, a_data, b_data)
        if vec_first:
            ga = ga.sum(axis=axes)
        else:
            gb = gb.sum(axis=axes)
        return ga, gb

    return _record(op, (a, b), fwd(a_data, b_data), backward_fn)


def add(a: Tensor, b) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Tensor, b) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Tensor, b) -> Tensor:
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Numerically stable numpy sigmoid, no tape involvement.

    exp only ever sees -|x|, so it never overflows: 1/(1+z) for x >= 0 and
    z/(1+z) below, with z = exp(min(x, -x)); that minimum is -|x| but keeps
    a NaN's sign bit. Saturates to exact 0.0/1.0 at large |x|, which
    downstream mask logic relies on.
    """
    x = np.asarray(x)
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    z = np.exp(np.minimum(x, -x))
    d = 1.0 + z
    return np.where(x >= 0, 1.0 / d, z / d)


def sigmoid(x: Tensor) -> Tensor:
    y = sigmoid_values(x.data)

    def backward_fn(g):
        return (g * y * (1.0 - y),)

    return _record("sigmoid", (x,), y, backward_fn)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward_fn(g):
        return (g * mask,)

    # fmax, not where(mask, ...): no branch per element, and the same bits,
    # since fmax(x, 0.0) returns +0.0 for -0.0 and NaN
    return _record("relu", (x,), np.fmax(x.data, 0.0), backward_fn)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is 1 inside the range, 0 outside."""
    inside = (x.data >= lo) & (x.data <= hi)

    def backward_fn(g):
        return (g * inside,)

    return _record("clamp", (x,), np.clip(x.data, lo, hi), backward_fn)


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward_fn(g):
        return (g * c,)

    return _record("scale", (x,), x.data * c, backward_fn)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = x.shape
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"cannot reshape {old} into {shape}") from None

    def backward_fn(g):
        return (g.reshape(old),)

    return _record("reshape", (x,), out, backward_fn)


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permutation {axes} invalid for rank {x.ndim}")
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        return (g.transpose(inverse),)

    return _record("permute", (x,), x.data.transpose(axes), backward_fn)


def _pair(v, name: str, least: int) -> tuple:
    """``v`` as an (h, w) pair of ints >= ``least``; anything else is refused."""
    pair = (v, v) if isinstance(v, (int, np.integer)) else v
    if (not isinstance(pair, (tuple, list)) or len(pair) != 2
            or not all(isinstance(p, (int, np.integer)) and not isinstance(p, bool)
                       and p >= least for p in pair)):
        raise UsageError(f"{name} must be an int >= {least} or a pair of them, got {v!r}")
    return int(pair[0]), int(pair[1])


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, ho: int, wo: int) -> np.ndarray:
    c, b = xp.shape[0], xp.shape[3]
    cols = np.empty((c, kh, kw, ho, wo, b), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i:i + sh * ho:sh, j:j + sw * wo:sw]
    return cols.reshape(c * kh * kw, ho * wo * b)


def _col2im(cols: np.ndarray, shape: tuple, kh: int, kw: int, sh: int, sw: int, ho: int, wo: int) -> np.ndarray:
    c, b = shape[0], shape[3]
    xp = np.zeros(shape, dtype=cols.dtype)
    cols = cols.reshape(c, kh, kw, ho, wo, b)
    for i in range(kh):
        for j in range(kw):
            xp[:, i:i + sh * ho:sh, j:j + sw * wo:sw] += cols[:, i, j]
    return xp


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=1, padding=0) -> Tensor:
    """Cross-correlation of [B,Cin,H,W] with [Cout,Cin,kh,kw] kernels.

    The input is padded once into a [Cin, Hp, Wp, B] buffer and unfolded to
    columns laid out [Cin*kh*kw, Ho*Wo*B], batch innermost, so each kernel
    tap copies contiguous runs of B values. The forward pass and each
    backward contraction is then one BLAS matrix product against the
    [Cout, Cin*kh*kw] kernel matrix. When ``x`` does not require a gradient
    (raw images into a first layer), backward computes no input gradient
    and skips the fold back to image shape.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d needs rank-4 input and weight, got {x.shape}, {weight.shape}")
    bsz, cin, h, w = x.shape
    wshape = weight.shape
    cout, cin_w, kh, kw = wshape
    if cin != cin_w or min(kh, kw) < 1 or (bias is not None and bias.shape != (cout,)):
        raise ShapeError(f"conv2d needs matching channels, a nonempty kernel and a "
                         f"[Cout] bias: input {x.shape}, weight {wshape}, "
                         f"bias {None if bias is None else bias.shape}")
    sh, sw = _pair(stride, "stride", 1)
    ph, pw = _pair(padding, "padding", 0)
    hp, wp = h + 2 * ph, w + 2 * pw
    if kh > hp or kw > wp:
        raise ShapeError(f"kernel {(kh, kw)} larger than padded input {(hp, wp)}")
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1

    xp = np.zeros((cin, hp, wp, bsz), dtype=x.data.dtype)
    xp[:, ph:ph + h, pw:pw + w] = x.data.transpose(1, 2, 3, 0)
    cols = _im2col(xp, kh, kw, sh, sw, ho, wo)           # [Cin*kh*kw, Ho*Wo*B]
    wflat = weight.data.reshape(cout, -1)
    out = wflat @ cols                                   # [Cout, Ho*Wo*B]
    if bias is not None:
        out += bias.data[:, None]
    out = np.ascontiguousarray(out.reshape(cout, ho, wo, bsz).transpose(3, 0, 1, 2))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    need_gx = x.requires_grad  # decided when recorded, as the tape's parent ids are
    has_bias = bias is not None

    def backward_fn(g):
        gt = g.transpose(1, 2, 3, 0).reshape(cout, -1)   # [Cout, Ho*Wo*B]
        gw = (gt @ cols.T).reshape(wshape)
        gx = None
        if need_gx:
            gxp = _col2im(wflat.T @ gt, (cin, hp, wp, bsz), kh, kw, sh, sw, ho, wo)
            gx = np.ascontiguousarray(gxp[:, ph:ph + h, pw:pw + w].transpose(3, 0, 1, 2))
        if not has_bias:
            return gx, gw
        return gx, gw, gt.sum(axis=1)

    return _record("conv2d", inputs, out, backward_fn)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization of [B,F] with learnable gain and shift.

    Centres each row once and reuses it for the variance (over F, not F-1)
    and for x-hat. Every row mean is a sum, then a division by F: the bits
    of ``np.mean``/``np.var``, without their second centring or wrappers.
    """
    if x.ndim != 2 or gain.shape != (x.shape[1],) or shift.shape != (x.shape[1],):
        raise ShapeError(f"layer_norm needs [B,F] with [F] gain/shift, got "
                         f"{x.shape}, {gain.shape}, {shift.shape}")
    nfeat = x.shape[1]

    def row_mean(v):
        return np.add.reduce(v, axis=1, keepdims=True) / nfeat

    d = x.data - row_mean(x.data)
    inv = 1.0 / np.sqrt(row_mean(d * d) + eps)
    xhat = d * inv
    out = gain.data * xhat + shift.data

    def backward_fn(g):
        dxhat = g * gain.data
        dx = inv * (dxhat - row_mean(dxhat) - xhat * row_mean(dxhat * xhat))
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _record("layer_norm", (x, gain, shift), out, backward_fn)


def reduce_sum(x: Tensor) -> Tensor:
    shape = x.shape

    def backward_fn(g):
        return (np.full(shape, g, dtype=x.data.dtype),)

    return _record("sum", (x,), np.asarray(x.data.sum(), dtype=x.data.dtype), backward_fn)


def reduce_mean(x: Tensor) -> Tensor:
    shape, n = x.shape, x.size

    def backward_fn(g):
        return (np.full(shape, g / n, dtype=x.data.dtype),)

    return _record("mean", (x,), np.asarray(x.data.mean(), dtype=x.data.dtype), backward_fn)


def check_integer_labels(labels: np.ndarray) -> None:
    """Refuse labels whose dtype is not an integer one (bool and float
    included), which indexing would truncate, with ``UsageError``."""
    if labels.dtype.kind not in "iu":
        raise UsageError(f"labels must be integers, got dtype {labels.dtype}")


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of [B,C] logits against integer labels in [0,C).

    Over a member axis, [M,B,C] logits and [M,B] labels give the [M] vector
    of each member's mean, with the bits of the unstacked call on its slice:
    every reduction runs along the class or the batch axis alone. An empty
    batch, and labels of any other dtype (bool and float included), are
    refused with ``UsageError``."""
    z = logits.data
    shape = z.shape
    if len(shape) not in (2, 3):
        raise ShapeError(f"cross-entropy needs [B,C] or [M,B,C] logits, got {shape}")
    labels = np.asarray(labels)
    bsz, ncls = shape[-2:]
    if labels.shape != shape[:-1]:
        raise UsageError(f"labels must have shape {shape[:-1]}, got {labels.shape}")
    if bsz == 0:
        raise UsageError("cross-entropy needs at least one sample, got an empty batch")
    check_integer_labels(labels)
    if labels.min() < 0 or labels.max() >= ncls:
        raise UsageError(f"labels must lie in [0, {ncls}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    rows = labels.size  # every (member, sample) as one row of C classes
    picked = (np.arange(rows), labels.reshape(rows).astype(np.int64, copy=False))

    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=-1, keepdims=True)
    lse = zmax[..., 0] + np.log(sez[..., 0])
    true = z.reshape(rows, ncls)[picked].reshape(lse.shape)
    loss = np.asarray((lse - true).mean(axis=-1), dtype=z.dtype)
    softmax = ez / sez

    def backward_fn(g):
        grad = softmax.copy()
        grad.reshape(rows, ncls)[picked] -= 1.0
        return (grad * (g / bsz)[..., None, None],)

    return _record("softmax_cross_entropy", (logits,), loss, backward_fn)


def backward(loss: Tensor) -> None:
    """Run reverse-mode accumulation from a scalar loss."""
    tape = loss._node_tape
    if tape is None:
        raise UsageError("loss is on no live tape; record it in `with Tape() as tape:` and keep `tape`")
    tape.backward(loss)
