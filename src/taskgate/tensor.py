"""Reverse-mode automatic differentiation on numpy arrays.

The graph is recorded on an explicit :class:`Tape`: operations executed while
a tape is active append nodes in creation order, and ``backward`` replays the
node list in exact reverse creation order. Outside a tape, every operation is
a plain numpy computation with no bookkeeping, which is what evaluation paths
use. Recorded tensors hold their tape weakly, so a graph lives exactly as
long as the caller keeps its tape.

Every op is a function of this module (``add``, ``matmul``, ``reduce_sum``
and the rest); a ``Tensor`` has no operator methods. The binary ops take
tensors only: a constant goes in as a ``Tensor`` of its own, which gets no
gradient.

Backward runs only as ``tape.backward(loss)``, and only leaves keep a
``.grad``. A hook is registered through the tensor that receives it and
transforms each gradient arriving there before it is accumulated; hooks on
one tensor fire in registration order, so registering ``f`` then ``g``
gives ``g(f(upstream))``. A hook is how to see an intermediate's gradient.
A leaf's ``on_join`` callback, if set, runs as the leaf joins a tape. What
a module notes about one recording (a mask a later op may reuse) goes in
the tape's ``notes`` dict, so it lives and dies with the tape.

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

An op's result keeps its operands' memory order: elementwise ops follow
numpy's K order, so C-order operands give C-order results. Other orders
start at ``conv2d``, whose [B,Cout,Ho,Wo] output is a permuted view laid
out [Cout,Ho,Wo,B], batch innermost, as it computes it. A gate or ReLU on
it keeps that order and a flatten is a view of it, so the next conv reads
it with no transposing copy. Its input gradient is the same view of a dense
[Cin,H,W,B] array, so the backward of a ReLU or gate before it multiplies
dense arrays. ``permute`` copies into a fresh C-order array, and a leaf's
``.grad`` is always C-order.

Everything defaults to double precision. Single precision is available by
constructing tensors with ``dtype=np.float32``; a completed task's outputs
keep it, since its stored mask is read in its embedding row's dtype.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64
# An unrecorded conv2d runs in tiles of samples whose columns take at most
# _TILE_BYTES. Tiles hold whole blocks of _COLUMN_BLOCK columns and only
# products at most _TILE_DEPTH deep are tiled: there a BLAS product gives
# each column the bits it gets in a wider product (measured on OpenBLAS
# 0.3.31; a partial block, or a deeper product split in depth, can differ).
_TILE_BYTES = 1 << 20
_COLUMN_BLOCK = 64
_TILE_DEPTH = 384


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class UsageError(ValueError):
    """An operation was called in a way its contract forbids."""


class StateError(RuntimeError):
    """An object was driven through an invalid state transition."""


class HookHandle:
    """Removal token for one hook registration: it holds its own entry, the
    node nothing of it (so no cycle). Removing twice is a no-op."""

    def __init__(self, hooks: list, entry: tuple):
        self._hooks = hooks
        self._entry = entry

    def remove(self) -> None:
        self._hooks[:] = [e for e in self._hooks if e is not self._entry]


class Node:
    __slots__ = ("nid", "op", "parents", "backward_fn", "tensor", "hooks", "grad")

    def __init__(self, nid, op, parents, backward_fn, tensor):
        self.nid = nid
        self.op = op
        self.parents = parents          # per input: node id or None (non-differentiated)
        self.backward_fn = backward_fn  # out-gradient -> tuple of input gradients
        self.tensor = tensor
        self.hooks = []                 # [(transform,)], one per registration, in order
        self.grad = None


class Tape:
    """Append-only record of one forward pass.

    Use as a context manager around the forward computation::

        with Tape() as tape:
            loss = model(x)
        tape.backward(loss)

    A tape is consumed by exactly one backward pass, which adds each leaf's
    gradient to its ``.grad``. Tapes are single-threaded; the active tape
    is tracked per thread.

    The tape holds its nodes and they hold the recorded tensors, but a
    tensor holds its tape only weakly: dropping the last reference to a
    tape frees its graph at once, without the cycle collector, and every
    tensor it recorded then reads ``node_id`` None, keeping its value and
    gradient. Keep the tape (``as tape``) until its backward has run.

    ``notes`` maps a parameter to what was noted about it in this
    recording; it is dropped with the tape.
    """

    _tls = threading.local()

    def __init__(self):
        self.nodes: list[Node] = []
        self.notes: dict = {}
        self.consumed = False
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

    @staticmethod
    def _hooked(node: Node, grad: np.ndarray) -> np.ndarray:
        for (transform,) in node.hooks:
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

        for node in nodes:  # only leaves keep a gradient, always in C order
            if node.op == "leaf" and node.grad is not None:
                t, g = node.tensor, node.grad
                if not g.flags.c_contiguous:
                    g = np.ascontiguousarray(g)
                t.grad = g if t.grad is None else t.grad + g


class Tensor:
    """A shaped array of real values, optionally tracked on a tape.

    ``requires_grad`` marks trainable leaves; a leaf only joins a tape when an
    operation first touches it while that tape is active, and ``.grad``
    accumulates across backward passes until cleared. Only leaves get a
    ``.grad``; ``register_hook`` shows an intermediate's gradient.
    """

    on_join: Optional[Callable[["Tensor"], None]] = None

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

    def register_hook(self, transform: Callable[[np.ndarray], np.ndarray]) -> HookHandle:
        """Attach a shape-preserving gradient transform to this tensor's live node."""
        tape = self._node_tape
        if tape is None:
            raise UsageError("tensor has no node; use it inside an active Tape first")
        hooks, entry = tape.nodes[self._node_id].hooks, (transform,)
        hooks.append(entry)
        return HookHandle(hooks, entry)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _leaf_id(tape: Tape, t: Tensor) -> int:
    if t._tape_ref is tape._ref:
        return t._node_id
    node = tape._add_node("leaf", (), None, t)
    t._tape_ref = tape._ref
    t._node_id = node.nid
    if t.on_join is not None:
        t.on_join(t)
    return node.nid


def _recording_tape(inputs: Sequence[Tensor]) -> Optional[Tape]:
    """The tape an op over ``inputs`` is recorded on: the active tape when
    some input requires a gradient, else None."""
    tape = getattr(Tape._tls, "active", None)
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                return tape
    return None


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn) -> Tensor:
    """Wrap an op's result as a ``Tensor`` (an ndarray of the op's dtype, 0-d
    for a numpy scalar, in the memory order the op left it) and, on an
    active tape with an input that requires a gradient, append its node."""
    if type(out_data) is not np.ndarray:
        out_data = np.asarray(out_data)
    out = object.__new__(Tensor)  # the fields Tensor.__init__ sets
    out.data = out_data
    out.grad = None
    out._tape_ref = out._node_id = None
    tape = _recording_tape(inputs)
    out.requires_grad = tape is not None
    if tape is not None:
        parents = []
        for t in inputs:
            parents.append(_leaf_id(tape, t) if t.requires_grad else None)
        out._node_id = tape._add_node(op, tuple(parents), backward_fn, out).nid
        out._tape_ref = tape._ref
    return out


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
        return gx, (x_data.swapaxes(-1, -2) @ g).swapaxes(-1, -2), np.add.reduce(g, axis=-2)

    return _record("linear", (x, weight, bias),
                   x_data @ wt + bias.data[..., None, :], backward_fn)


def _feature_axes(full_shape: tuple) -> tuple:
    # all axes except the feature axis (axis 1 for rank >= 2)
    return (0,) + tuple(range(2, len(full_shape)))


def _binary(op: str, a: Tensor, b: Tensor, fwd, grad_a, grad_b) -> Tensor:
    """Shared machinery for elementwise binary ops.

    Both operands are tensors; a constant goes in as a ``Tensor`` of its
    own. Equal shapes, or one operand a rank-1 vector broadcast across the
    other's feature axis (axis 1 of a rank >= 2 tensor). No other broadcast
    exists.
    """
    if not (isinstance(a, Tensor) and isinstance(b, Tensor)):
        raise UsageError(f"{op} takes two tensors, got {type(a).__name__} "
                         f"and {type(b).__name__}")
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


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
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

    x_data = x.data

    def backward_fn(g):
        g = g.reshape(old)
        if x_data.flags.c_contiguous:
            return (g,)
        kept = np.empty_like(x_data)  # in x's memory order, as its other consumers
        kept[...] = g
        return (kept,)

    return _record("reshape", (x,), out, backward_fn)


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permutation {axes} invalid for rank {x.ndim}")
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        return (g.transpose(inverse),)

    return _record("permute", (x,), x.data.transpose(axes).copy(), backward_fn)


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


def _col2im(cols: np.ndarray, shape: tuple, geometry: tuple) -> np.ndarray:
    """The [Cin*kh*kw, Ho*Wo*B] columns summed back onto the [Cin,H,W,B]
    ``shape``, as the [B,Cin,H,W] view of a dense array.

    Padded row r lies in stride phase r % sh at row r // sh (columns alike),
    so tap (i, j) lands on one phase plane as a shifted block: it is copied
    into a zeroed stage and added to the plane as one contiguous run, since
    a strided add costs several times a contiguous one. The plane entries
    the stage's zeros reach start at +0.0 and only ever take sums, so they
    are never -0.0 and adding +0.0 leaves their bits: each entry gets the
    bits of adding the taps in (i, j) order into the padded image.
    """
    kh, kw, sh, sw, ph, pw, ho, wo = geometry
    c, h, w, b = shape
    qh, qw = -(-(h + 2 * ph) // sh), -(-(w + 2 * pw) // sw)
    planes = np.zeros((sh, sw, c, qh, qw, b), dtype=cols.dtype)
    stage = np.zeros((c, qh, qw, b), dtype=cols.dtype)
    flat, size = stage.reshape(-1), stage.size
    taps = cols.reshape(c, kh, kw, ho, wo, b)
    for i in range(kh):
        for j in range(kw):
            stage[:, :ho, :wo] = taps[:, i, j]
            off = ((i // sh) * qw + j // sw) * b
            planes[i % sh, j % sw].reshape(-1)[off:] += flat[:size - off]
    gx = np.empty(shape, dtype=cols.dtype)
    for a in range(sh):
        r = (a - ph) % sh  # the first image row in phase a, at plane row top
        top, rows = (r + ph) // sh, len(range(r, h, sh))
        for e in range(sw):
            s = (e - pw) % sw
            left, width = (s + pw) // sw, len(range(s, w, sw))
            gx[:, r::sh, s::sw] = planes[a, e, :, top:top + rows, left:left + width]
    return gx.transpose(3, 0, 1, 2)


def _conv_tile(x: np.ndarray, wflat: np.ndarray, bias: Optional[np.ndarray],
               geometry: tuple) -> tuple:
    """The columns of the [b,Cin,H,W] samples ``x``, and their convolution
    as the [Cout,Ho,Wo,b] product, bias added."""
    kh, kw, sh, sw, ph, pw, ho, wo = geometry
    bsz, cin, h, w = x.shape
    xp = np.zeros((cin, h + 2 * ph, w + 2 * pw, bsz), dtype=x.dtype)
    xp[:, ph:ph + h, pw:pw + w] = x.transpose(1, 2, 3, 0)
    cols = _im2col(xp, kh, kw, sh, sw, ho, wo)           # [Cin*kh*kw, Ho*Wo*b]
    y = wflat @ cols                                     # [Cout, Ho*Wo*b]
    if bias is not None:
        y += bias[:, None]
    return cols, y.reshape(len(wflat), ho, wo, bsz)


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride=1, padding=0) -> Tensor:
    """Cross-correlation of [B,Cin,H,W] with [Cout,Cin,kh,kw] kernels.

    The input is padded into a [Cin, Hp, Wp, B] buffer and unfolded to
    columns laid out [Cin*kh*kw, Ho*Wo*B], batch innermost, so each kernel
    tap copies contiguous runs of B values. The forward pass and each
    backward contraction is then one BLAS matrix product against the
    [Cout, Cin*kh*kw] kernel matrix. When ``x`` does not require a
    gradient (raw images into a first layer), backward computes no input
    gradient and skips the fold back to image shape.

    Results stay in that batch-innermost order: the output's ``.data`` is
    the [B,Cout,Ho,Wo] permuted view of a [Cout,Ho,Wo,B] array, and the
    input gradient the same view of a dense [Cin,H,W,B] array, which the
    fold back from columns writes without the padding. An input in that
    order (a conv's output, gated and through a ReLU) is then
    padded by one contiguous copy, and a gradient in it is read in place;
    only another order pays a transposing copy.

    A call that is not recorded (no active tape, or no input requires a
    gradient) keeps no columns, so it runs in tiles of samples, each
    written straight into the output: inference never holds a whole
    batch's columns. A tile's columns take at most 1 MiB, unless the
    fewest samples whose columns fill whole blocks of 64 take more; a tile
    is then those samples. A batch that fills no whole blocks, or a kernel
    deeper than 384 taps (Cin*kh*kw), runs as one tile. Whole blocks and
    that depth keep every output value at the bits a recorded call gives.
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

    geometry = (kh, kw, sh, sw, ph, pw, ho, wo)
    wflat = weight.data.reshape(cout, -1)
    b = None if bias is None else bias.data
    inputs = (x, weight) if bias is None else (x, weight, bias)
    depth, positions = wflat.shape[1], ho * wo
    unit = _COLUMN_BLOCK // math.gcd(positions, _COLUMN_BLOCK)  # samples in whole blocks
    if depth <= _TILE_DEPTH and bsz % unit == 0 and _recording_tape(inputs) is None:
        out = np.empty((cout, ho, wo, bsz), dtype=np.result_type(wflat, x.data))
        unit_bytes = unit * depth * positions * x.data.itemsize
        tile = unit * max(1, _TILE_BYTES // unit_bytes)
        for start in range(0, bsz, tile):
            out[..., start:start + tile] = _conv_tile(x.data[start:start + tile], wflat, b,
                                                      geometry)[1]
        return _record("conv2d", inputs, out.transpose(3, 0, 1, 2), None)

    cols, out = _conv_tile(x.data, wflat, b, geometry)   # backward needs all the columns
    need_gx = x.requires_grad  # decided when recorded, as the tape's parent ids are

    def backward_fn(g):
        gt = g.transpose(1, 2, 3, 0).reshape(cout, -1)   # [Cout, Ho*Wo*B]
        gw = (gt @ cols.T).reshape(wshape)
        gx = None
        if need_gx:
            gx = _col2im(wflat.T @ gt, (cin, h, w, bsz), geometry)
        if b is None:
            return gx, gw
        return gx, gw, gt.sum(axis=1)

    return _record("conv2d", inputs, out.transpose(3, 0, 1, 2), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
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
    inv = 1.0 / np.sqrt(row_mean(d * d) + 1e-5)  # eps: a constant row stays finite
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

    return _record("sum", (x,), np.asarray(np.add.reduce(x.data, axis=None), dtype=x.data.dtype),
                   backward_fn)


def reduce_mean(x: Tensor) -> Tensor:
    shape, n = x.shape, x.size

    def backward_fn(g):
        return (np.full(shape, g / n, dtype=x.data.dtype),)

    return _record("mean", (x,), np.asarray(x.data.mean(), dtype=x.data.dtype), backward_fn)


def check_labels(labels: np.ndarray, classes: Optional[int] = None) -> None:
    """Refuse labels whose dtype is not an integer one (bool and float
    included), which indexing would truncate, and, given ``classes``, any
    label outside [0, classes), with ``UsageError``. The range check needs
    at least one label; its callers refuse an empty batch first."""
    if labels.dtype.kind not in "iu":
        raise UsageError(f"labels must be integers, got dtype {labels.dtype}")
    if classes is None:
        return
    lo, hi = np.minimum.reduce(labels, axis=None), np.maximum.reduce(labels, axis=None)
    if lo < 0 or hi >= classes:
        raise UsageError(f"labels must lie in [0, {classes}), got range [{lo}, {hi}]")


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
    check_labels(labels, ncls)
    rows = labels.size  # every (member, sample) as one row of C classes
    picked = (np.arange(rows), labels.reshape(rows).astype(np.int64, copy=False))

    # ufunc reductions: the bits of ndarray.max/sum/mean, without their wrappers
    zmax = np.maximum.reduce(z, axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = np.add.reduce(ez, axis=-1, keepdims=True)
    lse = zmax[..., 0] + np.log(sez[..., 0])
    true = z.reshape(rows, ncls)[picked].reshape(lse.shape)
    loss = np.asarray(np.add.reduce(lse - true, axis=-1) / bsz, dtype=z.dtype)
    softmax = ez / sez

    def backward_fn(g):
        grad = softmax.copy()
        grad.reshape(rows, ncls)[picked] -= 1.0
        return (grad * (g / bsz)[..., None, None],)

    return _record("softmax_cross_entropy", (logits,), loss, backward_fn)
