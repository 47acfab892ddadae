"""Bit-exact binary checkpoints for gated models.

Layout (all integers little-endian):

    magic   8 bytes  b"HATCKPT1"
    count   u64      number of entries
    entry   repeated, in strictly increasing name order (so each name once):
        name_len  u32
        name      UTF-8 bytes
        dtype     u8   (0 = float64, 1 = float32, 2 = uint8 bitmask)
        rank      u64
        extents   rank * u64
        payload   raw little-endian C-order array bytes

Parameter entries take their names from the model's leaf table (see
``layers.Sequential``): gated layers save `{tag}/weight` and `{tag}/bias`;
task-indexed modules save `{tag}/{t}/{param}`; untagged plain layers are
named by pipeline position (`step3/weight`, or `step3.1/weight` for step 1
of a nested pipeline at step 3). Each masker saves `{tag}/embeddings`
([tasks, features]) and one `{tag}/stored/{t}` bitmask per finalized task,
the task's one record. The launch configuration rides
along as UTF-8 bytes under `meta/config` so a checkpoint suffices to rebuild
the network that wrote it.
"""

import math
import struct

import numpy as np

from .layers import Sequential, refuse_members
from .tensor import ShapeError, UsageError

__all__ = ["read_entries", "write_entries", "model_state", "load_model_state",
           "config_text", "MAGIC"]

MAGIC = b"HATCKPT1"
CONFIG_ENTRY = "meta/config"

_CODE_TO_DTYPE = {0: np.dtype("<f8"), 1: np.dtype("<f4"), 2: np.dtype("u1")}


def _dtype_code(arr: np.ndarray) -> int:
    kind = arr.dtype
    if kind == np.float64:
        return 0
    if kind == np.float32:
        return 1
    if kind == np.uint8 or kind == np.bool_:
        return 2
    raise UsageError(f"cannot checkpoint dtype {arr.dtype}")


def write_entries(path, entries: dict) -> None:
    """Write named arrays to `path` in the checkpoint format."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<Q", len(entries))
    for name in sorted(entries):
        arr = np.asarray(entries[name])
        code = _dtype_code(arr)
        if code == 2 and arr.dtype == np.bool_:
            arr = arr.astype(np.uint8)
        # note: ascontiguousarray would promote rank-0 arrays to rank 1
        arr = np.asarray(arr, dtype=_CODE_TO_DTYPE[code], order="C")
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<I", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<B", code)
        blob += struct.pack("<Q", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise UsageError("truncated checkpoint file")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read_entries(path) -> dict:
    """Read a checkpoint back into {name: array}.

    A corrupt or truncated file, or one whose names are out of order or
    repeated, raises UsageError naming the file, whatever its header says.
    """
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    try:
        if rd.take(len(MAGIC)) != MAGIC:
            raise UsageError("not a checkpoint file (bad magic)")
        (count,) = rd.unpack("<Q")
        entries, previous = {}, None
        for _ in range(count):
            (name_len,) = rd.unpack("<I")
            name = _utf8(rd.take(name_len), "an entry name")
            if previous is not None and name <= previous:
                raise UsageError(f"entry '{name}' follows '{previous}'; entries must "
                                 f"be sorted by name, each name once")
            previous = name
            (code,) = rd.unpack("<B")
            if code not in _CODE_TO_DTYPE:
                raise UsageError(f"unknown dtype code {code} for entry '{name}'")
            (rank,) = rd.unpack("<Q")
            # sizes are Python ints checked by take() before any is used, so a
            # corrupt rank or extent cannot overflow or allocate
            shape = struct.unpack(f"<{rank}Q", rd.take(8 * rank))
            dtype = _CODE_TO_DTYPE[code]
            payload = rd.take(math.prod(shape) * dtype.itemsize)
            try:
                entries[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
            except ValueError:  # a rank or extent numpy cannot represent
                raise UsageError(f"entry '{name}' has unsupported shape "
                                 f"{shape}") from None
        if rd.pos != len(rd.buf):
            raise UsageError(f"{len(rd.buf) - rd.pos} trailing bytes after the last entry")
    except UsageError as err:
        raise UsageError(f"{path}: {err}") from None
    return entries


def model_state(model: Sequential, config: str = None) -> dict:
    """Collect every array a bit-exact restore needs. A member model is
    refused (see ``refuse_members``)."""
    refuse_members(model, "a checkpoint")
    entries = {name: leaf.data.copy() for _, name, leaf, _ in model._leaf_table
               if name is not None}
    for masker in model.maskers():
        name = masker.layer_tag
        entries[f"{name}/embeddings"] = np.stack([row.data for row in masker.embedding_rows])
        for t, mask in sorted(masker.stored_task_masks.items()):
            entries[f"{name}/stored/{t}"] = mask.astype(np.uint8)
    if config is not None:
        entries[CONFIG_ENTRY] = np.frombuffer(config.encode("utf-8"), dtype=np.uint8)
    return entries


def load_model_state(model: Sequential, entries: dict) -> None:
    """Restore a model in place from `read_entries` output.

    Every non-meta entry must be consumed and every expected entry present,
    so loading into a mismatched architecture fails loudly. Every stored
    mask must hold only 0s and 1s, and every masker must record the same
    completed tasks. A refused checkpoint leaves the model as it was, and
    a member model is refused (see ``refuse_members``).
    """
    refuse_members(model, "a checkpoint")
    remaining = dict(entries)
    writes = []  # (tensor, value), made once every check has passed
    records = []  # (masker, {task: stored mask}) in pipeline order

    def pull(name):
        if name not in remaining:
            raise UsageError(f"checkpoint is missing entry '{name}'")
        return remaining.pop(name)

    def assign(tensor, name, value):
        if tensor.shape != value.shape:
            raise ShapeError(f"entry '{name}' has shape {value.shape}, "
                             f"model expects {tensor.shape}")
        writes.append((tensor, value))

    for _, name, leaf, _ in model._leaf_table:
        if name is not None:
            assign(leaf, name, pull(name))
    for masker in model.maskers():
        name = masker.layer_tag
        stacked = pull(f"{name}/embeddings")
        if stacked.shape != (len(masker.embedding_rows), masker.n_features):
            raise ShapeError(
                f"entry '{name}/embeddings' has shape {stacked.shape}, "
                f"masker expects {(len(masker.embedding_rows), masker.n_features)}")
        writes.extend(zip(masker.embedding_rows, stacked))
        prefix = f"{name}/stored/"
        stored = {}
        for key in sorted(k for k in remaining if k.startswith(prefix)):
            suffix = key[len(prefix):]
            if not suffix.isdecimal() or str(int(suffix)) != suffix:
                raise UsageError(f"entry {key!r} does not end in a task id")
            task = int(suffix)
            if task >= masker.task_count:
                raise UsageError(f"entry {key!r} names task {task}, masker has "
                                 f"{masker.task_count} tasks")
            mask = remaining.pop(key)
            if mask.shape != (masker.n_features,):
                raise ShapeError(f"entry {key!r} has shape {mask.shape}, masker "
                                 f"expects {(masker.n_features,)}")
            if not ((mask == 0) | (mask == 1)).all():
                raise UsageError(f"entry {key!r} holds a value other than 0 or 1")
            stored[task] = mask
        records.append((masker, stored))

    leftovers = [k for k in remaining if not k.startswith("meta/")]
    if leftovers:
        raise UsageError(f"checkpoint entries not used by this model: "
                         f"{', '.join(sorted(leftovers))}")
    completed = set().union(*(stored for _, stored in records))
    for masker, stored in records:
        missing = completed - stored.keys()
        if missing:
            task = min(missing)
            holder = next(m for m, other in records if task in other)
            raise UsageError(f"checkpoint records task {task} as completed at "
                             f"masker '{holder.layer_tag}' but not at "
                             f"'{masker.layer_tag}'")
    for tensor, value in writes:
        tensor.data[...] = value
        tensor.grad = None
    for masker, stored in records:
        masker.restore_stored_masks(stored)


def config_text(entries: dict) -> str:
    """The configuration string stored in a checkpoint, or empty."""
    if CONFIG_ENTRY not in entries:
        return ""
    return _utf8(entries[CONFIG_ENTRY].tobytes(), f"entry '{CONFIG_ENTRY}'")


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise UsageError(f"{what} in the checkpoint is not UTF-8 text") from None
