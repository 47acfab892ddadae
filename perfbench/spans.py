"""Span tracer that times taskgate's layers from outside the library.

`Tracer.install()` replaces every public function of the traced modules, and
every public plain method of the classes they define, with a timing wrapper;
`uninstall()` puts each original object back. A function that other taskgate
modules imported under their own name (``bench.train_task``) is replaced
there too, so calls between modules are seen. Tape nodes recorded by a
wrapped tensor op get their backward closure wrapped as ``<op>.backward``,
which splits `Tape.backward` into replay overhead, per-op backward work and
gradient hooks.

Spans live in flat in-memory arrays (name, parent, start, end, done) and are
only summarised or written once the run is over. A span's self time is its
duration minus the time its children cover; a child covers its own duration
plus the tracer's bookkeeping after it returned, so that bookkeeping lands in
no layer's self time and is reported on its own.
"""

import array
import functools
import os
import time
import types
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self, modules, package=None):
        self.modules = list(modules)
        self.package = package
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.done = array.array("d")
        self._stack = []
        self._patches = []
        self.recording = True
        # exact counts gathered at span boundaries: name -> list of
        # (span index, value)
        self.counts = {}

    # ---- span recording ---------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _timed(self, nid, fn, after=None):
        stack, starts, ends, dones = self._stack, self.start, self.end, self.done
        names, parents = self.name, self.parent

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            dones.append(0.0)
            stack.append(i)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = dones[i] = _clock()
                stack.pop()
                raise
            ends[i] = _clock()
            stack.pop()
            if after is not None:
                after(i, args, result)
            dones[i] = _clock()
            return result

        return traced

    @contextmanager
    def paused(self):
        """Run a block (the correctness checks) without recording spans."""
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    def count(self, name, span_index, value):
        self.counts.setdefault(name, []).append((span_index, value))

    # ---- installing wrappers ----------------------------------------------

    def install(self, after_hooks=None):
        """Wrap every public function and method; `after_hooks` maps a span
        name to a callable (tracer, span index, args, result)."""
        after_hooks = after_hooks or {}
        homes = self.modules + ([self.package] if self.package else [])
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(f"{short}.{obj.__name__}", obj,
                                        after_hooks)
                elif callable(obj) and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                    wrapper = self._wrapper(name, obj, after_hooks.get(name))
                    for home in homes:
                        for alias, value in list(vars(home).items()):
                            if value is obj and not alias.startswith("_"):
                                self._patch(home, alias, wrapper)

    def _install_class(self, prefix, cls, after_hooks):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            name = f"{prefix}.{attr}"
            self._patch(cls, attr, self._wrapper(name, obj, after_hooks.get(name)))

    def _wrapper(self, name, fn, hook):
        after = None if hook is None else (
            lambda i, args, result: hook(self, i, args, result))
        return functools.wraps(fn)(self._timed(self._id(name), fn, after))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def wrap_backward(self, name, node):
        """Time one tape node's backward closure under `name`."""
        if node.backward_fn is not None:
            node.backward_fn = self._timed(self._id(name), node.backward_fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched(self):
        """(owner, attribute, original object) for every installed wrapper."""
        return list(self._patches)

    # ---- analysis ---------------------------------------------------------

    def table(self):
        """Per-span numpy arrays: name id, parent, duration, self time."""
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        start = np.array(self.start)
        end = np.array(self.end)
        done = np.array(self.done)
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=(done - start)[child],
                              minlength=len(name))
        return {"name": name, "parent": parent, "start": start,
                "dur": dur, "self": dur - covered, "book": done - end}

    def write(self, path):
        """Save every span (and the name table) as an .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 done=np.array(self.done))
