"""Measuring on a shared machine: reference jobs.

Other tenants slow this process's CPUs by up to half, one CPU at a time for
seconds, or every CPU at once for minutes. So each timed segment sits
between two runs of a reference job: fixed code (numpy, or pure Python
where the workload is interpreter-bound) that resembles the workload's
per-batch work but never calls taskgate. The segment's time is
rescaled by the reference's nominal time over its measured time, so a
slowdown that stretches both cancels, while a change to taskgate moves only
the segment.
"""

import time

import numpy as np

clock = time.perf_counter


class Reference:
    """A fixed job and its nominal duration (its fastest time on a 2-vCPU
    Intel Xeon with one BLAS thread, where this benchmark was defined)."""

    def __init__(self, job, nominal_s):
        self.job = job
        self.nominal_s = nominal_s

    def __call__(self):
        """Run the job once; return its wall time in seconds."""
        start = clock()
        self.job()
        return clock() - start


def mlp_reference(batch, widths, steps, nominal_s):
    """Plain numpy training steps of a small ReLU net."""
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((a, b)) / np.sqrt(a)
               for a, b in zip(widths, widths[1:])]
    x = rng.standard_normal((batch, widths[0]))

    def job():
        w = [m.copy() for m in weights]
        for _ in range(steps):
            hidden = [x]
            for m in w[:-1]:
                hidden.append(np.maximum(hidden[-1] @ m, 0.0))
            g = hidden[-1] @ w[-1]
            g = g - g.mean(axis=1, keepdims=True)
            for i in range(len(w) - 1, -1, -1):
                grad = hidden[i].T @ g
                if i:
                    g = (g @ w[i].T) * (hidden[i] > 0)
                w[i] -= 1e-3 * grad
            1.0 / (1.0 + np.exp(-w[0].sum(axis=0)))

    return Reference(job, nominal_s)


class _Node:
    __slots__ = ("index", "backward")

    def __init__(self, index, backward):
        self.index = index
        self.backward = backward


def interpreter_reference(nodes, nominal_s):
    """Pure-Python bookkeeping like a tape's: record small objects holding
    closures, then call them back in reverse order. For workloads whose time
    is interpreter overhead, which a slowdown stretches differently from
    numpy calls."""

    def job():
        tape = [_Node(i, lambda g, i=i: g + i) for i in range(nodes)]
        g = 0
        for node in reversed(tape):
            g = node.backward(g) % 1000

    return Reference(job, nominal_s)


def conv_reference(batch, cin, cout, side, reps, nominal_s):
    """im2col and the forward and weight-gradient contractions of a 3x3
    convolution."""
    rng = np.random.default_rng(0)
    padded = rng.standard_normal((batch, cin, side + 2, side + 2))
    kernel = rng.standard_normal((cout, cin * 9))

    def job():
        for _ in range(reps):
            cols = np.empty((batch, cin, 3, 3, side, side))
            for i in range(3):
                for j in range(3):
                    cols[:, :, i, j] = padded[:, :, i:i + side, j:j + side]
            cols = cols.reshape(batch, cin * 9, side * side)
            out = np.einsum("of,bfl->bol", kernel, cols)
            np.einsum("bol,bfl->of", out, cols)

    return Reference(job, nominal_s)
