"""Per-layer metrics of the traced run, named after taskgate's modules.

"Per batch" figures divide what happened inside `train_task` (the per-epoch
evaluation included) by the number of training batches; "per call" figures
average every traced call. Tensor ops report self time, forward plus the
backward closure of the nodes they recorded; composite layer functions report
their inclusive time.
"""

import os
import statistics

import numpy as np

from spans import Tracer

OPS = ("matmul", "add", "mul", "sigmoid", "relu", "scale", "permute",
       "layer_norm", "conv2d", "softmax_cross_entropy")
# ops whose output node gets its backward closure timed
NODE_OPS = OPS + ("sub", "clamp", "reshape", "reduce_sum", "reduce_mean")

# direct children of train_task -> training phase
PHASES = {
    "forward": ("layers.Sequential.forward",),
    "loss": ("tensor.softmax_cross_entropy", "payload.HATPayload.masked_data"),
    "regularizer": ("layers.HATMasker.current_mask", "training.regularizer",
                    "tensor.add", "tensor.scale"),
    "backward": ("tensor.Tape.backward",),
    "optimizer": ("training.SGD.step", "training.SGD.zero_grad"),
    "clamp": ("layers.HATMasker.clamp_embeddings",),
}

PER_LAYER = (
    [("tensor.nodes_per_batch", "count")]
    + [(f"tensor.{op}.{kind}", unit) for op in OPS
       for kind, unit in (("us_per_batch", "us"), ("calls_per_batch", "count"))]
    + [("tensor.backward.self_us_per_batch", "us"),
       ("tensor.conv2d.flop_per_batch", "flop"),
       ("tensor.conv2d.gflop_per_s", "GFLOP/s"),
       ("layers.grad_nullify.us_per_batch", "us"),
       ("layers.grad_nullify.calls_per_batch", "count"),
       ("layers.nullify_frozen_frac", "fraction"),
       ("layers.grad_compensate.us_per_batch", "us"),
       ("layers.grad_rail.us_per_batch", "us"),
       ("layers.HATMasker.apply.us_per_batch", "us"),
       ("layers.HATMasker.current_mask.us_per_batch", "us"),
       ("layers.HATMasker.clamp_embeddings.us_per_batch", "us"),
       ("payload.masked_data.calls_per_batch", "count")]
    + [(f"training.phase.{p}_us_per_batch", "us")
       for p in list(PHASES) + ["loop", "other"]]
    + [("training.evaluate.us_per_call", "us"),
       ("forgetting.forget_task.us_per_call", "us"),
       ("forgetting.entries_zeroed", "count"),
       ("checkpoint.model_state.us_per_call", "us"),
       ("checkpoint.write_entries.us_per_call", "us"),
       ("checkpoint.read_entries.us_per_call", "us"),
       ("checkpoint.load_model_state.us_per_call", "us"),
       ("checkpoint.bytes", "bytes"),
       ("data.gen_s", "s"),
       ("bench.mask_locked.us_per_batch", "us"),
       ("trace.overhead", "fraction")]
)


def _time_backward(op):
    def hook(tracer, _span, _args, out):
        tape = getattr(out, "_node_tape", None)
        if tape is not None:
            tracer.wrap_backward(f"tensor.{op}.backward", tape.nodes[out._node_id])
    return hook


def _conv2d(tracer, span, args, out):
    _time_backward("conv2d")(tracer, span, args, out)
    x, weight = args[0], args[1]
    cout, cin, kh, kw = weight.shape
    ho, wo = out.shape[2:]
    # forward GEMM, then the weight- and input-gradient GEMMs of backward
    tracer.count("conv2d_flop", span,
                 3 * 2 * x.shape[0] * cout * cin * kh * kw * ho * wo)


def _grad_nullify(tracer, span, args, _out):
    g, a_out = args[0], np.asarray(args[1])
    a_in = args[2] if len(args) > 2 else None
    if g.ndim < 2:
        return  # a bias gradient, not a weight gradient
    factor = 1.0 - (np.minimum.outer(a_out, np.asarray(a_in)) if a_in is not None
                    else np.broadcast_to(a_out[:, None], g.shape[:2]))
    taps = g.size // factor.size
    tracer.count("frozen", span, (int(np.count_nonzero(factor == 0.0)) * taps,
                                  g.size))


def _backward(tracer, span, args, _out):
    tracer.count("nodes", span, len(args[0].nodes))


def make_tracer(taskgate):
    """A tracer over taskgate's modules, installed and recording."""
    from taskgate import (bench, checkpoint, data, forgetting, layers, payload,
                          tensor, training)
    hooks = {f"tensor.{op}": _time_backward(op) for op in NODE_OPS}
    hooks.update({
        "tensor.conv2d": _conv2d,
        "tensor.Tape.backward": _backward,
        "layers.grad_nullify": _grad_nullify,
        "forgetting.forget_task":
            lambda tr, span, _a, report: tr.count("zeroed", span, report.total),
        "checkpoint.write_entries":
            lambda tr, span, args, _r: tr.count("bytes", span,
                                                os.path.getsize(args[0])),
    })
    tracer = Tracer([tensor, payload, layers, training, forgetting, checkpoint,
                     data, bench], package=taskgate)
    tracer.install(hooks)
    return tracer


def _train_mask(tab, names):
    """Spans that start inside some train_task span."""
    nm = tab["name"]
    if "training.train_task" not in names:
        return np.zeros(len(nm), dtype=bool)
    tt = nm == names.index("training.train_task")
    tt_start, tt_end = tab["start"][tt], tab["start"][tt] + tab["dur"][tt]
    k = np.searchsorted(tt_start, tab["start"], side="right") - 1
    return (k >= 0) & (tab["start"] < tt_end[np.maximum(k, 0)])


def layer_metrics(tracer, traced, untraced, workload):
    tab = tracer.table()
    names = tracer.names
    nm, parent, dur, own = tab["name"], tab["parent"], tab["dur"], tab["self"]
    in_train = _train_mask(tab, names)

    def sel(name, within=in_train):
        if name not in names:
            return np.zeros(len(nm), dtype=bool)
        return (nm == names.index(name)) & within

    everywhere = np.ones(len(nm), dtype=bool)
    batches = max(int(sel("tensor.Tape.backward").sum()), 1)

    def per_batch(values, mask):
        return float(values[mask].sum()) / batches * 1e6

    def per_call(name):
        mask = sel(name, everywhere)
        return float(dur[mask].mean()) * 1e6 if mask.any() else 0.0

    def counted(key, within=in_train):
        rows = tracer.counts.get(key, [])
        return [value for span, value in rows if within[span]]

    out = {"tensor.nodes_per_batch": sum(counted("nodes")) / batches}
    for op in OPS:
        fwd, bwd = sel(f"tensor.{op}"), sel(f"tensor.{op}.backward")
        out[f"tensor.{op}.us_per_batch"] = per_batch(own, fwd | bwd)
        out[f"tensor.{op}.calls_per_batch"] = int(fwd.sum()) / batches
    out["tensor.backward.self_us_per_batch"] = per_batch(
        own, sel("tensor.Tape.backward"))
    flop = sum(counted("conv2d_flop"))
    conv_s = out["tensor.conv2d.us_per_batch"] * batches / 1e6
    out["tensor.conv2d.flop_per_batch"] = flop / batches
    out["tensor.conv2d.gflop_per_s"] = flop / conv_s / 1e9 if conv_s else 0.0

    nullify = sel("layers.grad_nullify")
    out["layers.grad_nullify.us_per_batch"] = per_batch(dur, nullify)
    out["layers.grad_nullify.calls_per_batch"] = int(nullify.sum()) / batches
    frozen = counted("frozen")
    out["layers.nullify_frozen_frac"] = (sum(z for z, _ in frozen)
                                         / sum(n for _, n in frozen)) if frozen else 0.0
    for name in ("layers.grad_compensate", "layers.grad_rail",
                 "layers.HATMasker.apply", "layers.HATMasker.current_mask",
                 "layers.HATMasker.clamp_embeddings", "bench.mask_locked"):
        out[f"{name}.us_per_batch"] = per_batch(dur, sel(name))
    out["payload.masked_data.calls_per_batch"] = int(
        sel("payload.HATPayload.masked_data").sum()) / batches

    direct = parent >= 0
    direct[direct] = nm[parent[direct]] == names.index("training.train_task")
    named = np.zeros(len(nm), dtype=bool)
    for phase, members in PHASES.items():
        mask = direct & np.isin(nm, [names.index(m) for m in members if m in names])
        named |= mask
        out[f"training.phase.{phase}_us_per_batch"] = per_batch(dur, mask)
    out["training.phase.loop_us_per_batch"] = per_batch(own, sel("training.train_task"))
    out["training.phase.other_us_per_batch"] = per_batch(dur, direct & ~named)

    out["training.evaluate.us_per_call"] = per_call("training.evaluate")
    out["forgetting.forget_task.us_per_call"] = per_call("forgetting.forget_task")
    zeroed = counted("zeroed", everywhere)
    out["forgetting.entries_zeroed"] = statistics.fmean(zeroed) if zeroed else 0.0
    for fn in ("model_state", "write_entries", "read_entries", "load_model_state"):
        out[f"checkpoint.{fn}.us_per_call"] = per_call(f"checkpoint.{fn}")
    written = counted("bytes", everywhere)
    out["checkpoint.bytes"] = written[-1] if written else 0
    data_spans = np.isin(nm, [i for i, n in enumerate(names) if n.startswith("data.")])
    out["data.gen_s"] = workload.data_s + float(dur[data_spans].sum()) / len(traced)
    out["trace.overhead"] = (statistics.median(it.run_s for it in traced)
                             / statistics.median(it.run_s for it in untraced) - 1.0)
    # every span's self time plus the tracer's bookkeeping, against the
    # timed segments as the benchmark clocked them from outside (reference
    # jobs and checks excluded; only taskgate calls run in them)
    out["trace.attributed_s"] = float(own.sum() + tab["book"].sum())
    out["trace.timed_s"] = sum(sum(it.wall.values()) for it in traced)
    return out


def top_self(tracer, count=12):
    """Largest self-time shares inside train_task; an op's backward closure
    is folded into the op."""
    tab = tracer.table()
    in_train = _train_mask(tab, tracer.names)
    folded = {f"tensor.{op}.backward": f"tensor.{op}" for op in NODE_OPS}
    totals = {}
    for nid, name in enumerate(tracer.names):
        key = folded.get(name, name)
        mask = (tab["name"] == nid) & in_train
        totals[key] = totals.get(key, 0.0) + float(tab["self"][mask].sum())
    whole = sum(totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:count]
    return [[name, round(value / whole, 4)] for name, value in ranked]
