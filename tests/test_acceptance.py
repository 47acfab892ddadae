"""Acceptance gate: one test per shipping criterion, each printing a verdict.

Every test emits a single ``criterion N PASS/FAIL — ...`` line on the real
terminal (bypassing capture) so a plain ``pytest -v`` run shows the verdict
table alongside the usual dots. The heavyweight experiment runs are shared
through module-scoped fixtures; each criterion's runtime budget is enforced
on the portion it owns.
"""

import time

import numpy as np
import pytest

import taskgate as tg
from taskgate import (HATLinear, HATPayload, Linear, ReLU, Sequential, Tape,
                      Tensor, TrainerConfig, bench, train_task)
from taskgate import tensor as ops
from taskgate.checkpoint import load_model_state, model_state, read_entries, write_entries
from taskgate.layers import attention, grad_compensate, grad_nullify
from taskgate.training import evaluate, regularizer, scale_cosine, scale_linear

from gradcheck import numeric_grad, relative_error

CASES = 20


def verdict(capsys, number, label, ok, detail):
    with capsys.disabled():
        state = "PASS" if ok else "FAIL"
        print(f"criterion {number} {state} — {label} ({detail})")


def max_rel_err(build_loss, tensors):
    """Worst analytic-vs-numeric gradient error over the given leaves."""
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    worst = 0.0
    for t in tensors:
        assert t.grad is not None
        numeric = numeric_grad(lambda: build_loss().data, t.data)
        worst = max(worst, relative_error(t.grad, numeric))
    return worst


def weighted(out, coeffs):
    """Scalar probe sum(out * coeffs); exercises a general upstream gradient."""
    return ops.reduce_sum(ops.mul(out, Tensor(coeffs)))


def away_from(x, points, margin=0.1):
    """Nudge entries of x off the given kink locations."""
    for p in points:
        near = np.abs(x - p) < margin
        x[near] = p + margin * np.where(x[near] >= p, 1.0, -1.0)
    return x


@pytest.fixture(scope="module")
def continual_run(tmp_path_factory):
    """One default-configuration sequential run, checkpoint included."""
    out = tmp_path_factory.mktemp("continual")
    cfg = bench.ExperimentConfig(experiment="continual", out=str(out))
    start = time.perf_counter()
    model, tasks, matrix = bench.run_continual(cfg)
    elapsed = time.perf_counter() - start
    paths = bench.emit_continual(cfg, model, matrix)
    return {"cfg": cfg, "model": model, "tasks": tasks, "matrix": matrix,
            "paths": paths, "elapsed": elapsed}


@pytest.fixture(scope="module")
def toy_run():
    """The full 100-repeat mask-recovery comparison, both strategies."""
    cfg = bench.ExperimentConfig(experiment="toy-init")
    start = time.perf_counter()
    outcomes = bench.run_toy(cfg)
    elapsed = time.perf_counter() - start
    return {"summary": bench.toy_summary(outcomes), "outcomes": outcomes,
            "elapsed": elapsed, "cap": cfg.batch_cap}


def test_1_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    worst = {}

    def record(name, err):
        worst[name] = max(err, worst.get(name, 0.0))

    for case in range(CASES):
        rng = np.random.default_rng(1000 + case)

        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        c32 = rng.standard_normal((3, 2))
        record("matmul", max_rel_err(lambda: weighted(ops.matmul(a, b), c32), [a, b]))

        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        y = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal(4), requires_grad=True)
        c34 = rng.standard_normal((3, 4))
        record("add", max_rel_err(lambda: weighted(ops.add(x, y), c34), [x, y]))
        record("sub", max_rel_err(lambda: weighted(ops.sub(x, y), c34), [x, y]))
        record("mul+broadcast", max_rel_err(lambda: weighted(ops.mul(x, v), c34), [x, v]))
        record("sigmoid", max_rel_err(lambda: weighted(ops.sigmoid(x), c34), [x]))
        record("scale", max_rel_err(lambda: weighted(ops.scale(x, -1.7), c34), [x]))
        record("reshape", max_rel_err(
            lambda: weighted(ops.reshape(x, (2, 6)), c34.reshape(2, 6)), [x]))
        record("permute", max_rel_err(
            lambda: weighted(ops.permute(x, (1, 0)), c34.T.copy()), [x]))

        r = Tensor(away_from(rng.standard_normal((3, 4)), [0.0]),
                   requires_grad=True)
        record("relu", max_rel_err(lambda: weighted(ops.relu(r), c34), [r]))
        k = Tensor(away_from(2.0 * rng.standard_normal((3, 4)), [-0.5, 0.5]),
                   requires_grad=True)
        record("clamp", max_rel_err(
            lambda: weighted(ops.clamp(k, -0.5, 0.5), c34), [k]))

        record("sum", max_rel_err(lambda: ops.reduce_sum(ops.mul(x, x)), [x]))
        record("mean", max_rel_err(lambda: ops.reduce_mean(ops.mul(x, y)), [x, y]))

        img = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        ker = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
        cb = Tensor(rng.standard_normal(3), requires_grad=True)
        cout = rng.standard_normal((2, 3, 3, 3))
        record("conv2d", max_rel_err(
            lambda: weighted(ops.conv2d(img, ker, cb, stride=2, padding=1), cout),
            [img, ker, cb]))

        h = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        gain = Tensor(1.0 + 0.3 * rng.standard_normal(6), requires_grad=True)
        shift = Tensor(0.3 * rng.standard_normal(6), requires_grad=True)
        c46 = rng.standard_normal((4, 6))
        record("layer_norm", max_rel_err(
            lambda: weighted(ops.layer_norm(h, gain, shift), c46),
            [h, gain, shift]))

        logits = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        labels = rng.integers(0, 3, 5)
        record("cross_entropy", max_rel_err(
            lambda: ops.softmax_cross_entropy(logits, labels), [logits]))

        e = Tensor(rng.standard_normal(8), requires_grad=True)
        s = float(rng.uniform(0.5, 4.0))
        c8 = rng.standard_normal(8)
        record("attention", max_rel_err(lambda: weighted(attention(e, s), c8), [e]))

        # capacity penalty, sampled clear of its hinge point
        tasks = 4
        cum = rng.uniform(0.0, 0.8, 8)
        for attempt in range(50):
            em = Tensor(rng.standard_normal(8), requires_grad=True)
            mask = attention(em, 1.0).data
            free = 1.0 - cum
            usage = float((mask * free).sum() / free.sum())
            if abs(usage - 1.0 / tasks) > 0.03:
                break
        record("regularizer", max_rel_err(
            lambda: regularizer([attention(em, 1.0)], [cum], tasks), [em]))

        # the fused dense node; drawn last, so every case above is unchanged
        w = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        wb = Tensor(rng.standard_normal(2), requires_grad=True)
        record("linear", max_rel_err(
            lambda: weighted(ops.linear(a, w, wb), c32), [a, w, wb]))

    elapsed = time.perf_counter() - start
    peak = max(worst, key=worst.get)
    ok = worst[peak] < 1e-4 and elapsed < 60.0
    verdict(capsys, 1, "operation gradients match finite differences",
            ok, f"worst {peak} rel err {worst[peak]:.2e}, {CASES} cases/op, "
                f"{elapsed:.1f}s")
    assert worst[peak] < 1e-4, f"{peak}: {worst[peak]:.3e}"
    assert elapsed < 60.0


def test_2_gradient_hooks_equal_closed_forms(capsys):
    worst = 0.0
    for case in range(CASES):
        rng = np.random.default_rng(2000 + case)
        g = rng.standard_normal((5, 7))
        a_out = rng.uniform(0.0, 1.0, 5)
        a_in = rng.uniform(0.0, 1.0, 7)
        direct = g * (1.0 - np.minimum(a_out[:, None], a_in[None, :]))
        worst = max(worst, relative_error(grad_nullify(g, a_out, a_in), direct))

        gb = rng.standard_normal(5)
        worst = max(worst, relative_error(grad_nullify(gb, a_out),
                                          gb * (1.0 - a_out)))

        gc = rng.standard_normal((5, 7, 2, 2))
        direct = gc * (1.0 - np.minimum(a_out[:, None], a_in[None, :]))[..., None, None]
        worst = max(worst, relative_error(grad_nullify(gc, a_out, a_in), direct))

        q = rng.standard_normal(9)
        e = rng.uniform(-3.0, 3.0, 9)
        s = float(rng.uniform(0.05, 100.0))
        s_max = 400.0
        direct = q * s_max * (np.cosh(np.clip(s * e, -50.0, 50.0)) + 1.0) \
            / (s * (np.cosh(np.clip(e, -50.0, 50.0)) + 1.0))
        worst = max(worst, relative_error(grad_compensate(q, e, s, s_max), direct))

    ok = worst < 1e-12
    verdict(capsys, 2, "gradient hooks equal their closed forms", ok,
            f"worst rel err {worst:.2e}")
    assert ok


def test_3_schedule_endpoints_exact(capsys):
    checks = []
    for s_max in (400.0, 7.0):
        checks.append(scale_linear(1, 64, s_max) == 1.0 / s_max)
        checks.append(scale_linear(64, 64, s_max) == s_max)
        checks.append(scale_cosine(0.0, s_max) == s_max)
        checks.append(scale_cosine(0.25, s_max) == s_max / 2.0)
        checks.append(scale_cosine(0.5, s_max) == 1.0 / s_max)  # default floor
        checks.append(scale_cosine(0.5, s_max, s_min=0.125) == 0.125)
    ok = all(checks)
    verdict(capsys, 3, "mask-scale schedule endpoints exact", ok,
            f"{sum(checks)}/{len(checks)} equalities hold")
    assert ok, checks


def test_4_completed_tasks_unharmed_by_later_training(capsys, continual_run):
    matrix = continual_run["matrix"]
    tasks = continual_run["cfg"].tasks
    drift = 0.0
    for col in range(tasks):
        base = matrix.cells[(col, col)]
        for row in range(col + 1, tasks):
            drift = max(drift, abs(matrix.cells[(row, col)] - base))
    elapsed = continual_run["elapsed"]
    ok = drift < 1e-3 and elapsed < 300.0
    verdict(capsys, 4, "completed-task accuracy unchanged by later training",
            ok, f"max column drift {drift:.1e}, run {elapsed:.1f}s")
    assert drift < 1e-3
    assert elapsed < 300.0


def test_5_anneal_strategy_ordering(capsys, toy_run):
    summary = toy_run["summary"]
    slow_mean = summary["gaussian_linear"][0]
    fast_mean = summary["ones_cosine"][0]
    elapsed = toy_run["elapsed"]
    ok = slow_mean >= 3.0 * fast_mean and elapsed < 600.0
    verdict(capsys, 5, "gaussian+linear needs >=3x the batches of ones+cosine",
            ok, f"means {slow_mean:.2f} vs {fast_mean:.2f}, "
                f"ratio {slow_mean / fast_mean:.2f}, {elapsed:.1f}s")
    assert slow_mean >= 3.0 * fast_mean
    assert elapsed < 600.0


def test_6_forgetting_destroys_only_the_target_task(capsys, continual_run):
    cfg = continual_run["cfg"]
    matrix = continual_run["matrix"]
    tasks = cfg.tasks
    start = time.perf_counter()
    row, report, stored = bench.run_forget(
        bench.ExperimentConfig(experiment="forget", out=cfg.out))
    elapsed = time.perf_counter() - start
    final = [matrix.cells[(tasks - 1, c)] for c in range(tasks)]
    others_delta = max(abs(row[c] - final[c]) for c in range(1, tasks))
    ok = (row[0] <= 0.60 and others_delta < 0.005 and report.total > 0
          and elapsed < 60.0)
    verdict(capsys, 6, "forgetting destroys only the target task", ok,
            f"target acc {row[0]:.4f}, max other delta {others_delta:.1e}, "
            f"{report.total} entries zeroed, {elapsed:.1f}s")
    assert row[0] <= 0.60
    assert others_delta < 0.005
    assert report.total > 0
    assert elapsed < 60.0


def test_7_ungated_pass_reduces_to_plain_network(capsys):
    rng = np.random.default_rng(7000)

    def twin_pair():
        gated = Sequential(
            HATLinear(6, 10, 3, "l1", np.random.default_rng(71)),
            ReLU(),
            HATLinear(10, 2, 3, "l2", np.random.default_rng(72)),
        )
        plain = Sequential(Linear(6, 10, np.random.default_rng(0)), ReLU(),
                           Linear(10, 2, np.random.default_rng(0)))
        for i in (0, 2):
            plain.steps[i].weight.data[...] = gated.steps[i].weight.data
            plain.steps[i].bias.data[...] = gated.steps[i].bias.data
        return gated, plain

    gated, plain = twin_pair()
    x = rng.standard_normal((12, 6))
    gated_out = gated.forward(HATPayload(Tensor(x))).masked_data().data
    plain_out = plain.forward(HATPayload(Tensor(x))).masked_data().data
    bit_exact = np.array_equal(gated_out, plain_out)

    n = 120
    centers = np.where(rng.integers(0, 2, n)[:, None], 3.0, -3.0)
    data = (centers + rng.standard_normal((n, 6)), (centers[:, 0] > 0).astype(np.int64))
    gated, plain = twin_pair()
    cfg = TrainerConfig(task_count=3, epochs=4, batch_size=30, seed=9,
                        reg_lambda=0.0)
    gated_metrics = train_task(gated, data, None, cfg)
    plain_metrics = train_task(plain, data, None, cfg)
    loss_gap = max(abs(gm.loss - pm.loss)
                   for gm, pm in zip(gated_metrics, plain_metrics))

    ok = bit_exact and loss_gap < 1e-9
    verdict(capsys, 7, "ungated pass reduces to the plain network", ok,
            f"outputs bit-exact: {bit_exact}, max loss gap {loss_gap:.1e}")
    assert bit_exact
    assert loss_gap < 1e-9


def test_8_determinism_and_checkpoint_round_trip(capsys, continual_run,
                                                 tmp_path):
    first = continual_run["paths"]
    cfg2 = bench.ExperimentConfig(experiment="continual",
                                  out=str(tmp_path / "again"))
    model2, _, matrix2 = bench.run_continual(cfg2)
    second = bench.emit_continual(cfg2, model2, matrix2)
    csv_same = (open(first["csv"], "rb").read()
                == open(second["csv"], "rb").read())
    ckpt_same = (open(first["checkpoint"], "rb").read()
                 == open(second["checkpoint"], "rb").read())

    toy_cfg = bench.ExperimentConfig(experiment="toy-init", repeats=3,
                                     batch_cap=80, out=str(tmp_path / "toy"))
    lines_a = bench.toy_metrics_lines(bench.run_toy(toy_cfg))
    lines_b = bench.toy_metrics_lines(bench.run_toy(toy_cfg))
    toy_same = lines_a == lines_b

    reloaded, stored = bench.load_continual_checkpoint(continual_run["cfg"])
    tasks = continual_run["tasks"]
    matrix = continual_run["matrix"]
    last = continual_run["cfg"].tasks - 1
    round_trip = all(
        evaluate(reloaded, tasks[c].test, c) == matrix.cells[(last, c)]
        for c in range(stored.tasks))

    ok = csv_same and ckpt_same and toy_same and round_trip
    verdict(capsys, 8, "byte-identical reruns and checkpoint round trip", ok,
            f"csv {csv_same}, checkpoint {ckpt_same}, toy runs {toy_same}, "
            f"reloaded accuracies exact {round_trip}")
    assert csv_same and ckpt_same
    assert toy_same
    assert round_trip
