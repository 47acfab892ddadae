import collections
import gc
import re
import warnings
import weakref

import numpy as np
import pytest

import taskgate as tg
from taskgate import (HATLinear, HATMasker, HATPayload, Linear, ReLU, Sequential, Tensor, bench,
                      stack_members)
from taskgate.training import (
    SGD,
    _free_capacity,
    _objective,
    TrainerConfig,
    evaluate,
    init_embeddings,
    regularizer,
    scale_cosine,
    scale_linear,
    train_task,
)
from taskgate.data import continual_tasks, toy_dataset
from taskgate.layers import PayloadModule, walk

from gated_models import conv_model, inputs, logits as logits_of
from gradcheck import numeric_grad, relative_error


class TestLinearSchedule:
    def test_endpoints_exact(self):
        for s_max in (400.0, 7.0, 123.456):
            assert scale_linear(1, 60, s_max) == 1.0 / s_max
            assert scale_linear(60, 60, s_max) == s_max

    def test_midpoint_hand_value(self):
        assert scale_linear(31, 61, 400.0) == pytest.approx(200.00125, abs=1e-9)

    def test_single_batch_epoch_returns_terminal_value(self):
        assert scale_linear(1, 1, 400.0) == 400.0

    def test_monotone_and_bounded(self):
        for B in (2, 3, 17, 100):
            vals = [scale_linear(b, B, 400.0) for b in range(1, B + 1)]
            assert vals == sorted(vals)
            assert all(1 / 400.0 <= v <= 400.0 for v in vals)

    def test_first_batch_of_epoch_is_floor(self):
        assert scale_linear(1, 10, 400.0) == 1 / 400.0

    def test_out_of_range_batch_rejected(self):
        with pytest.raises(tg.UsageError):
            scale_linear(0, 10, 400.0)
        with pytest.raises(tg.UsageError):
            scale_linear(11, 10, 400.0)

    @pytest.mark.parametrize("b", [1.5, 2.0, True, "2", None])
    def test_batch_index_must_be_an_int(self, b):
        # 1.5 of 4 used to give 66.67, a scale no batch of the ramp has
        with pytest.raises(tg.UsageError, match="batch index must be an int"):
            scale_linear(b, 4, 400.0)

    def test_numpy_int_batch_index_accepted(self):
        assert scale_linear(np.int64(2), 4, 400.0) == scale_linear(2, 4, 400.0)


class TestCosineSchedule:
    def test_endpoints_exact(self):
        for s_max in (400.0, 7.0, 123.456):
            assert scale_cosine(0.0, s_max) == s_max
            assert scale_cosine(0.25, s_max) == s_max / 2
            assert scale_cosine(0.5, s_max) == 1.0 / s_max  # floored

    def test_full_sweep_returns_to_smax(self):
        assert scale_cosine(1.0, 400.0) == 400.0

    def test_three_phase_shape(self):
        # decreasing to the middle, increasing after, up to the floor
        ps = np.linspace(0.0, 1.0, 201)
        vals = np.array([scale_cosine(p, 400.0) for p in ps])
        assert np.all(vals >= 1 / 400.0) and np.all(vals <= 400.0)
        unfloored = vals > 1 / 400.0
        first = vals[(ps < 0.5) & unfloored]
        second = vals[(ps > 0.5) & unfloored]
        assert np.all(np.diff(first) < 0)
        assert np.all(np.diff(second) > 0)

    def test_progress_within_epoch(self):
        # train_task's progress for batch b of B is (b - 1) / B
        assert scale_cosine((1 - 1) / 8, 400.0) == 400.0
        assert scale_cosine((5 - 1) / 8, 400.0) == 1 / 400.0

    def test_explicit_floor_respected(self):
        assert scale_cosine(0.5, 400.0, s_min=3.0) == 3.0

    def test_invalid_progress(self):
        with pytest.raises(tg.UsageError):
            scale_cosine(1.5, 400.0)

    def test_numpy_progress_accepted(self):
        assert scale_cosine(np.float64(0.25), 400.0) == 200.0
        assert scale_cosine(np.int64(1), 400.0) == 400.0


class TestRegularizer:
    def test_hand_value_half_usage(self):
        mask = tg.attention(Tensor(np.zeros(10), requires_grad=True), 1.0)  # all 0.5
        out = regularizer([mask], [np.zeros(10)], task_count=5)
        assert out.item() == pytest.approx(0.3, abs=1e-12)

    def test_under_quota_is_zero(self):
        mask = Tensor(np.zeros(10))  # no usage at all
        out = regularizer([mask], [np.zeros(10)], task_count=5)
        assert out.item() == 0.0

    def test_saturated_layer_contributes_nothing(self):
        mask = Tensor(np.ones(6))
        out = regularizer([mask], [np.ones(6)], task_count=3)
        assert out.item() == 0.0

    def test_layers_sum(self):
        m1 = Tensor(np.full(10, 0.5))
        m2 = Tensor(np.full(4, 1.0))
        out = regularizer([m1, m2], [np.zeros(10), np.zeros(4)], task_count=5)
        assert out.item() == pytest.approx(0.3 + 0.8, abs=1e-12)

    def test_free_capacity_weighting(self):
        # only the second unit has free capacity, so the usage ratio is just
        # that unit's mask value; reusing the saturated first unit is free
        below = regularizer([Tensor(np.array([1.0, 0.25]))],
                            [np.array([1.0, 0.0])], task_count=2)
        assert below.item() == 0.0  # 0.25 < quota 0.5
        above = regularizer([Tensor(np.array([1.0, 0.8]))],
                            [np.array([1.0, 0.0])], task_count=2)
        assert above.item() == pytest.approx(0.3, abs=1e-12)

    def test_gradient_matches_finite_differences_away_from_kink(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            e = Tensor(rng.uniform(0.2, 2.0, 12), requires_grad=True)
            cum = rng.uniform(0.0, 0.6, 12)
            s = float(rng.uniform(0.5, 3.0))

            def build():
                return regularizer([tg.attention(e, s)], [cum], task_count=5)

            # keep clear of the max kink
            if abs(build().item()) < 1e-3:
                continue
            e.grad = None
            with tg.Tape() as tape:
                loss = build()
            tape.backward(loss)
            expected = numeric_grad(lambda: build().data, e.data)
            assert relative_error(e.grad, expected) < 1e-4

    def test_length_mismatch(self):
        with pytest.raises(tg.UsageError):
            regularizer([Tensor(np.zeros(3))], [], task_count=2)


def generic_regularizer(current_masks, cumulative, task_count):
    """The capacity penalty composed from generic tape ops, as it was
    recorded before the fused ``penalty`` node; the reference it must match
    bit for bit."""
    quota = 1.0 / task_count
    total = None
    for mask, cum in zip(current_masks, cumulative):
        free = 1.0 - np.asarray(cum)
        denom = float(free.sum())
        if denom == 0.0:
            continue
        used = tg.reduce_sum(tg.mul(mask, Tensor(free)))
        over = tg.relu(tg.add(tg.scale(used, 1.0 / denom), Tensor(-quota)))
        total = over if total is None else tg.add(total, over)
    return total if total is not None else Tensor(0.0)


def penalty_and_grads(regularize, rows, cums, weight, live, tasks=4, s=2.5):
    """The penalty's value and each masker's embedding gradient when the
    loss is ``weight * penalty`` over ``attention`` masks; ``live`` runs
    each masker's training gate first, as train_task does, so the rows'
    hooks compensate the penalty's gradients."""
    maskers = [HATMasker(len(e), tasks, f"m{i}") for i, e in enumerate(rows)]
    for m, e in zip(maskers, rows):
        m.embedding_rows[0].data[...] = e
    with tg.Tape() as tape:
        if live:
            for m in maskers:
                m.apply(HATPayload(Tensor(np.ones((3, m.n_features))), task=0,
                                   scale=s, training=True))
        masks = [tg.attention(m.embedding_rows[0], s) for m in maskers]
        penalty = regularize(masks, cums, tasks)
        loss = tg.scale(penalty, weight)
    if loss.node_id is not None:
        tape.backward(loss)
    grads = [m.embedding_rows[0].grad for m in maskers]
    return penalty.data, [None if g is None else g.tobytes() for g in grads]


class TestPenaltyNode:
    rng = np.random.default_rng(71)
    CASES = {
        "one layer": ([rng.uniform(-1, 1, 5)], [np.zeros(5)]),
        "two layers": ([rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 3)],
                       [np.zeros(5), rng.uniform(0.0, 0.5, 3)]),
        "saturated layer": ([rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3)],
                            [np.ones(4), np.zeros(3)]),
        "under quota": ([np.full(5, -3.0)], [np.zeros(5)]),
        "under quota beside over": ([np.full(4, -3.0), rng.uniform(-1, 1, 3)],
                                    [np.zeros(4), np.zeros(3)]),
        "cum partly 1": ([rng.uniform(-1, 1, 6)],
                         [np.array([1.0, 1.0, 0.0, 0.3, 0.0, 1.0])]),
        "all saturated": ([rng.uniform(-1, 1, 3)], [np.ones(3)]),
    }

    @pytest.mark.parametrize("live", [True, False])
    @pytest.mark.parametrize("weight", [0.075, -0.5])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_identical_to_generic_ops(self, case, weight, live):
        rows, cums = self.CASES[case]
        fused_value, fused_grads = penalty_and_grads(regularizer, rows, cums, weight, live)
        value, grads = penalty_and_grads(generic_regularizer, rows, cums, weight, live)
        assert (fused_value.dtype, fused_value.shape) == (value.dtype, value.shape) == (np.float64, ())
        assert fused_value.tobytes() == value.tobytes()
        assert fused_grads == grads
        if case == "under quota":
            assert fused_value[()] == 0.0
        if "saturated" in case:  # no free capacity: not even a zero gradient
            assert fused_grads[0] is None

    def test_generic_ops_over_the_masks_with_free_capacity(self):
        rows, cums = self.CASES["saturated layer"]
        with tg.Tape() as tape:
            masks = [tg.attention(Tensor(e, requires_grad=True), 2.5) for e in rows]
            recorded = len(tape.nodes)
            regularizer(masks, cums, 4)
        nodes = tape.nodes[recorded:]
        assert [n.op for n in nodes] == ["mul", "sum", "scale", "add", "relu"]
        readers = [n.op for n in nodes for p in n.parents if p == masks[1].node_id]
        assert readers == ["mul"]
        assert all(masks[0].node_id not in n.parents for n in nodes)

    def test_mask_shape_must_match_its_cumulative_mask(self):
        with pytest.raises(tg.ShapeError, match="penalty"):
            regularizer([Tensor(np.zeros(3))], [np.zeros(4)], task_count=2)


@pytest.mark.parametrize("call, name", [
    (lambda: regularizer([Tensor(np.zeros(3))], [np.zeros(3)], task_count=0), "task_count"),
    (lambda: regularizer([Tensor(np.zeros(3))], [np.ones(3)], task_count=0), "task_count"),
    (lambda: regularizer([], [], task_count=2.0), "task_count"),
    (lambda: scale_cosine(0.5, 0), "s_max"),
    (lambda: scale_cosine(0.5, float("nan")), "s_max"),
    (lambda: scale_cosine(0.5, 400.0, s_min=0.0), "s_min"),
    (lambda: scale_cosine(0.5, 400.0, s_min=float("nan")), "s_min"),
    (lambda: scale_linear(1, 4, 0), "s_max"),
    (lambda: scale_linear(2, 4, float("nan")), "s_max"),
    (lambda: scale_linear(1, 1, float("inf")), "s_max"),
    (lambda: scale_linear(5, 0, 400.0), "batches per epoch"),
    (lambda: scale_linear(3, -2, 400.0), "batches per epoch"),
    (lambda: scale_cosine("0.5", 400.0), "progress"),
    (lambda: scale_cosine(None, 400.0), "progress"),
    (lambda: scale_cosine(True, 400.0), "progress"),
    (lambda: scale_cosine(float("nan"), 400.0), "progress"),
    (lambda: scale_cosine(0.0, 400.0, 1000.0), "s_min must not exceed s_max"),
    (lambda: scale_cosine(0.0, 0.5), r"s_max must be finite and >= 1, got 0\.5"),
    (lambda: scale_linear(1, 4, 0.999), r"s_max must be finite and >= 1, got 0\.999"),
], ids=["regularizer", "regularizer saturated", "regularizer float", "cosine zero",
        "cosine nan", "cosine s_min zero", "cosine s_min nan", "linear zero",
        "linear nan", "linear inf", "linear no batches", "linear negative batches",
        "cosine string progress", "cosine none progress", "cosine bool progress",
        "cosine nan progress", "cosine s_min above s_max", "cosine s_max below one",
        "linear s_max below one"])
def test_degenerate_penalty_and_schedule_arguments_refused(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(tg.UsageError, match=name) as err:
            call()
    assert "\n" not in str(err.value)


def test_s_max_of_one_is_a_flat_schedule():
    # the least s_max: both schedules span [1/s_max, s_max], and below 1
    # the cosine's floor exceeded s_max while the linear ramp fell
    assert [scale_linear(b, 4, 1.0) for b in range(1, 5)] == [1.0] * 4
    assert [scale_cosine(p, 1) for p in (0.0, 0.25, 0.5, 1.0)] == [1.0, 1.0, 1.0, 1.0]
    assert TrainerConfig(s_max=1.0).s_max == bench.ExperimentConfig(s_max=1).s_max == 1


def objective_and_grads(fused, rows, cums, weight, gated, tasks=4, s=2.5):
    """The training objective's value, the gradient of the logits under its
    loss parent and each masker's embedding gradient. ``fused`` records
    train_task's ``objective`` node, else the public composition
    ``add(loss, scale(regularizer(current masks), weight))``; ``gated``
    runs each masker's training gate into the loss first, so the rows also
    take the gates' gradients and the live masks reuse their sigmoids."""
    rng = np.random.default_rng(72)
    maskers = [HATMasker(len(e), tasks, f"m{i}") for i, e in enumerate(rows)]
    for m, e in zip(maskers, rows):
        m.embedding_rows[0].data[...] = e
    logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    with tg.Tape() as tape:
        loss = tg.softmax_cross_entropy(logits, [0, 3, 1])
        if gated:
            for m in maskers:
                x = Tensor(rng.standard_normal((3, m.n_features)))
                gate = m.apply(HATPayload(x, task=0, scale=s, training=True))
                loss = tg.add(loss, tg.reduce_sum(gate))
        if fused:
            capacity = [_free_capacity(c) for c in cums]
            penalized = [m for m, k in zip(maskers, capacity) if k is not None]
            out = _objective(loss, penalized, [k for k in capacity if k is not None],
                             0, s, weight, np.float64(-1.0 / tasks))
            node = tape.nodes[out.node_id]
            assert node.op == "objective" and node.parents[0] == loss.node_id
        else:
            masks = [tg.attention(m.embedding_rows[0], s) for m in maskers]
            out = tg.add(loss, tg.scale(regularizer(masks, cums, tasks), weight))
    tape.backward(out)
    grads = [m.embedding_rows[0].grad for m in maskers]
    return (out.data, logits.grad.tobytes(),
            [None if g is None else g.tobytes() for g in grads])


class TestObjectiveNode:
    rng = np.random.default_rng(73)
    CASES = {
        "one layer": ([rng.uniform(-1, 1, 5)], [np.zeros(5)]),
        "two layers": ([rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 3)],
                       [np.zeros(5), np.array([0.0, 1.0, 0.0])]),
        "three layers": ([rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 6),
                          np.full(3, -3.0)],
                         [np.ones(4), np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
                          np.zeros(3)]),
        "saturated layer": ([rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3)],
                            [np.ones(4), np.zeros(3)]),
        "under quota": ([np.full(5, -3.0)], [np.zeros(5)]),
        "under quota beside over": ([np.full(4, -3.0), rng.uniform(-1, 1, 3)],
                                    [np.zeros(4), np.zeros(3)]),
        "partly claimed": ([rng.uniform(-1, 1, 6)],
                           [np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0])]),
    }

    @pytest.mark.parametrize("gated", [True, False])
    @pytest.mark.parametrize("weight", [0.075, -0.5])
    @pytest.mark.parametrize("case", list(CASES))
    def test_bit_identical_to_public_composition(self, case, weight, gated):
        rows, cums = self.CASES[case]
        value, logit_grad, row_grads = objective_and_grads(True, rows, cums, weight, gated)
        ref_value, ref_logit_grad, ref_row_grads = objective_and_grads(
            False, rows, cums, weight, gated)
        assert (value.dtype, value.shape) == (ref_value.dtype, ref_value.shape)
        assert value.tobytes() == ref_value.tobytes()
        assert logit_grad == ref_logit_grad
        assert row_grads == ref_row_grads
        if "saturated" in case or case == "three layers":  # no free capacity
            assert (row_grads[0] is None) == (not gated)


class TestInitEmbeddings:
    def test_ones(self):
        m = HATMasker(4, 3, "m")
        m.embedding_rows[1].data[...] = -2.0
        init_embeddings([m], "ones")
        for row in m.embedding_rows:
            np.testing.assert_array_equal(row.data, np.ones(4))
        np.testing.assert_allclose(m.mask_values(0), np.ones(4), atol=1e-12)

    def test_gaussian_reproducible(self):
        m1 = HATMasker(8, 2, "a")
        m2 = HATMasker(8, 2, "b")
        init_embeddings([m1], "gaussian", np.random.default_rng(5))
        init_embeddings([m2], "gaussian", np.random.default_rng(5))
        for r1, r2 in zip(m1.embedding_rows, m2.embedding_rows):
            np.testing.assert_array_equal(r1.data, r2.data)
        assert not np.array_equal(m1.embedding_rows[0].data,
                                  m1.embedding_rows[1].data)

    def test_bad_kind(self):
        with pytest.raises(tg.UsageError):
            init_embeddings([], "uniform")

    def test_gaussian_needs_rng(self):
        with pytest.raises(tg.UsageError):
            init_embeddings([], "gaussian")


class TestSGD:
    def test_momentum_accumulates(self):
        p = Tensor([0.0], requires_grad=True)
        opt = SGD([p], lr=0.1, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()  # v=1, p=-0.1
        np.testing.assert_allclose(p.data, [-0.1])
        p.grad = np.array([1.0])
        opt.step()  # v=1.5, p=-0.25
        np.testing.assert_allclose(p.data, [-0.25])

    def test_none_grad_skipped(self):
        p = Tensor([1.0], requires_grad=True)
        opt = SGD([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0])

    def test_zero_grad(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([2.0])
        SGD([p], lr=0.1).zero_grad()
        assert p.grad is None

    @pytest.mark.parametrize("kwargs, field", [
        ({"lr": np.inf}, "lr"), ({"lr": np.nan}, "lr"), ({"lr": -0.1}, "lr"),
        ({"lr": True}, "lr"), ({"lr": 0.1, "momentum": 1.0}, "momentum"),
        ({"lr": 0.1, "momentum": -0.5}, "momentum"),
        ({"lr": 0.1, "momentum": np.nan}, "momentum"),
    ], ids=repr)
    def test_bad_numbers_are_refused(self, kwargs, field):
        # an infinite lr would turn every frozen weight into NaN (inf * 0)
        # and so move a completed task's logits
        with pytest.raises(tg.UsageError, match=f"^{field} must be") as err:
            SGD([Tensor([1.0], requires_grad=True)], **kwargs)
        assert "\n" not in str(err.value)

    @staticmethod
    def continual_model(seed):
        return bench.build_continual_model(
            np.random.default_rng(seed), bench.ExperimentConfig(tasks=2, dim=6, trunk_width=8))

    def test_one_optimizer_across_a_finalization_moves_no_completed_task(self):
        # velocity carried from task 0 would keep moving the weights its
        # finalization claims, though their gradients are zero
        model = self.continual_model(0)
        tasks = continual_tasks(2, np.random.default_rng(1), dim=6, train_n=256)
        params = list({id(p): p for t in (0, 1) for p in model.task_parameters(t)}.values())
        opt = SGD(params, lr=0.05, momentum=0.9)
        test_x = tasks[0].test[0]
        for task in (0, 1):
            x, y = tasks[task].train
            for _ in range(3):
                for start in range(0, len(y), 32):
                    batch = HATPayload(Tensor(x[start:start + 32]), task=task, scale=50.0,
                                       training=True)
                    with tg.Tape() as tape:
                        loss = tg.softmax_cross_entropy(
                            model.forward(batch).masked_data(), y[start:start + 32])
                    tape.backward(loss)
                    opt.step()
                    opt.zero_grad()
            for masker in model.maskers():
                masker.finalize_task(task)
            if task == 0:
                before = logits_of(model, test_x, 0)
        assert np.abs(logits_of(model, test_x, 0) - before).max() == 0.0

    def test_a_bare_gated_layers_optimizer_restarts_across_a_finalization(self):
        # no Sequential binds the layer; its leaves' rules name its masker,
        # so velocity from task 0 does not move the units task 0 claims
        rng = np.random.default_rng(5)
        layer = HATLinear(4, 6, 2, "l1", rng)
        x, y = rng.standard_normal((16, 4)), rng.integers(0, 6, 16)
        opt = SGD(layer.local_parameters() + layer.output_masker.embedding_rows,
                  lr=0.01, momentum=0.9)

        def outputs(task, steps=0):
            for _ in range(steps):
                with tg.Tape() as tape:
                    out = layer.forward(HATPayload(Tensor(x), task=task, scale=50.0,
                                                   training=True))
                    loss = tg.softmax_cross_entropy(out.masked_data(), y)
                tape.backward(loss)
                opt.step()
                opt.zero_grad()
            return layer.forward(HATPayload(Tensor(x), task=0)).masked_data().data

        outputs(0, steps=5)
        layer.output_masker.finalize_task(0)
        before = outputs(0)
        assert np.abs(outputs(1, steps=3) - before).max() == 0.0

    def test_finalizing_a_layers_input_side_alone_restarts_its_optimizer(self):
        # the gate is no leaf's output masker, only l1's input side; its new
        # claims hold more of l1's weight, so velocity restarts for them too
        rng = np.random.default_rng(6)
        gate, l1 = HATMasker(4, 2, "gate"), HATLinear(4, 6, 2, "l1", rng)
        Sequential(gate, l1)
        opt = SGD(l1.local_parameters(), lr=0.1, momentum=0.5)
        for p in opt.params:
            p.grad = np.ones_like(p.data)
        opt.step()
        gate.finalize_task(0)
        opt.step()  # v = 0 * 0.5 + 1: restarted
        assert all((v == 1.0).all() for v in opt.velocity)

    def test_finalizing_one_model_leaves_another_models_optimizer_alone(self):
        a, b = self.continual_model(2), self.continual_model(3)
        params = a.task_parameters(0)
        opt = SGD(params, lr=0.1, momentum=0.5)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        for masker in b.maskers():
            masker.finalize_task(0)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()  # v = 0.5 * 1 + 1: a's momentum carries on
        assert all((v == 1.5).all() for v in opt.velocity)


def two_cluster_task(rng, n=120, dim=6, sep=6.0):
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    half = n // 2
    x0 = rng.standard_normal((half, dim)) - direction * sep / 2
    x1 = rng.standard_normal((half, dim)) + direction * sep / 2
    x = np.vstack([x0, x1])
    y = np.array([0] * half + [1] * half)
    order = rng.permutation(n)
    return x[order], y[order]


def spiked_continual_model(rng, tasks, value=np.inf):
    """The continual model (dim 6, width 8) behind a function step, and
    that step: once its ``on`` is set it turns entry [0, 2] of each batch
    into ``value`` (inf, or NaN), a non-finite input that ``train_task``'s
    dataset check cannot see."""
    def spike(x):
        if not spike.on:
            return x
        bump = np.zeros(x.shape)
        bump[0, 2] = value
        return tg.add(x, Tensor(bump))

    spike.on = False
    steps = bench.build_continual_model(
        rng, bench.ExperimentConfig(tasks=tasks, dim=6, trunk_width=8)).steps
    return Sequential(spike, *steps), spike


def small_model(rng, task_count):
    return Sequential(
        HATLinear(6, 12, task_count, "l1", rng),
        ReLU(),
        HATLinear(12, 12, task_count, "l2", rng),
        ReLU(),
        tg.task_indexed_linear(12, 2, task_count, "head", rng),
    )


class TestTrainTask:
    def test_metrics_one_entry_per_epoch(self):
        rng = np.random.default_rng(51)
        model = small_model(rng, 2)
        data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=2, epochs=3, batch_size=30, seed=1)
        metrics = train_task(model, data, 0, cfg)
        assert len(metrics) == 3
        assert [m.epoch for m in metrics] == [0, 1, 2]

    def test_task_finalized_after_training(self):
        rng = np.random.default_rng(52)
        model = small_model(rng, 2)
        data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=2, epochs=1, batch_size=30, seed=1)
        train_task(model, data, 0, cfg)
        for masker in model.maskers():
            assert 0 in masker.stored_task_masks

    @pytest.mark.parametrize("task", [0, 1, None])
    def test_task_count_must_match_the_maskers(self, task):
        # task_count=1 on a 2-task model made the quota 1/T = 1, so the
        # capacity penalty never bound
        rng = np.random.default_rng(57)
        model = small_model(rng, 2)
        before = [m.embedding_rows[0].data.copy() for m in model.maskers()]
        cfg = TrainerConfig(task_count=1, epochs=1, batch_size=30, seed=1)
        with pytest.raises(tg.UsageError, match="task_count is 1 but masker 'l1.mask' "
                                                "has 2 tasks"):
            train_task(model, two_cluster_task(rng), task, cfg)
        assert all(np.array_equal(m.embedding_rows[0].data, b)
                   for m, b in zip(model.maskers(), before))
        assert all(not m.stored_task_masks for m in model.maskers())

    @pytest.mark.parametrize("task", [0, None])
    def test_s_max_must_match_the_maskers(self, task):
        # else the schedule would peak at 50 while compensation,
        # finalization and evaluate use the maskers' 400
        rng = np.random.default_rng(58)
        model = small_model(rng, 2)
        params = model.task_parameters(0)
        before = [p.data.copy() for p in params]
        cfg = TrainerConfig(task_count=2, s_max=50.0, epochs=1, batch_size=30)
        with pytest.raises(tg.UsageError, match="s_max is 50 but masker 'l1.mask' "
                                                "has s_max 400"):
            train_task(model, two_cluster_task(rng), task, cfg)
        assert all(np.array_equal(p.data, b) for p, b in zip(params, before))
        assert all(not m.stored_task_masks for m in model.maskers())

    def test_retraining_finalized_task_rejected(self):
        rng = np.random.default_rng(53)
        model = small_model(rng, 2)
        data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=2, epochs=1, batch_size=30, seed=1)
        train_task(model, data, 0, cfg)
        with pytest.raises(tg.StateError):
            train_task(model, data, 0, cfg)

    def test_separable_task_converges(self):
        rng = np.random.default_rng(54)
        model = small_model(rng, 2)
        data = two_cluster_task(rng, n=240)
        cfg = TrainerConfig(task_count=2, epochs=8, batch_size=24, seed=3)
        train_task(model, data, 0, cfg)
        assert evaluate(model, data, 0) > 0.95

    def test_deterministic_metrics(self):
        def run():
            rng = np.random.default_rng(55)
            model = small_model(rng, 2)
            data = two_cluster_task(rng)
            cfg = TrainerConfig(task_count=2, epochs=2, batch_size=30, seed=9)
            return train_task(model, data, 0, cfg)

        m1, m2 = run(), run()
        assert [(m.loss, m.accuracy) for m in m1] == [(m.loss, m.accuracy) for m in m2]

    def test_embeddings_stay_clamped(self):
        rng = np.random.default_rng(56)
        model = small_model(rng, 2)
        data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=2, epochs=2, batch_size=30, seed=2,
                            lr=5.0)  # absurd lr to provoke big embedding moves
        train_task(model, data, 0, cfg)
        for masker in model.maskers():
            for row in masker.embedding_rows:
                assert np.max(np.abs(row.data)) <= tg.E_MAX

    def test_early_stop_callback(self):
        rng = np.random.default_rng(57)
        model = small_model(rng, 2)
        data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=2, epochs=10, batch_size=30, seed=2)
        seen = []
        train_task(model, data, 0, cfg,
                   on_batch_end=lambda i, m: (seen.append(i), i >= 3)[1])
        assert seen == [1, 2, 3]

    @pytest.mark.parametrize("stop, shape", [
        ([False], "(1,)"), (np.array([True, False]), "(2,)"),
        ("False", "() of dtype <U5"), (float("nan"), "() of dtype float64"),
        (2, "() of dtype int64"), (np.array(0.5), "() of dtype float64")])
    def test_early_stop_callback_returns_one_flag(self, stop, shape):
        # [False] stopped the task after its first batch, a list being
        # truthy, and two flags raised numpy's own ValueError; "False", NaN,
        # 2 and 0.5 each read as True, so they stopped it too
        rng = np.random.default_rng(57)
        model = small_model(rng, 2)
        cfg = TrainerConfig(task_count=2, epochs=2, batch_size=30, seed=2)
        with pytest.raises(tg.UsageError, match=re.escape(
                f"on_batch_end must return one bool, got shape {shape}")) as err:
            train_task(model, two_cluster_task(rng), 0, cfg, on_batch_end=lambda i, m: stop)
        assert "\n" not in str(err.value)

    def test_task_beyond_head_refused(self):
        rng = np.random.default_rng(58)
        model = Sequential(HATLinear(6, 12, 3, "l1", rng), ReLU(),
                           tg.task_indexed_linear(12, 2, 2, "head", rng))
        cfg = TrainerConfig(task_count=3, epochs=1, batch_size=30, seed=2)
        with pytest.raises(tg.UsageError, match="out of range") as info:
            train_task(model, two_cluster_task(rng), 2, cfg)
        assert "\n" not in str(info.value)

    def test_non_finite_batch_moves_no_protected_entry(self):
        # inf * 0 is NaN: a nullify factor of 0 must give an exact zero
        rng = np.random.default_rng(59)
        model, spike = spiked_continual_model(rng, 2)
        data = two_cluster_task(rng)
        test_x = two_cluster_task(rng, n=40)[0]
        cfg = TrainerConfig(task_count=2, epochs=2, batch_size=30, seed=1)
        train_task(model, data, 0, cfg)
        # task 0 claims the whole trunk, so every l1/l2 entry is protected
        assert all(np.all(m.cumulative_mask == 1.0) for m in model.maskers())
        before = logits_of(model, test_x, 0)
        spike.on = True
        # task 1's own embedding rows go NaN, so it is not finalized
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(tg.StateError, match="not finite"):
            train_task(model, data, 1, cfg)
        spike.on = False
        assert logits_of(model, test_x, 0).tobytes() == before.tobytes()
        for layer in model.steps[1], model.steps[3]:
            for p in layer.weight, layer.bias:
                assert not np.isnan(p.data).any(), layer.layer_tag

    def test_non_finite_embedding_row_is_not_finalized(self):
        # a task-1 batch with one inf input turns task 1's embedding rows
        # NaN; finalizing them made the l1/l2 cumulative masks NaN, and
        # training task 2 on finite data then wrote NaN into every l1
        # weight, changing task 0's logits
        rng = np.random.default_rng(60)
        model, spike = spiked_continual_model(rng, 3)
        data = two_cluster_task(rng)
        test_x = two_cluster_task(rng, n=40)[0]
        cfg = TrainerConfig(task_count=3, epochs=2, batch_size=30, seed=1)
        train_task(model, data, 0, cfg)
        before = logits_of(model, test_x, 0)
        maskers = model.maskers()
        records = [(m.cumulative_mask.copy(), dict(m.stored_task_masks))
                   for m in maskers]
        spike.on = True
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(tg.StateError, match="not finite") as info:
            train_task(model, data, 1, cfg)
        spike.on = False
        assert "\n" not in str(info.value)
        # refused at every masker before any was finalized
        for m, (cum, stored) in zip(maskers, records):
            assert m.cumulative_mask.tobytes() == cum.tobytes(), m.layer_tag
            assert m.stored_task_masks.keys() == stored.keys() == {0}
            assert m.stored_task_masks[0] is stored[0]
        train_task(model, two_cluster_task(rng), 2, cfg)
        assert np.isfinite(model.steps[1].weight.data).all()
        assert logits_of(model, test_x, 0).tobytes() == before.tobytes()

    def test_refused_task_trains_again(self):
        # the batch with the inf input is refused before its optimizer step,
        # so task 1's head, norm and embedding slots stay finite and task 1
        # trains again on finite data
        rng = np.random.default_rng(62)
        model, spike = spiked_continual_model(rng, 3)
        data = two_cluster_task(rng)
        test_x = two_cluster_task(rng, n=40)[0]
        cfg = TrainerConfig(task_count=3, epochs=2, batch_size=30, seed=1)
        train_task(model, data, 0, cfg)
        before = logits_of(model, test_x, 0)
        spike.on = True
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(tg.StateError, match="not finite") as info:
            train_task(model, data, 1, cfg)
        spike.on = False
        assert "\n" not in str(info.value)
        params = model.task_parameters(1)
        assert all(p.grad is None and np.isfinite(p.data).all() for p in params)
        train_task(model, two_cluster_task(rng), 1, cfg)
        assert all(m.completed_tasks() == [0, 1] for m in model.maskers())
        assert np.isfinite(logits_of(model, test_x, 1)).all()
        assert logits_of(model, test_x, 0).tobytes() == before.tobytes()

    def test_a_nan_that_relu_hides_is_refused_before_the_step(self):
        # relu maps the NaN to 0, so the loss stays finite, but the gate's
        # backward wrote 0 * NaN into task 1's embedding row; the row stayed
        # NaN, and retraining the task on finite data was refused too
        rng = np.random.default_rng(62)
        model, spike = spiked_continual_model(rng, 3, value=np.nan)
        data = two_cluster_task(rng)
        test_x = two_cluster_task(rng, n=40)[0]
        cfg = TrainerConfig(task_count=3, epochs=2, batch_size=30, seed=1)
        train_task(model, data, 0, cfg)
        before = logits_of(model, test_x, 0)
        spike.on = True
        with np.errstate(invalid="ignore"), pytest.raises(
                tg.StateError, match="gradient of task 1's embedding rows in epoch 0 "
                                     "batch 1 is not finite") as info:
            train_task(model, data, 1, cfg)
        spike.on = False
        assert "\n" not in str(info.value)
        params = model.task_parameters(1)
        assert all(p.grad is None and np.isfinite(p.data).all() for p in params)
        train_task(model, two_cluster_task(rng), 1, cfg)
        assert all(m.completed_tasks() == [0, 1] for m in model.maskers())
        assert np.isfinite(logits_of(model, test_x, 1)).all()
        assert logits_of(model, test_x, 0).tobytes() == before.tobytes()

    def test_a_refusing_masker_leaves_every_masker_unfinalized(self):
        # only the last masker's row is bad; the first must not finalize
        rng = np.random.default_rng(61)
        model = small_model(rng, 2)
        first, last = model.maskers()

        def spoil(index, _model):  # after the last of 4 batches' steps
            if index == 4:
                last.embedding_rows[0].data[1] = np.nan

        cfg = TrainerConfig(task_count=2, epochs=1, batch_size=30, seed=1)
        with pytest.raises(tg.StateError, match="'l2.mask'"):
            train_task(model, two_cluster_task(rng), 0, cfg, on_batch_end=spoil)
        assert first.completed_tasks() == last.completed_tasks() == []
        assert not first.cumulative_mask.any() and not last.cumulative_mask.any()


def plain_stack(seed):
    rng = np.random.default_rng(seed)
    return Sequential(HATLinear(6, 10, 1, "l1", rng), ReLU(),
                      HATLinear(10, 2, 1, "l2", rng))


def count_forwards(model):
    """Make model.forward record the input batch of every call."""
    batches = []
    forward = model.forward

    def counting(payload):
        batches.append(payload.data.data)
        return forward(payload)

    model.forward = counting
    return batches


class TestEpochMetrics:
    def test_accuracy_without_learning_equals_evaluate(self):
        rng = np.random.default_rng(62)
        model = plain_stack(63)
        data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=1, epochs=2, batch_size=32, seed=5,
                            lr=0.0, reg_lambda=0.0)
        expected = evaluate(model, data, None)
        metrics = train_task(model, data, None, cfg)
        assert [m.accuracy for m in metrics] == [expected, expected]

    def test_early_stopped_epoch_counts_only_batches_run(self):
        rng = np.random.default_rng(64)
        model = plain_stack(65)
        x, y = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=1, epochs=3, batch_size=30, seed=6,
                            lr=0.0, reg_lambda=0.0)
        batches = count_forwards(model)
        # 4 batches per epoch: stop after the second batch of epoch 1
        metrics = train_task(model, (x, y), None, cfg,
                             on_batch_end=lambda i, m: i >= 6)
        assert len(metrics) == 2 and len(batches) == 6
        label = {row.tobytes(): t for row, t in zip(x, y)}
        ran_x = np.concatenate(batches[4:])
        ran_y = np.array([label[row.tobytes()] for row in ran_x])
        expected = evaluate(model, (ran_x, ran_y), None)
        assert len(ran_x) == 60
        assert metrics[1].accuracy == expected
        # the fixture discriminates: the whole set scores differently
        assert expected != evaluate(model, (x, y), None)

    # 4 batches per epoch, 3 epochs
    @pytest.mark.parametrize("stop_at, calls, epochs",
                             [(None, 12, 3), (6, 6, 2), (1, 1, 1)])
    def test_one_forward_per_training_batch(self, stop_at, calls, epochs):
        rng = np.random.default_rng(66)
        model = small_model(rng, 2)
        data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=2, epochs=3, batch_size=30, seed=7)
        batches = count_forwards(model)
        stop = None if stop_at is None else (lambda i, m: i >= stop_at)
        metrics = train_task(model, data, 0, cfg, on_batch_end=stop)
        assert len(batches) == calls
        assert len(metrics) == epochs


class ScaleSpy(PayloadModule):
    """A first step that records the mask scale each training batch runs at."""

    def __init__(self, members=None):
        self.members = members
        self.scales, self.writeable = [], []

    def forward(self, p):
        self.scales.append(np.array(p.scale, dtype=np.float64))
        self.writeable.append(isinstance(p.scale, np.ndarray) and p.scale.flags.writeable)
        return p


class TestScheduleInTraining:
    """Batch b of every epoch trains at the schedule's value for b."""

    # 5 full batches of 8 and one of 4 per epoch, over two epochs
    BATCHES, EPOCHS, S_MAX = 6, 2, 400.0

    def expected(self, schedule):
        b = range(1, self.BATCHES + 1)
        one_epoch = ([scale_linear(i, self.BATCHES, self.S_MAX) for i in b]
                     if schedule == "linear"
                     else [scale_cosine((i - 1) / self.BATCHES, self.S_MAX) for i in b])
        return np.array(one_epoch * self.EPOCHS)

    def config(self, schedule, seed=3):
        return TrainerConfig(task_count=2, s_max=self.S_MAX, schedule=schedule,
                             epochs=self.EPOCHS, batch_size=8, seed=seed)

    @staticmethod
    def toy(seed):
        return bench.build_toy_model(np.random.default_rng(seed),
                                     bench.ExperimentConfig(experiment="toy-init", tasks=2))

    @pytest.mark.parametrize("schedule", ["linear", "cosine"])
    def test_unstacked_batches_train_at_the_schedule(self, schedule):
        spy = ScaleSpy()
        model = Sequential(spy, self.toy(0))
        train_task(model, toy_dataset(44, np.random.default_rng(1)), 0, self.config(schedule))
        assert all(s.shape == () for s in spy.scales)
        np.testing.assert_array_equal(np.array(spy.scales), self.expected(schedule))

    def test_each_member_trains_at_its_own_schedule(self):
        schedules = ["linear", "cosine", "cosine", "linear"]
        spy = ScaleSpy(len(schedules))
        model = Sequential(spy, stack_members([self.toy(m) for m in range(len(schedules))]))
        data = [toy_dataset(44, np.random.default_rng(m)) for m in range(len(schedules))]
        train_task(model, (np.stack([x for x, _ in data]), np.stack([y for _, y in data])),
                   0, [self.config(s, seed=m) for m, s in enumerate(schedules)])
        recorded = np.array(spy.scales)
        assert recorded.shape == (self.BATCHES * self.EPOCHS, len(schedules), 1)
        for m, schedule in enumerate(schedules):
            np.testing.assert_array_equal(recorded[:, m, 0], self.expected(schedule))
        assert not any(spy.writeable)  # one array serves every epoch


def live_tapes():
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, tg.Tape)]


class TestTapes:
    def test_training_batches_record_fused_nodes(self, monkeypatch):
        batches = []
        backward = tg.Tape.backward

        def spy(tape, loss):
            batches.append(collections.Counter(node.op for node in tape.nodes))
            return backward(tape, loss)

        monkeypatch.setattr(tg.Tape, "backward", spy)
        # the default continual model on two tasks: task 0 pays the capacity
        # penalty, task 1 trains under nullification
        bench.run_continual(bench.ExperimentConfig(tasks=2, train_n=128,
                                                   test_n=16, epochs=2))
        assert len(batches) == 8
        for ops in batches:
            assert not {"permute", "matmul", "sigmoid", "mul", "sum", "mask",
                        "penalty", "scale", "add"} & set(ops), ops
            # one gate per masker, one linear per dense layer (head included),
            # one relu per ReLU module and none from the penalty
            assert (ops["gate"], ops["linear"], ops["relu"]) == (2, 3, 2)
        # a penalized batch adds the capacity penalty and its weight to the
        # cross-entropy in one objective node over both layers' rows
        assert [ops["objective"] for ops in batches] == [1] * 4 + [0] * 4

        # a toy step trains both strategies in lockstep on one tape: 5
        # stacked leaves, gate, linear, relu, linear, cross-entropy and
        # objective per member, and a sum of the member losses to seed
        # backward (11 nodes per batch when each run had its own tape)
        batches.clear()
        bench.run_toy(bench.ExperimentConfig(experiment="toy-init", repeats=1,
                                             batch_cap=6))
        assert len(batches) == 6  # 6 lockstep steps of 2 members
        for ops in batches:
            assert ops == {"leaf": 5, "gate": 1, "linear": 2, "relu": 1,
                           "softmax_cross_entropy": 1, "objective": 1, "sum": 1}, ops
            assert sum(ops.values()) == 12

    @pytest.mark.parametrize("stop_at", [None, 2])
    def test_no_tape_outlives_train_task(self, stop_at):
        rng = np.random.default_rng(67)
        model = small_model(rng, 2)
        data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=2, epochs=2, batch_size=30, seed=1)
        stop = None if stop_at is None else (lambda i, m: i >= stop_at)
        before = live_tapes()
        for task in (0, 1):  # task 1 trains under the nullify hooks
            train_task(model, data, task, cfg, on_batch_end=stop)
            assert [t for t in live_tapes() if not any(t is b for b in before)] == []

    @pytest.mark.parametrize("shape, stop_at", [
        ("continual", None), ("conv", None), ("continual", 2)])
    def test_train_task_leaves_no_cyclic_garbage(self, shape, stop_at):
        # each batch's tape is dropped once its backward ends, so reference
        # counting frees its graph and the collector finds nothing
        rng = np.random.default_rng(69)
        if shape == "conv":  # conv -> flatten -> HATLinear
            model = conv_model(rng, 2)
            x = inputs("conv", 60, rng)
            data = (x, (x.sum(axis=(1, 2, 3)) > 0).astype(int))
        else:
            model = bench.build_continual_model(
                rng, bench.ExperimentConfig(tasks=2, dim=6, trunk_width=8))
            data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=2, epochs=2, batch_size=30, seed=1)
        stop = None if stop_at is None else (lambda i, m: i >= stop_at)
        for task in (0, 1):  # task 0 pays the penalty, task 1 is nullified
            gc.collect()
            gc.disable()
            try:
                train_task(model, data, task, cfg, on_batch_end=stop)
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_a_hand_written_loop_frees_each_dropped_tape_without_the_collector(self):
        # a recorded tensor holds its tape weakly, so a loop of its own frees
        # each graph the moment it drops the tape, with nothing to release
        rng = np.random.default_rng(70)
        model = bench.build_continual_model(
            rng, bench.ExperimentConfig(tasks=2, dim=6, trunk_width=8))
        x, y = two_cluster_task(rng, n=16)
        params = model.task_parameters(0)
        tapes = []
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):  # rebinding `tape` drops the one before
                with tg.Tape() as tape:
                    out = model.forward(HATPayload(Tensor(x), task=0, scale=10.0,
                                                   training=True))
                    loss = tg.softmax_cross_entropy(out.masked_data(), y)
                tape.backward(loss)
                tapes.append(weakref.ref(tape))
                for p in params:
                    p.data -= 0.1 * p.grad
                    p.grad = None
            assert [t() is None for t in tapes] == [True, True, False]
            assert all(p.node_id is not None for p in params)
            del tape
            assert [t() for t in tapes] == [None] * 3
            assert [p.node_id for p in params] == [None] * len(params)
            assert loss.node_id is None and out.masked_data().node_id is None
        finally:
            gc.enable()


def tape_references(model):
    """(module name, attribute) pairs that hold a tape or a weak reference,
    directly or inside a tuple or list."""
    found = []
    for name, module, _ in walk(model):
        for attr, value in getattr(module, "__dict__", {}).items():
            items = value if isinstance(value, (tuple, list)) else (value,)
            if any(isinstance(v, (tg.Tape, weakref.ref)) for v in items):
                found.append((name, attr))
    return found


class TestTapeNotes:
    def test_modules_hold_no_tape_after_a_step(self):
        # task 1 trains under the nullify hooks and the live masks; what the
        # layers note about each recording stays on the tape (task 2 for the
        # hand-written step: a completed task's gate hooks no row)
        rng = np.random.default_rng(68)
        model = small_model(rng, 3)
        data = two_cluster_task(rng)
        cfg = TrainerConfig(task_count=3, epochs=1, batch_size=30, seed=1)
        train_task(model, data, 0, cfg)
        seen = []
        train_task(model, data, 1, cfg,
                   on_batch_end=lambda i, m: seen.append(tape_references(m)))
        assert seen == [[]] * 4

        x, y = data
        with tg.Tape() as tape:
            out = model.forward(HATPayload(Tensor(x), task=2, scale=2.0, training=True))
            loss = tg.softmax_cross_entropy(out.masked_data(), y)
        tape.backward(loss)
        assert tape_references(model) == []
        rows = {m.embedding_rows[2] for m in model.maskers()}
        assert set(tape.notes) == rows


class TestIdentityReduction:
    def test_plain_mode_matches_plain_network_trajectory(self):
        # same weights, same batches, lambda=0, no task id: the gated stack
        # must train exactly like an ordinary network
        rng = np.random.default_rng(58)
        data = two_cluster_task(rng, n=120)

        hat = Sequential(
            HATLinear(6, 10, 1, "l1", np.random.default_rng(77)),
            ReLU(),
            HATLinear(10, 2, 1, "l2", np.random.default_rng(78)),
        )
        plain = Sequential(
            Linear(6, 10, np.random.default_rng(0)),
            ReLU(),
            Linear(10, 2, np.random.default_rng(0)),
        )
        plain.steps[0].weight.data[...] = hat.steps[0].weight.data
        plain.steps[0].bias.data[...] = hat.steps[0].bias.data
        plain.steps[2].weight.data[...] = hat.steps[2].weight.data
        plain.steps[2].bias.data[...] = hat.steps[2].bias.data

        cfg = TrainerConfig(task_count=1, epochs=3, batch_size=30, seed=4,
                            reg_lambda=0.0)
        hat_metrics = train_task(hat, data, None, cfg)
        plain_metrics = train_task(plain, data, None, cfg)

        for hm, pm in zip(hat_metrics, plain_metrics):
            assert abs(hm.loss - pm.loss) < 1e-9
            assert hm.accuracy == pm.accuracy

    def test_plain_payload_through_gated_stack_is_base_output(self):
        rng = np.random.default_rng(59)
        model = small_model(rng, 2)
        x = rng.standard_normal((5, 6))
        out1 = model.forward(HATPayload(Tensor(x), task=0)).masked_data().data
        # absent task: the task-indexed head cannot dispatch, so check the
        # trunk only, as a model of its own once the full model is dropped
        steps = model.steps
        del model
        trunk = Sequential(*steps[:4])
        gated = trunk.forward(HATPayload(Tensor(x))).masked_data().data
        base = [Linear(6, 12, rng), Linear(12, 12, rng)]
        for plain, hat in zip(base, (trunk.steps[0], trunk.steps[2])):
            plain.weight.data[...] = hat.weight.data
            plain.bias.data[...] = hat.bias.data
        expected = tg.relu(base[1](tg.relu(base[0](Tensor(x))))).data
        assert np.array_equal(gated, expected)
        assert out1.shape == (5, 2)


def bad_dataset(rng, samples, labels, dtype=np.int64, entry=None):
    """Normal samples and labels of the given dtype; ``entry``, if given,
    becomes one sample value, in that value's type. ``samples`` is a count
    of 6-feature samples or the samples' whole shape; ``labels`` is a count
    or a shape."""
    x = rng.standard_normal(samples if isinstance(samples, tuple) else (samples, 6))
    if entry is not None:
        x = x.astype(type(entry))
        x[7, 2] = entry
    return x, rng.integers(0, 2, labels).astype(dtype)


class TestDatasetChecks:
    # (samples, labels[, label dtype[, sample entry]]): mismatched, empty,
    # labels not integers, samples that hold NaN (relu maps NaN to 0, so
    # the loss would stay finite while NaN reached the weights), samples
    # that are not numbers, samples or labels of the wrong rank: 0-d
    # samples, [N,1] labels (which broadcast against [N] predictions) and
    # 0-d labels, and samples that hold ±inf (as NaN; an inf also warned
    # in the first product and the layer norm before the loss refused it)
    BAD_DATASETS = [((8, 20), tg.ShapeError), ((20, 8), tg.ShapeError),
                    ((0, 0), tg.UsageError), ((20, 20, float), tg.UsageError),
                    ((20, 20, bool), tg.UsageError),
                    ((20, 20, np.int64, np.nan), tg.UsageError),
                    ((20, 20, np.int64, "a"), tg.UsageError),
                    (((), 1), tg.ShapeError), ((20, (20, 1)), tg.ShapeError),
                    ((20, ()), tg.ShapeError),
                    ((20, 20, np.int64, np.inf), tg.UsageError),
                    ((20, 20, np.int64, -np.inf), tg.UsageError)]

    @pytest.mark.parametrize("sizes, error", BAD_DATASETS)
    @pytest.mark.parametrize("task", [0, None])
    def test_bad_dataset_refused_before_anything_moves(self, sizes, error, task):
        rng = np.random.default_rng(62)
        model = small_model(rng, 2)
        params = model.task_parameters(0)
        before = [p.data.copy() for p in params]
        x, y = bad_dataset(rng, *sizes)
        with pytest.raises(error) as err:
            train_task(model, (x, y), task, TrainerConfig(task_count=2, epochs=1))
        assert "\n" not in str(err.value)
        for p, data in zip(params, before):
            np.testing.assert_array_equal(p.data, data)
            assert p.grad is None and p.node_id is None
        assert [m.completed_tasks() for m in model.maskers()] == [[], []]

    @pytest.mark.parametrize("steps", [(), (ReLU(),), (lambda t: t,)],
                             ids=["empty", "relu", "function"])
    @pytest.mark.parametrize("task", [0, None])
    def test_a_model_with_nothing_to_train_is_refused_before_the_data(self, steps, task):
        # backward used to fail on such a model: its loss was never recorded
        class Untouchable:
            def __iter__(self):
                raise AssertionError("the dataset was read")

        with pytest.raises(tg.UsageError, match=re.escape(
                f"the model has no parameters to train for task {task}")) as err:
            train_task(Sequential(*steps), Untouchable(), task, TrainerConfig(epochs=1))
        assert "\n" not in str(err.value)

    def test_list_samples_train_as_arrays(self):
        x, y = two_cluster_task(np.random.default_rng(66))
        cfg = TrainerConfig(task_count=2, epochs=2, batch_size=30)
        runs = []
        for data in ((x, y), (x.tolist(), y.tolist())):
            model = small_model(np.random.default_rng(67), 2)
            metrics = train_task(model, data, 0, cfg)
            runs.append((metrics, [p.data for p in model.task_parameters(0)],
                         evaluate(model, data, 0)))
        (m_arr, p_arr, acc_arr), (m_list, p_list, acc_list) = runs
        assert m_arr == m_list and acc_arr == acc_list
        assert all(np.array_equal(a, b) for a, b in zip(p_arr, p_list))

    def test_a_batch_refused_after_recording_releases_its_tape(self):
        # a label outside [0, C) is refused by the cross-entropy, after the
        # forward has recorded; no leaf may stay attached to that tape
        rng = np.random.default_rng(64)
        model = small_model(rng, 2)
        x, y = two_cluster_task(rng)
        y[3] = 5
        with pytest.raises(tg.UsageError, match="label") as err:
            train_task(model, (x, y), 0, TrainerConfig(task_count=2, epochs=1))
        assert "\n" not in str(err.value)
        params = model.task_parameters(0)
        assert len(params) == 8
        assert [p.node_id for p in params] == [None] * 8

    @pytest.mark.parametrize("sizes, error", BAD_DATASETS)
    def test_evaluate_refuses_bad_dataset(self, sizes, error):
        rng = np.random.default_rng(63)
        model = small_model(rng, 2)
        x, y = bad_dataset(rng, *sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as err:
                evaluate(model, (x, y), 0)
        assert "\n" not in str(err.value)


class TestEvaluate:
    def test_untrained_binary_classifier_near_chance(self):
        rng = np.random.default_rng(60)
        model = small_model(rng, 2)
        x = rng.standard_normal((1000, 6))
        y = rng.integers(0, 2, 1000)
        acc = evaluate(model, (x, y), 0)
        assert 0.4 <= acc <= 0.6

    @pytest.mark.parametrize("label, seen", [(7, "[1, 7]"), (-1, "[-1, 1]")])
    def test_labels_outside_the_head_are_refused(self, label, seen):
        # a 2-class head: label 7 read 0.0 and label -1 counted no hit,
        # where train_task refuses both
        rng = np.random.default_rng(64)
        model = small_model(rng, 2)
        x, y = rng.standard_normal((10, 6)), np.full(10, label)
        y[1] = 1
        with pytest.raises(tg.UsageError, match=re.escape(
                f"labels must lie in [0, 2), got range {seen}")) as err:
            evaluate(model, (x, y), 0)
        assert "\n" not in str(err.value)

    def test_an_active_tape_is_refused(self):
        # inside a tape, evaluate recorded its forward there (18 nodes on
        # this model) and, once a task completes, its protection hooks
        cfg = bench.ExperimentConfig(tasks=2)
        model = bench.build_continual_model(np.random.default_rng(65), cfg)
        data = continual_tasks(2, np.random.default_rng(66), dim=cfg.dim,
                               train_n=8, test_n=8)[0].test
        with tg.Tape() as tape:
            with pytest.raises(tg.UsageError, match="outside the active tape") as err:
                evaluate(model, data, 0)
        assert "\n" not in str(err.value)
        assert tape.nodes == [] and tape.notes == {}
        assert 0.0 <= evaluate(model, data, 0) <= 1.0

    def test_evaluation_is_stateless(self):
        rng = np.random.default_rng(61)
        model = small_model(rng, 2)
        data = two_cluster_task(rng)
        first = evaluate(model, data, 0)
        second = evaluate(model, data, 0)
        assert first == second

    def test_config_validation(self):
        with pytest.raises(tg.UsageError):
            TrainerConfig(task_count=0)
        with pytest.raises(tg.UsageError):
            TrainerConfig(reg_lambda=-0.1)
        nan, inf = float("nan"), float("inf")
        for name, value in [("batch_size", 0), ("batch_size", -3), ("s_max", 0.0),
                            ("s_max", -1.0), ("s_max", inf), ("s_max", 0.5),
                            ("s_max", nan), ("epochs", 0), ("epochs", -1),
                            ("schedule", "cosin"), ("schedule", "step"),
                            ("schedule", ""), ("init", "zeros"), ("init", ""),
                            ("epochs", 1.5), ("epochs", True), ("batch_size", 8.0),
                            ("batch_size", True), ("task_count", 2.0),
                            ("task_count", True), ("lr", nan), ("lr", inf),
                            ("lr", -0.1), ("lr", "0.1"), ("lr", True),
                            ("momentum", 1.0), ("momentum", -0.1), ("momentum", nan),
                            ("reg_lambda", nan), ("reg_lambda", inf),
                            ("reg_lambda", -0.1), ("reg_lambda", False),
                            ("seed", -1), ("seed", 1.5), ("seed", True)]:
            with pytest.raises(tg.UsageError, match=name) as err:
                TrainerConfig(**{"task_count": 1, name: value})
            assert "\n" not in str(err.value)
        TrainerConfig(task_count=1, lr=0.0, momentum=0.0, reg_lambda=0.0, seed=np.int64(0))

    def test_unknown_schedule_kind_rejected(self):
        with pytest.raises(tg.UsageError, match="schedule"):
            TrainerConfig(task_count=10, s_max=400.0, schedule="step")
