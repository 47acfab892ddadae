import numpy as np
import pytest

import taskgate as tg
from taskgate import HATLinear, HATMasker, HATPayload, Linear, ReLU, Sequential, Tensor
from taskgate.training import (
    SGD,
    ScheduleState,
    TrainerConfig,
    evaluate,
    init_embeddings,
    regularizer,
    scale_cosine,
    scale_linear,
    train_task,
)

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

    def test_out_of_range_batch_rejected(self):
        with pytest.raises(tg.UsageError):
            scale_linear(0, 10, 400.0)
        with pytest.raises(tg.UsageError):
            scale_linear(11, 10, 400.0)


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

    def test_explicit_floor_respected(self):
        assert scale_cosine(0.5, 400.0, s_min=3.0) == 3.0

    def test_invalid_progress(self):
        with pytest.raises(tg.UsageError):
            scale_cosine(1.5, 400.0)


class TestScheduleState:
    def test_progress_within_epoch(self):
        st = ScheduleState("cosine", 400.0, batch_index=1, total_batches=8)
        assert st.progress == 0.0
        assert st.value() == 400.0
        st = ScheduleState("cosine", 400.0, batch_index=5, total_batches=8)
        assert st.progress == 0.5

    def test_linear_kind(self):
        st = ScheduleState("linear", 400.0, batch_index=1, total_batches=10)
        assert st.value() == 1 / 400.0

    def test_unknown_kind(self):
        with pytest.raises(tg.UsageError):
            ScheduleState("step", 400.0, 1, 10).value()


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
        # trunk only
        trunk = Sequential(*model.steps[:4])
        gated = trunk.forward(HATPayload(Tensor(x))).masked_data().data
        base = [Linear(6, 12, rng), Linear(12, 12, rng)]
        for plain, hat in zip(base, (trunk.steps[0], trunk.steps[2])):
            plain.weight.data[...] = hat.weight.data
            plain.bias.data[...] = hat.bias.data
        expected = tg.relu(base[1](tg.relu(base[0](Tensor(x))))).data
        assert np.array_equal(gated, expected)
        assert out1.shape == (5, 2)


class TestEvaluate:
    def test_untrained_binary_classifier_near_chance(self):
        rng = np.random.default_rng(60)
        model = small_model(rng, 2)
        x = rng.standard_normal((1000, 6))
        y = rng.integers(0, 2, 1000)
        acc = evaluate(model, (x, y), 0)
        assert 0.4 <= acc <= 0.6

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
        for name, value in [("batch_size", 0), ("batch_size", -3), ("s_max", 0.0),
                            ("s_max", -1.0), ("s_max", float("inf")),
                            ("s_max", float("nan"))]:
            with pytest.raises(tg.UsageError, match=name) as err:
                TrainerConfig(task_count=1, **{name: value})
            assert "\n" not in str(err.value)
