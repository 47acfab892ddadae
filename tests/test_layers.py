import numpy as np
import pytest

import taskgate as tg
from taskgate import (
    HATLinear,
    HATConv2d,
    HATMasker,
    HATPayload,
    Sequential,
    Tape,
    Tensor,
    attention,
    grad_compensate,
    grad_nullify,
    grad_rail,
)
from taskgate.layers import COSH_CLAMP, E_MAX, InputSide, Linear, ReLU, walk

from gated_models import claim_binary, flat_model, logits, sgd_steps
from gradcheck import assert_grads_match


class TestAttention:
    def test_zero_embedding_gives_half(self):
        for s in (0.0025, 1.0, 400.0):
            out = attention(Tensor(np.zeros(5)), s)
            np.testing.assert_array_equal(out.data, 0.5 * np.ones(5))

    def test_saturation_at_high_scale(self):
        a = attention(Tensor([1.0, -1.0]), 400.0)
        assert abs(a.data[0] - 1.0) < 1e-12
        assert abs(a.data[1]) < 1e-12

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(tg.UsageError):
            attention(Tensor([0.0]), 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            e = Tensor(rng.standard_normal(6) * 0.5, requires_grad=True)
            s = float(rng.uniform(0.5, 4.0))
            assert_grads_match(lambda: attention(e, s).sum(), [e])


class TestGradNullify:
    def test_zero_masks_leave_gradient_alone(self):
        g = np.arange(6.0).reshape(2, 3)
        out = grad_nullify(g, np.zeros(2), np.zeros(3))
        np.testing.assert_array_equal(out, g)

    def test_full_masks_zero_everything(self):
        g = np.ones((2, 3))
        out = grad_nullify(g, np.ones(2), np.ones(3))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_entry_factor_is_one_minus_min(self):
        # out 0.5 and in 0.8 at a unit pair: factor (1 - min) = 0.5, so 2 -> 1
        out = grad_nullify(np.array([[2.0]]), np.array([0.5]), np.array([0.8]))
        np.testing.assert_array_equal(out, [[1.0]])

    def test_mixed_rows(self):
        # the smaller adjacent mask decides how much survives
        g = np.array([[5.0], [5.0]])
        out = grad_nullify(g, np.array([1.0, 0.0]), np.array([0.3]))
        np.testing.assert_allclose(out, [[3.5], [5.0]])

    def test_bias_rule_uses_output_side_only(self):
        g = np.array([4.0, 4.0, 4.0])
        out = grad_nullify(g, np.array([1.0, 0.25, 0.0]))
        np.testing.assert_allclose(out, [0.0, 3.0, 4.0])

    def test_conv_kernels_share_factor_over_taps(self):
        g = np.ones((2, 3, 2, 2))
        out = grad_nullify(g, np.array([1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
        np.testing.assert_array_equal(out[0, 0], np.zeros((2, 2)))
        np.testing.assert_array_equal(out[0, 1], np.zeros((2, 2)))
        np.testing.assert_array_equal(out[0, 2], np.ones((2, 2)))  # min(1,0)=0 -> keep
        np.testing.assert_array_equal(out[1], np.ones((3, 2, 2)))

    def test_idempotent_for_binary_masks(self):
        rng = np.random.default_rng(31)
        g = rng.standard_normal((4, 5))
        a_out = rng.integers(0, 2, 4).astype(float)
        a_in = rng.integers(0, 2, 5).astype(float)
        once = grad_nullify(g, a_out, a_in)
        twice = grad_nullify(once, a_out, a_in)
        np.testing.assert_array_equal(once, twice)

    def test_random_inputs_match_closed_form(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            g = rng.standard_normal((3, 4))
            a_out = rng.uniform(0, 1, 3)
            a_in = rng.uniform(0, 1, 4)
            expected = np.empty_like(g)
            for i in range(3):
                for j in range(4):
                    expected[i, j] = (1.0 - min(a_out[i], a_in[j])) * g[i, j]
            np.testing.assert_array_equal(grad_nullify(g, a_out, a_in), expected)


class TestGradCompensate:
    def test_zero_embedding_scales_by_smax_over_s(self):
        q = np.array([1.0, -2.0])
        out = grad_compensate(q, np.zeros(2), s=8.0, s_max=400.0)
        np.testing.assert_allclose(out, q * 50.0)

    def test_identity_at_full_scale_zero_embedding(self):
        q = np.array([3.0])
        np.testing.assert_allclose(grad_compensate(q, np.zeros(1), 400.0, 400.0), q)

    def test_unit_scale_ratio_is_smax(self):
        # s=1 makes numerator and denominator cosh terms cancel exactly
        q = np.array([0.7])
        out = grad_compensate(q, np.array([0.1]), s=1.0, s_max=400.0)
        np.testing.assert_allclose(out, q * 400.0)

    def test_random_inputs_match_closed_form(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            q = rng.standard_normal(8)
            e = rng.uniform(-E_MAX, E_MAX, 8)
            s = float(rng.uniform(0.0025, 400.0))
            expected = q * (400.0 * (np.cosh(np.clip(s * e, -50, 50)) + 1.0)
                            / (s * (np.cosh(np.clip(e, -50, 50)) + 1.0)))
            np.testing.assert_allclose(grad_compensate(q, e, s, 400.0), expected,
                                       rtol=1e-15)  # a couple of ulps

    def test_cosh_argument_clamp_prevents_overflow(self):
        out = grad_compensate(np.array([1.0]), np.array([6.0]), 400.0, 400.0)
        assert np.isfinite(out[0])
        expected = 400.0 * (np.cosh(COSH_CLAMP) + 1.0) / (400.0 * (np.cosh(6.0) + 1.0))
        np.testing.assert_allclose(out, [expected])


class TestGradRail:
    def test_clips_to_multiple_of_raw_max(self):
        q = np.array([5000.0, -3.0, -9000.0])
        out = grad_rail(q, raw_abs_max=0.5)
        np.testing.assert_array_equal(out, [50.0, -3.0, -50.0])

    def test_zero_raw_max_zeroes_everything(self):
        np.testing.assert_array_equal(grad_rail(np.array([1.0, -1.0]), 0.0),
                                      [0.0, 0.0])


class TestMaskerLifecycle:
    def test_finalize_takes_elementwise_max(self):
        m = HATMasker(2, 3, "m")
        m.cumulative_mask = np.array([0.9, 0.1])
        m.embedding_rows[0].data[...] = 0.0  # placeholder values, overridden below
        # drive the new mask to [0.2, 0.8] by choosing embeddings at s_max
        e = np.array([np.log(0.2 / 0.8), np.log(0.8 / 0.2)]) / 400.0
        m.embedding_rows[0].data[...] = e
        m.finalize_task(0)
        np.testing.assert_allclose(m.cumulative_mask, [0.9, 0.8], atol=1e-12)

    def test_stored_mask_binarized_at_half(self):
        m = HATMasker(2, 2, "m")
        m.embedding_rows[0].data[...] = [1.0, -1.0]
        m.finalize_task(0)
        np.testing.assert_array_equal(m.stored_task_masks[0], [True, False])

    def test_first_task_saturated_ones(self):
        m = HATMasker(4, 2, "m")  # embeddings start at 1
        m.finalize_task(0)
        np.testing.assert_allclose(m.cumulative_mask, np.ones(4), atol=1e-12)

    def test_double_finalize_rejected(self):
        m = HATMasker(2, 2, "m")
        m.finalize_task(0)
        with pytest.raises(tg.StateError):
            m.finalize_task(0)
        m.finalize_task(1)  # other tasks unaffected

    def test_cumulative_monotone_across_tasks(self):
        rng = np.random.default_rng(34)
        m = HATMasker(8, 4, "m")
        previous = m.cumulative_mask.copy()
        for t in range(4):
            m.embedding_rows[t].data[...] = rng.standard_normal(8)
            m.finalize_task(t)
            assert np.all(m.cumulative_mask >= previous)
            previous = m.cumulative_mask.copy()

    def test_clamp_embeddings(self):
        m = HATMasker(3, 1, "m")
        m.embedding_rows[0].data[...] = [10.0, -7.5, 2.0]
        m.clamp_embeddings()
        np.testing.assert_array_equal(m.embedding_rows[0].data, [6.0, -6.0, 2.0])


def _payload(x, task, scale, training=True):
    return HATPayload(Tensor(x), task=task, scale=scale, training=training)


class TestGatedForward:
    def test_first_task_gradients_unhooked(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((4, 3))

        def grads(task, training):
            r = np.random.default_rng(99)
            layer = HATLinear(3, 2, task_count=2, layer_tag="l", rng=r)
            with Tape() as tape:
                out = layer.forward(_payload(x, task, 1.0, training))
                loss = tg.reduce_sum(out.masked_data())
            tape.backward(loss)
            return layer.weight.grad.copy(), layer.bias.grad.copy()

        gw_train, gb_train = grads(task=0, training=True)
        gw_plain, gb_plain = grads(task=0, training=False)
        np.testing.assert_array_equal(gw_train, gw_plain)
        np.testing.assert_array_equal(gb_train, gb_plain)

    def test_saturated_cumulative_masks_freeze_weights(self):
        rng = np.random.default_rng(36)
        pre = HATMasker(3, 2, "pre")
        pre.cumulative_mask = np.ones(3)
        layer = HATLinear(3, 2, task_count=2, layer_tag="l", rng=rng)
        layer.output_masker.cumulative_mask = np.ones(2)
        model = Sequential(pre, layer)

        p = _payload(rng.standard_normal((4, 3)), task=1, scale=1.0)
        with Tape() as tape:
            out = model.forward(p)
            loss = tg.reduce_sum(out.masked_data())
        tape.backward(loss)
        np.testing.assert_array_equal(layer.weight.grad, np.zeros((2, 3)))
        np.testing.assert_array_equal(layer.bias.grad, np.zeros(2))

    def test_hooked_gradient_equals_closed_form(self):
        rng = np.random.default_rng(37)
        x = rng.standard_normal((5, 3))
        a_in = rng.uniform(0, 1, 3)
        a_out = rng.uniform(0, 1, 2)

        def run(with_history):
            r = np.random.default_rng(7)
            pre = HATMasker(3, 2, "pre")
            pre.embedding_rows[1].data[...] = 0.0
            layer = HATLinear(3, 2, task_count=2, layer_tag="l", rng=r)
            if with_history:
                pre.cumulative_mask = a_in.copy()
                layer.output_masker.cumulative_mask = a_out.copy()
            model = Sequential(pre, layer)
            with Tape() as tape:
                out = model.forward(_payload(x, task=1, scale=2.0))
                loss = tg.reduce_sum(out.masked_data())
            tape.backward(loss)
            return layer.weight.grad.copy(), layer.bias.grad.copy()

        gw_hooked, gb_hooked = run(with_history=True)
        gw_raw, gb_raw = run(with_history=False)
        np.testing.assert_array_equal(gw_hooked, grad_nullify(gw_raw, a_out, a_in))
        np.testing.assert_array_equal(gb_hooked, grad_nullify(gb_raw, a_out))

    def test_first_layer_protects_by_output_side(self):
        # no masker below this layer: rows whose output unit is fully claimed
        # freeze entirely, other rows keep their raw gradient
        rng = np.random.default_rng(38)
        layer = HATLinear(3, 2, task_count=2, layer_tag="l", rng=rng)
        layer.output_masker.cumulative_mask = np.array([1.0, 0.0])
        with Tape() as tape:
            out = layer.forward(_payload(np.ones((2, 3)), task=1, scale=1.0))
            loss = tg.reduce_sum(out.masked_data())
        tape.backward(loss)
        np.testing.assert_array_equal(layer.weight.grad[0], np.zeros(3))
        assert np.all(layer.weight.grad[1] != 0.0)

    def test_embedding_hook_applies_compensation_and_rail(self):
        rng = np.random.default_rng(39)
        x = rng.standard_normal((6, 3))
        e = rng.uniform(-0.5, 0.5, 3)
        s = 40.0

        def embedding_grad(training):
            m = HATMasker(3, 1, "m", s_max=400.0)
            m.embedding_rows[0].data[...] = e
            with Tape() as tape:
                p = m(HATPayload(Tensor(x), task=0, scale=s, training=training))
                loss = tg.reduce_sum(p.masked_data())
            tape.backward(loss)
            return m.embedding_rows[0].grad.copy()

        raw = embedding_grad(training=False)
        hooked = embedding_grad(training=True)
        expected = grad_rail(grad_compensate(raw, e, s, 400.0),
                             float(np.max(np.abs(raw))))
        np.testing.assert_array_equal(hooked, expected)

    def test_conv_layer_masks_channels_and_freezes(self):
        rng = np.random.default_rng(40)
        layer = HATConv2d(2, 3, kernel_size=3, task_count=2, layer_tag="c",
                          rng=rng, padding=1)
        layer.output_masker.cumulative_mask = np.ones(3)
        with Tape() as tape:
            out = layer.forward(_payload(rng.standard_normal((2, 2, 4, 4)),
                                         task=1, scale=1.0))
            loss = tg.reduce_sum(out.masked_data())
        tape.backward(loss)
        np.testing.assert_array_equal(layer.weight.grad, np.zeros((3, 2, 3, 3)))
        assert out.masked_data().shape == (2, 3, 4, 4)

    @pytest.mark.parametrize("kwargs", [
        {"stride": 0}, {"stride": (1,)}, {"stride": 1.5}, {"padding": -1},
        {"padding": (1, 2, 3)}, {"kernel_size": 0}, {"kernel_size": (3,)},
        {"kernel_size": (3, 2.0)},
    ], ids=repr)
    def test_conv_layer_refuses_bad_arguments_when_built(self, kwargs):
        args = {"kernel_size": 3, **kwargs}
        with pytest.raises(tg.UsageError, match=next(iter(kwargs))) as err:
            HATConv2d(2, 3, task_count=1, layer_tag="c",
                      rng=np.random.default_rng(0), **args)
        assert "\n" not in str(err.value)

    def test_output_masked_when_layer_returns(self):
        rng = np.random.default_rng(41)
        layer = HATLinear(3, 2, task_count=1, layer_tag="l", rng=rng)
        layer.output_masker.embedding_rows[0].data[...] = [E_MAX, -E_MAX]
        out = layer.forward(_payload(np.ones((1, 3)), task=0, scale=400.0))
        np.testing.assert_array_equal(out.data.data[:, 1], [0.0])
        assert out.data.data[0, 0] != 0.0


class TestTaskIndexed:
    def test_dispatch_isolates_parameters(self):
        ti = tg.task_indexed_layer_norm(4, 3, "norm")
        ti.submodules[1].gain.data[...] = 5.0
        x = np.ones((2, 4))
        out0 = ti.forward(HATPayload(Tensor(x), task=0, scale=1.0))
        out1 = ti.forward(HATPayload(Tensor(x), task=1, scale=1.0))
        # constant rows normalize to zero, so the shift (still 0) dominates
        np.testing.assert_array_equal(out0.data.data, out1.data.data)
        ti.submodules[1].shift.data[...] = 2.0
        out1b = ti.forward(HATPayload(Tensor(x), task=1, scale=1.0))
        assert not np.array_equal(out0.data.data, out1b.data.data)

    def test_fresh_submodules_agree_on_any_input(self):
        rng = np.random.default_rng(42)
        ti = tg.task_indexed_layer_norm(4, 3, "norm")
        x = rng.standard_normal((3, 4))
        outs = [ti.forward(HATPayload(Tensor(x), task=t, scale=1.0)).data.data
                for t in range(3)]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])

    def test_training_one_task_leaves_others_bit_identical(self):
        rng = np.random.default_rng(43)
        ti = tg.task_indexed_linear(4, 2, 3, "head", rng)
        frozen = [(m.weight.data.copy(), m.bias.data.copy())
                  for m in ti.submodules]
        x = rng.standard_normal((8, 4))
        for _ in range(5):
            with Tape() as tape:
                out = ti.forward(HATPayload(Tensor(x), task=1, scale=1.0,
                                            training=True))
                loss = tg.softmax_cross_entropy(out.masked_data(),
                                                rng.integers(0, 2, 8))
            tape.backward(loss)
            for p in ti.task_parameters(1):
                p.data -= 0.1 * p.grad
                p.grad = None
        for t in (0, 2):
            assert np.array_equal(ti.submodules[t].weight.data, frozen[t][0])
            assert np.array_equal(ti.submodules[t].bias.data, frozen[t][1])
        assert not np.array_equal(ti.submodules[1].weight.data, frozen[1][0])

    def test_absent_task_rejected(self):
        ti = tg.task_indexed_layer_norm(4, 2, "norm")
        with pytest.raises(tg.UsageError):
            ti.forward(HATPayload(Tensor(np.ones((1, 4)))))

    def test_out_of_range_task_rejected(self):
        ti = tg.task_indexed_layer_norm(4, 2, "norm")
        with pytest.raises(tg.UsageError):
            ti.forward(HATPayload(Tensor(np.ones((1, 4))), task=5, scale=1.0))


class TestSequential:
    def build(self, rng, task_count=2):
        return Sequential(
            HATLinear(3, 8, task_count, "l1", rng),
            ReLU(),
            HATLinear(8, 8, task_count, "l2", rng),
            ReLU(),
            tg.task_indexed_layer_norm(8, task_count, "norm"),
            tg.task_indexed_linear(8, 2, task_count, "head", rng),
        )

    def test_walk_resolves_input_sides(self):
        rng = np.random.default_rng(45)
        model = self.build(rng)
        gated = [(m, side) for _, m, side in walk(model) if side is not None]
        assert [m for m, _ in gated] == [model.steps[0], model.steps[2]]
        assert gated[0][1] == InputSide()  # first layer: nothing below
        assert gated[1][1] == InputSide(model.steps[0].output_masker, 1)
        assert model.steps[2].input_side == gated[1][1]

    def test_standalone_masker_feeds_first_weighted_layer(self):
        rng = np.random.default_rng(46)
        gate = HATMasker(3, 2, "in")
        model = Sequential(gate, HATLinear(3, 4, 2, "l1", rng))
        assert model.steps[1].input_side == InputSide(gate, 1)
        assert model.maskers() == [gate, model.steps[1].output_masker]

    def test_task_parameters_pick_one_embedding_row(self):
        rng = np.random.default_rng(47)
        model = self.build(rng)
        params = model.task_parameters(1)
        l1 = model.steps[0]
        assert l1.weight in params and l1.bias in params
        assert l1.output_masker.embedding_rows[1] in params
        assert l1.output_masker.embedding_rows[0] not in params
        head = model.steps[5]
        assert head.submodules[1].weight in params
        assert head.submodules[0].weight not in params

    def test_plain_payload_equals_base_network(self):
        # absent task id: the gated stack collapses to its base modules
        rng = np.random.default_rng(48)
        l1 = HATLinear(3, 5, 2, "l1", rng)
        l2 = HATLinear(5, 2, 2, "l2", rng)
        model = Sequential(l1, ReLU(), l2)
        x = rng.standard_normal((4, 3))
        gated = model.forward(HATPayload(Tensor(x))).masked_data().data

        p1, p2 = Linear(3, 5, rng), Linear(5, 2, rng)
        for plain, hat in ((p1, l1), (p2, l2)):
            plain.weight.data[...] = hat.weight.data
            plain.bias.data[...] = hat.bias.data
        assert np.array_equal(gated, p2(tg.relu(p1(Tensor(x)))).data)


class TestProtection:
    def test_binary_masks_give_bit_exact_task0_preservation(self):
        rng = np.random.default_rng(49)
        task_count = 2
        model = Sequential(
            HATLinear(4, 6, task_count, "l1", rng),
            ReLU(),
            HATLinear(6, 6, task_count, "l2", rng),
            ReLU(),
            tg.task_indexed_linear(6, 2, task_count, "head", rng),
        )
        # force exactly binary task-0 masks: half the units fully claimed
        for masker in model.maskers():
            e = np.full(masker.n_features, -E_MAX)
            e[: masker.n_features // 2] = E_MAX
            masker.embedding_rows[0].data[...] = e
            masker.finalize_task(0)
            assert set(np.unique(masker.cumulative_mask)) <= {0.0, 1.0}

        x_eval = rng.standard_normal((8, 4))

        def task0_logits():
            out = model.forward(HATPayload(Tensor(x_eval), task=0))
            return out.masked_data().data.copy()

        before = task0_logits()

        # train task 1 for a while with gradient descent on everything it may touch
        x = rng.standard_normal((16, 4))
        y = rng.integers(0, 2, 16)
        params = model.task_parameters(1)
        for _ in range(25):
            with Tape() as tape:
                out = model.forward(HATPayload(Tensor(x), task=1, scale=30.0,
                                               training=True))
                loss = tg.softmax_cross_entropy(out.masked_data(), y)
            tape.backward(loss)
            for p in params:
                if p.grad is not None:
                    p.data -= 0.2 * p.grad
                    p.grad = None

        after = task0_logits()
        assert np.array_equal(before, after)  # bit-exact, not merely close

    def test_out_of_order_training_keeps_completed_task_bit_exact(self):
        # task 2 completes first; training task 0 afterwards must not move it
        rng = np.random.default_rng(50)
        model = flat_model(rng, task_count=3)
        claim_binary(model, 2, rng)
        x_eval = rng.standard_normal((8, 4))
        before = logits(model, x_eval, 2)
        sgd_steps(model, rng.standard_normal((16, 4)), rng.integers(0, 2, 16), 0)
        assert np.array_equal(before, logits(model, x_eval, 2))

    def test_retraining_forgotten_slot_keeps_other_tasks_bit_exact(self):
        rng = np.random.default_rng(51)
        model = flat_model(rng, task_count=3)
        claim_binary(model, 0, rng)
        claim_binary(model, 1, rng)
        x_eval = rng.standard_normal((8, 4))
        before = logits(model, x_eval, 1)
        tg.forget_task(model, 0)
        assert np.array_equal(before, logits(model, x_eval, 1))
        sgd_steps(model, rng.standard_normal((16, 4)), rng.integers(0, 2, 16), 0)
        assert np.array_equal(before, logits(model, x_eval, 1))
