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
from taskgate import layers as layers_module
from taskgate.checkpoint import load_model_state, model_state
from taskgate.forgetting import forget_task
from taskgate.layers import COSH_CLAMP, E_MAX, InputSide, Linear, ReLU, walk

from gated_models import (BUILDERS, Rescale, claim_binary, flat_model, gated_layers, inputs,
                          logits, set_binary_row, sgd_steps)
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
            assert_grads_match(lambda: tg.reduce_sum(attention(e, s)), [e])


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


# every float class a clamp can meet: signed zeros, NaNs of either sign,
# infinities, subnormal-adjacent, on and around the bounds
EDGES = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-300, -1e-300,
                  5.0, -5.0, 6.0, -6.0, 7.0, -7.0, 50.0, -50.0, 1e300, -1e300])


class TestClampBits:
    """The clamps keep np.clip's bits, a NaN's sign and -0.0 included."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("bound", [0.0, 6.0, 50.0, np.inf, np.nan, 3e-5])
    def test_rail(self, bound, dtype):
        with np.errstate(over="ignore"):
            q = np.tile(EDGES, 3).astype(dtype)  # past the 16-lane SIMD width
        out = layers_module._clip(q, bound)  # grad_rail's clip, at RAIL_FACTOR * max
        assert out.dtype == dtype
        assert out.tobytes() == np.clip(q, -bound, bound).tobytes()

    def test_compensation_arguments(self):
        e = np.tile(EDGES, 3)
        for s in (1.0, 0.0025, 400.0):
            with np.errstate(invalid="ignore", over="ignore"):
                out = grad_compensate(np.ones_like(e), e, s, 400.0)
                expected = (400.0 * (np.cosh(np.clip(s * e, -COSH_CLAMP, COSH_CLAMP)) + 1.0)
                            / (s * (np.cosh(np.clip(e, -COSH_CLAMP, COSH_CLAMP)) + 1.0)))
            assert out.tobytes() == expected.tobytes()

    def test_embedding_rows(self):
        m = HATMasker(EDGES.size, 1, "m")
        row = m.embedding_rows[0]
        row.data[...] = EDGES
        m.clamp_embeddings(0)
        assert row.data.tobytes() == np.clip(EDGES, -E_MAX, E_MAX).tobytes()


class TestMaskerLifecycle:
    def test_finalize_takes_elementwise_max(self):
        # the cumulative mask is the OR of the stored binary masks, even
        # where a finalized mask was soft: 0.9 -> 1, 0.1 -> 0, 0.2 -> 0, 0.8 -> 1
        m = HATMasker(3, 3, "m")
        for task, soft in enumerate(([0.9, 0.1, 0.2], [0.2, 0.8, 0.1])):
            soft = np.array(soft)
            m.embedding_rows[task].data[...] = np.log(soft / (1.0 - soft)) / 400.0
            m.finalize_task(task)
        np.testing.assert_array_equal(m.stored_task_masks[0], [True, False, False])
        np.testing.assert_array_equal(m.stored_task_masks[1], [False, True, False])
        np.testing.assert_array_equal(m.cumulative_mask, [1.0, 1.0, 0.0])
        for task in (0, 1):
            np.testing.assert_array_equal(m.mask_values(task),
                                          m.stored_task_masks[task])

    def test_completed_task_runs_on_its_stored_mask(self):
        # a soft finalized mask (0.9, 0.3) gates as its binary record (1, 0)
        # at any scale, and the task's embedding row takes no gradient
        m = HATMasker(2, 2, "m")
        soft = np.array([0.9, 0.3])
        m.embedding_rows[0].data[...] = np.log(soft / (1.0 - soft)) / 400.0
        m.finalize_task(0)
        x = Tensor(np.array([[2.0, -3.0], [0.5, 4.0]]), requires_grad=True)
        with Tape() as tape:
            out = m(HATPayload(x, task=0, scale=2.0, training=True)).masked_data()
            loss = tg.reduce_sum(out)
        node = tape.nodes[out.node_id]  # a gate over the data alone
        assert node.op == "gate" and node.parents == (x.node_id,) and not node.hooks
        tape.backward(loss)
        np.testing.assert_array_equal(out.data, x.data * [1.0, 0.0])
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0], [1.0, 0.0]])
        assert m.embedding_rows[0].grad is None
        np.testing.assert_array_equal(m.mask_values(0), [1.0, 0.0])

    @pytest.mark.parametrize("kind", ["flat", "conv"])
    def test_a_float32_models_completed_task_keeps_float32(self, kind):
        # a stored mask is read in its row's dtype: the completed task's
        # logits used to widen to float64
        model = BUILDERS[kind](np.random.default_rng(71), 2)
        for _, _, leaf, _ in model._leaf_table:
            leaf.data = leaf.data.astype(np.float32)
        for m in model.maskers():
            m.finalize_task(0)
            assert m.mask_values(0).dtype == np.float32
        x = inputs(kind, 3, np.random.default_rng(72)).astype(np.float32)
        for task in (0, 1):  # completed and untrained
            assert logits(model, x, task).dtype == np.float32

    @pytest.mark.parametrize("gate", [None, "eval", "other scale"])
    @pytest.mark.parametrize("s", [1.0 / 400.0, 2.5, 400.0])
    def test_live_mask_is_attention(self, s, gate):
        # a live mask is attention over the row: scale and sigmoid nodes
        # whose value is the masker's sigmoid at that scale. An eval gate
        # before it hooks nothing; after a training gate at another scale
        # the row's hook compensates attention's contribution at the gate's
        # scale
        rng = np.random.default_rng(44)
        e = np.concatenate([rng.uniform(-1, 1, 5), [0.0, -0.0, 3.0, -3.0]])
        w = rng.standard_normal(len(e))
        x = rng.standard_normal((2, len(e)))
        training = gate == "other scale"
        gate_s = 2.0 * s if training else s

        def mask_and_grad(gated, attend, training=False):
            m = HATMasker(len(e), 2, "m")
            row = m.embedding_rows[0]
            row.data[...] = e
            mask = None
            with Tape() as tape:
                terms = []
                if gated:
                    p = m(HATPayload(Tensor(x), task=0, scale=gate_s, training=training))
                    terms.append(tg.reduce_sum(p.masked_data()))
                if attend:
                    recorded = len(tape.nodes)
                    mask = attention(row, s)
                    ops = [n.op for n in tape.nodes[recorded:] if n.op != "leaf"]
                    assert ops == ["scale", "sigmoid"]
                    scaled = tape.nodes[mask.node_id].parents[0]
                    assert tape.nodes[scaled].parents == (row.node_id,)
                    terms.append(tg.reduce_sum(tg.mul(mask, Tensor(w))))
                loss = terms[0] if len(terms) == 1 else tg.add(*terms)
            tape.backward(loss)
            return mask, row.grad.copy()

        mask, grad = mask_and_grad(gate is not None, True, training)
        assert mask.data.tobytes() == tg.sigmoid_values(s * e).tobytes()
        if gate is None:
            return
        raw_gate, raw_attention = mask_and_grad(True, False)[1], mask_and_grad(False, True)[1]
        if training:
            def protect(raw):
                return grad_rail(grad_compensate(raw, e, gate_s, 400.0),
                                 float(np.max(np.abs(raw))))
            assert not np.array_equal(protect(raw_attention), raw_attention)
            raw_gate, raw_attention = protect(raw_gate), protect(raw_attention)
        np.testing.assert_array_equal(grad, raw_gate + raw_attention)

    def test_stored_mask_binarized_at_half(self):
        # saturated units, and units whose sigmoid(s_max * e) is 0.55 and
        # 0.45: the threshold is 0.5, not elsewhere between them
        m = HATMasker(4, 2, "m")
        soft = np.array([0.55, 0.45])
        m.embedding_rows[0].data[...] = np.r_[1.0, -1.0, np.log(soft / (1.0 - soft)) / 400.0]
        np.testing.assert_allclose(m.mask_values(0)[2:], soft, atol=1e-12)
        m.finalize_task(0)
        np.testing.assert_array_equal(m.stored_task_masks[0], [True, False, True, False])

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_not_finalized(self, bad):
        m = HATMasker(3, 3, "m")
        set_binary_row(m, 0, [1])
        m.finalize_task(0)
        cumulative = m.cumulative_mask.copy()
        m.embedding_rows[1].data[...] = [1.0, bad, -1.0]
        with pytest.raises(tg.StateError, match="not finite") as info:
            m.finalize_task(1)
        assert "\n" not in str(info.value)
        assert m.cumulative_mask.tobytes() == cumulative.tobytes()
        assert m.completed_tasks() == [0]
        m.reset_task(1, "ones")  # a fresh row finalizes again
        m.finalize_task(1)
        assert np.isfinite(m.cumulative_mask).all()

    def test_cumulative_monotone_across_tasks(self):
        rng = np.random.default_rng(34)
        m = HATMasker(8, 4, "m")
        previous = m.cumulative_mask.copy()
        for t in range(4):
            m.embedding_rows[t].data[...] = rng.standard_normal(8)
            m.finalize_task(t)
            assert np.all(m.cumulative_mask >= previous)
            previous = m.cumulative_mask.copy()

    def test_reset_task_frees_the_slot(self):
        m = HATMasker(3, 3, "m")
        for t, on in enumerate(([0], [1], [0, 2])):
            set_binary_row(m, t, on)
            m.finalize_task(t)
        m.reset_task(2, "gaussian", np.random.default_rng(8))
        np.testing.assert_array_equal(m.embedding_rows[2].data,
                                      np.random.default_rng(8).standard_normal(3))
        assert m.completed_tasks() == [0, 1]
        np.testing.assert_array_equal(
            m.cumulative_mask, np.maximum(m.mask_values(0), m.mask_values(1)))
        m.reset_task(1, "ones")
        np.testing.assert_array_equal(m.embedding_rows[1].data, np.ones(3))
        np.testing.assert_array_equal(m.cumulative_mask, m.mask_values(0))
        m.reset_task(1, "ones")  # a slot without a stored mask keeps the records
        np.testing.assert_array_equal(m.cumulative_mask, m.mask_values(0))

    def test_reset_task_clears_the_rows_gradient(self):
        # else the next optimizer step would move the fresh row by it
        m = HATMasker(3, 2, "m")
        with Tape() as tape:
            out = m.apply(HATPayload(Tensor(np.ones((2, 3))), task=1, scale=1.0))
            loss = tg.reduce_sum(out)
        tape.backward(loss)
        row = m.embedding_rows[1]
        assert row.grad is not None
        m.reset_task(1, "ones")
        assert row.grad is None

    @pytest.mark.parametrize("init", ["zeros", "gaussian"])  # gaussian: no rng
    def test_reset_task_refuses_bad_init(self, init):
        m = HATMasker(3, 2, "m")
        set_binary_row(m, 0, [1])
        m.finalize_task(0)
        row, cumulative = m.embedding_rows[0].data.copy(), m.cumulative_mask.copy()
        with pytest.raises(tg.UsageError):
            m.reset_task(0, init)
        np.testing.assert_array_equal(m.embedding_rows[0].data, row)
        np.testing.assert_array_equal(m.cumulative_mask, cumulative)
        assert m.completed_tasks() == [0]

    def test_clamp_embeddings(self):
        m = HATMasker(3, 3, "m")
        for row in m.embedding_rows:
            row.data[...] = [10.0, -7.5, 2.0]
        m.clamp_embeddings(1)
        np.testing.assert_array_equal(m.embedding_rows[1].data, [6.0, -6.0, 2.0])
        for t in (0, 2):  # rows the training task did not move stay as they are
            np.testing.assert_array_equal(m.embedding_rows[t].data, [10.0, -7.5, 2.0])


def _payload(x, task, scale, training=True):
    return HATPayload(Tensor(x), task=task, scale=scale, training=training)


BAD_SCALES = [0.0, -1.0, -5.0, float("nan"), float("inf"), -float("inf"), True,
              "2.0", np.float64("nan")]


class TestScaleChecks:
    @staticmethod
    def builders(s_max):
        rng = np.random.default_rng(0)
        return (lambda: HATMasker(3, 2, "m", s_max=s_max),
                lambda: HATLinear(3, 2, 2, "l", rng, s_max=s_max).output_masker,
                lambda: HATConv2d(2, 3, 3, 2, "c", rng, s_max=s_max).output_masker)

    # below 1 no training schedule can reach the masker's s_max
    @pytest.mark.parametrize("bad", BAD_SCALES + [None, 0.5, 0.999], ids=repr)
    def test_bad_s_max_refused_when_built(self, bad):
        for build in self.builders(bad):
            with pytest.raises(tg.UsageError, match="s_max") as err:
                build()
            assert "\n" not in str(err.value)

    def test_s_max_of_one_is_accepted(self):
        assert [build().s_max for build in self.builders(1.0)] == [1.0] * 3

    @pytest.mark.parametrize("completed", [False, True])
    @pytest.mark.parametrize("bad", BAD_SCALES, ids=repr)
    def test_bad_scale_refused_everywhere(self, bad, completed):
        m = HATMasker(3, 2, "m")
        if completed:
            set_binary_row(m, 0, [1])
            m.finalize_task(0)
        calls = [lambda: m.resolve_scale(bad),
                 lambda: m.apply(_payload(np.ones((2, 3)), 0, bad)),
                 lambda: attention(m.embedding_rows[0], bad)]
        for call in calls:
            with pytest.raises(tg.UsageError, match="mask scale") as err:
                call()
            assert "\n" not in str(err.value)

    def test_numpy_and_integer_scales_are_accepted(self):
        m = HATMasker(3, 2, "m", s_max=np.float32(8.0))
        assert type(m.s_max) is float and m.s_max == 8.0
        m.embedding_rows[0].data[...] = [0.5, -0.25, 1.0]
        want = m.apply(_payload(np.ones((2, 3)), 0, 2.0)).data
        for s in (np.float64(2.0), np.int64(2), 2):
            assert m.resolve_scale(s) == 2.0
            np.testing.assert_array_equal(m.apply(_payload(np.ones((2, 3)), 0, s)).data, want)


class TestCumulativeMaskRecord:
    def test_same_read_only_object_until_the_records_change(self):
        m = HATMasker(3, 3, "m")
        first = m.cumulative_mask
        assert m.cumulative_mask is first and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        with pytest.raises(ValueError):
            first += 1.0
        # training, reading and resetting a slot with no stored mask
        # leave the records, and so the object, as they are
        with Tape():
            m.apply(_payload(np.ones((2, 3)), 0, 2.0))
            attention(m.embedding_rows[0], 2.0)
        m.mask_values(0)
        m.clamp_embeddings(0)
        m.reset_task(1, "ones")
        assert m.cumulative_mask is first

        set_binary_row(m, 0, [1])
        m.finalize_task(0)
        second = m.cumulative_mask
        assert second is not first and not second.flags.writeable
        np.testing.assert_array_equal(second, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(first, [0.0, 0.0, 0.0])  # never written
        m.reset_task(0, "ones")
        third = m.cumulative_mask
        assert third is not second and not third.flags.writeable
        np.testing.assert_array_equal(third, [0.0, 0.0, 0.0])
        m.restore_stored_masks({2: np.array([1, 0, 1])})
        assert m.cumulative_mask is not third and not m.cumulative_mask.flags.writeable
        np.testing.assert_array_equal(m.cumulative_mask, [1.0, 0.0, 1.0])

    def test_refreshed_by_forget_and_checkpoint_load(self):
        model = flat_model(np.random.default_rng(44), 3)
        for masker in model.maskers():
            set_binary_row(masker, 0, [0])
            masker.finalize_task(0)
            set_binary_row(masker, 1, [1, 2])
            masker.finalize_task(1)
        both = {m: m.cumulative_mask for m in model.maskers()}
        state = model_state(model)
        forget_task(model, 1)
        for masker, before in both.items():
            after = masker.cumulative_mask
            assert after is not before and not after.flags.writeable
            np.testing.assert_array_equal(after, masker.mask_values(0))
        load_model_state(model, state)
        for masker, before in both.items():
            assert masker.cumulative_mask is not before
            assert masker.cumulative_mask.tobytes() == before.tobytes()


class TestNullifyInputs:
    """A gated layer's hooks read the maskers' records as they are at each
    taped forward: forgetting, retraining and rewrapping all show."""

    @staticmethod
    def hook_inputs(model, task, monkeypatch):
        """(layer tag, a_out, a_in) of every weight hook run by one taped step."""
        seen = []

        def recording(g, a_out_cum, a_in_cum=None):
            if g.ndim > 1:
                seen.append((a_out_cum.copy(),
                             None if a_in_cum is None else a_in_cum.copy()))
            return grad_nullify(g, a_out_cum, a_in_cum)

        rng = np.random.default_rng(45)
        with monkeypatch.context() as patch:
            patch.setattr(layers_module, "grad_nullify", recording)
            sgd_steps(model, rng.standard_normal((6, 4)), rng.integers(0, 2, 6),
                      task, steps=1)
        return seen

    @staticmethod
    def expected_inputs(model):
        out = []
        for _, layer, side in walk(model):
            if side is None or not layer.output_masker.cumulative_mask.any():
                continue
            a_in = (None if side.masker is None
                    else side.expand(side.masker.cumulative_mask))
            out.append((layer.output_masker.cumulative_mask, a_in))
        return out[::-1]  # hooks run in backward order

    def assert_hooks_read_the_records(self, model, task, monkeypatch):
        seen = self.hook_inputs(model, task, monkeypatch)
        want = self.expected_inputs(model)
        assert len(seen) == len(want) > 0
        for (a_out, a_in), (w_out, w_in) in zip(seen, want):
            np.testing.assert_array_equal(a_out, w_out)
            if w_in is None:
                assert a_in is None
            else:
                np.testing.assert_array_equal(a_in, w_in)
        return seen

    def test_forget_and_retrain_refresh_the_hooks(self, monkeypatch):
        model = flat_model(np.random.default_rng(46), 3)
        for task, units in ((0, [0]), (1, [1, 2])):
            for masker in model.maskers():
                set_binary_row(masker, task, units)
                masker.finalize_task(task)
        both = self.assert_hooks_read_the_records(model, 2, monkeypatch)
        forget_task(model, 1)
        forgotten = self.assert_hooks_read_the_records(model, 2, monkeypatch)
        for masker in model.maskers():  # retrain slot 1 on other units
            set_binary_row(masker, 1, [3, 4])
            masker.finalize_task(1)
        retrained = self.assert_hooks_read_the_records(model, 2, monkeypatch)
        np.testing.assert_array_equal(both[-1][0], [1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(forgotten[-1][0], [1, 0, 0, 0, 0, 0])
        np.testing.assert_array_equal(retrained[-1][0], [1, 0, 0, 1, 1, 0])
        np.testing.assert_array_equal(retrained[0][1], [1, 0, 0, 1, 1, 0])

    def test_rewrapping_in_a_new_sequential_refreshes_the_hooks(self, monkeypatch):
        rng = np.random.default_rng(47)
        first, second = HATMasker(4, 3, "first"), HATMasker(4, 3, "second")
        layer = HATLinear(4, 3, 3, "l", rng)
        for masker, units in ((first, [0]), (second, [1, 3]),
                              (layer.output_masker, [0, 2])):
            set_binary_row(masker, 0, units)
            masker.finalize_task(0)
        (a_in,) = [w for _, w in self.assert_hooks_read_the_records(
            Sequential(first, layer), 1, monkeypatch)]
        np.testing.assert_array_equal(a_in, [1, 0, 0, 0])
        model = Sequential(second, layer)
        (a_in,) = [w for _, w in self.assert_hooks_read_the_records(
            model, 1, monkeypatch)]
        np.testing.assert_array_equal(a_in, [0, 1, 0, 1])
        set_binary_row(second, 1, [2])  # only the input side's records change
        second.finalize_task(1)
        (a_in,) = [w for _, w in self.assert_hooks_read_the_records(
            model, 2, monkeypatch)]
        np.testing.assert_array_equal(a_in, [0, 1, 1, 1])


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
        layer = HATLinear(3, 2, task_count=2, layer_tag="l", rng=rng)
        for masker in pre, layer.output_masker:  # task 0 claims every unit
            set_binary_row(masker, 0, range(masker.n_features))
            masker.finalize_task(0)
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
        a_in = np.array([1.0, 0.0, 1.0])
        a_out = np.array([0.0, 1.0])

        def run(with_history):
            r = np.random.default_rng(7)
            pre = HATMasker(3, 2, "pre")
            pre.embedding_rows[1].data[...] = 0.0
            layer = HATLinear(3, 2, task_count=2, layer_tag="l", rng=r)
            if with_history:  # task 0 claims the units where a_in / a_out are 1
                for masker, claimed in ((pre, a_in), (layer.output_masker, a_out)):
                    set_binary_row(masker, 0, np.flatnonzero(claimed))
                    masker.finalize_task(0)
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
        set_binary_row(layer.output_masker, 0, [0])  # task 0 claims unit 0
        layer.output_masker.finalize_task(0)
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

    def test_gate_and_live_mask_rail_their_own_contributions(self):
        # at a soft scale compensation multiplies the raw gradient by ~1e5,
        # so the rail clips both contributions to the embedding; railing
        # their sum instead would give another gradient
        rng = np.random.default_rng(43)
        x = rng.standard_normal((6, 3))
        e = rng.uniform(-0.5, 0.5, 3)
        s, cum, tasks = 1.0 / 400.0, np.zeros(3), 4

        def embedding_grad(training, gate=True, penalty=True):
            m = HATMasker(3, tasks, "m", s_max=400.0)
            row = m.embedding_rows[0]
            row.data[...] = e
            with Tape() as tape:
                terms = []
                if gate:
                    p = m(HATPayload(Tensor(x), task=0, scale=s, training=training))
                    terms.append(tg.reduce_sum(p.masked_data()))
                if penalty:
                    live = attention(row, s)
                    terms.append(tg.regularizer([live], [cum], tasks))
                loss = terms[0] if len(terms) == 1 else tg.add(*terms)
            if gate and penalty:
                assert tape.nodes[live.node_id].op == "sigmoid"
            tape.backward(loss)
            return row.grad.copy()

        def protect(raw):
            return grad_rail(grad_compensate(raw, e, s, 400.0),
                             float(np.max(np.abs(raw))))

        raw_gate = embedding_grad(training=False, penalty=False)
        raw_penalty = embedding_grad(training=False, gate=False)
        for raw in (raw_gate, raw_penalty):
            assert np.all(grad_compensate(raw, e, s, 400.0) != protect(raw))
        both = embedding_grad(training=True)
        np.testing.assert_array_equal(both, protect(raw_gate) + protect(raw_penalty))
        assert not np.array_equal(both, protect(raw_gate + raw_penalty))
        # without training nothing is compensated: the plain sum of the two
        np.testing.assert_array_equal(embedding_grad(training=False),
                                      raw_gate + raw_penalty)

    def test_attention_on_a_training_tape_is_compensated(self):
        # the training gate's hook on the row compensates and rails every
        # contribution that reaches it, attention's included, each on its own
        rng = np.random.default_rng(45)
        x = rng.standard_normal((6, 3))
        e = rng.uniform(-0.5, 0.5, 3)
        w = rng.standard_normal(3)
        s = 2.5

        def embedding_grad(training, gate=True, attend=True):
            m = HATMasker(3, 2, "m", s_max=400.0)
            row = m.embedding_rows[0]
            row.data[...] = e
            with Tape() as tape:
                terms = []
                if gate:
                    p = m(HATPayload(Tensor(x), task=0, scale=s, training=training))
                    terms.append(tg.reduce_sum(p.masked_data()))
                if attend:
                    terms.append(tg.reduce_sum(tg.mul(attention(row, s), Tensor(w))))
                loss = terms[0] if len(terms) == 1 else tg.add(*terms)
            tape.backward(loss)
            return row.grad.copy()

        def protect(raw):
            return grad_rail(grad_compensate(raw, e, s, 400.0),
                             float(np.max(np.abs(raw))))

        raw_gate = embedding_grad(training=False, attend=False)
        raw_attention = embedding_grad(training=False, gate=False)
        assert np.all(protect(raw_attention) != raw_attention)
        np.testing.assert_array_equal(embedding_grad(training=True),
                                      protect(raw_gate) + protect(raw_attention))

    def test_a_second_training_scale_for_a_task_on_one_tape_is_refused(self):
        # one hook on the row cannot tell two scales' contributions apart
        m = HATMasker(3, 2, "m")

        def gate(task, scale, training=True):
            m(HATPayload(Tensor(np.ones((2, 3))), task=task, scale=scale,
                         training=training))

        with Tape():
            gate(0, 2.0)
            gate(0, 2.0)                  # the same scale again
            gate(0, 4.0, training=False)  # an eval gate hooks nothing
            gate(1, 4.0)                  # another task's row
            with pytest.raises(tg.UsageError, match="scale 2.0") as err:
                gate(0, 4.0)
        assert "\n" not in str(err.value)

    def test_two_forwards_of_one_task_hook_each_parameter_once(self):
        # a second forward on the tape adds no second compensation and no
        # second nullification
        layer = HATLinear(3, 2, task_count=2, layer_tag="l",
                          rng=np.random.default_rng(46))
        set_binary_row(layer.output_masker, 0, [0])
        layer.output_masker.finalize_task(0)
        with Tape() as tape:
            for _ in range(2):
                layer.forward(_payload(np.ones((2, 3)), task=1, scale=2.0))
        row = layer.output_masker.embedding_rows[1]
        hooked = [len(tape.nodes[t.node_id].hooks)
                  for t in (row, layer.weight, layer.bias)]
        assert hooked == [1, 1, 1]

    def test_two_tasks_on_one_tape_are_each_compensated_at_their_scale(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((6, 3))
        rows = rng.uniform(-0.5, 0.5, (2, 3))
        scales = (2.5, 40.0)

        def embedding_grads(training, tasks):
            m = HATMasker(3, 2, "m", s_max=400.0)
            for t in (0, 1):
                m.embedding_rows[t].data[...] = rows[t]
            with Tape() as tape:
                terms = [tg.reduce_sum(m(HATPayload(
                    Tensor(x), task=t, scale=scales[t], training=training)).masked_data())
                    for t in tasks]
                loss = terms[0] if len(terms) == 1 else tg.add(*terms)
            tape.backward(loss)
            return [m.embedding_rows[t].grad for t in (0, 1)]

        both = embedding_grads(True, (0, 1))
        for t in (0, 1):
            raw = embedding_grads(False, (t,))[t]
            expected = grad_rail(grad_compensate(raw, rows[t], scales[t], 400.0),
                                 float(np.max(np.abs(raw))))
            np.testing.assert_array_equal(both[t], expected)

    def test_conv_layer_masks_channels_and_freezes(self):
        rng = np.random.default_rng(40)
        layer = HATConv2d(2, 3, kernel_size=3, task_count=2, layer_tag="c",
                          rng=rng, padding=1)
        set_binary_row(layer.output_masker, 0, range(3))  # task 0 claims all
        layer.output_masker.finalize_task(0)
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

    @pytest.mark.parametrize("build, name", [
        (lambda w, r: HATLinear(w, 3, 1, "l", r), "in_features"),
        (lambda w, r: HATLinear(3, w, 1, "l", r), "out_features"),
        (lambda w, r: HATConv2d(w, 3, 3, 1, "c", r), "in_channels"),
        (lambda w, r: HATConv2d(2, w, 3, 1, "c", r), "out_channels"),
        (lambda w, r: Linear(w, 3, r), "in_features"),
        (lambda w, r: Linear(3, w, r), "out_features"),
        (lambda w, r: HATMasker(w, 1, "m"), "n_features"),
        (lambda w, r: tg.LayerNorm(w), "n_features"),
    ], ids=["HATLinear.in", "HATLinear.out", "HATConv2d.in", "HATConv2d.out",
            "Linear.in", "Linear.out", "HATMasker", "LayerNorm"])
    @pytest.mark.parametrize("width", [0, -2, 2.0, True], ids=repr)
    def test_layers_refuse_bad_widths_when_built(self, build, name, width):
        with pytest.raises(tg.UsageError, match=name) as err:
            build(width, np.random.default_rng(0))
        assert "\n" not in str(err.value)

    def test_numpy_integer_widths_are_accepted(self):
        layer = HATLinear(np.int64(3), np.int32(2), 1, "l", np.random.default_rng(0))
        assert (layer.in_features, layer.out_features) == (3, 2)
        assert type(layer.in_features) is int
        assert layer.weight.shape == (2, 3)

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

    @pytest.mark.parametrize("task_count", [1, 2, 4])
    def test_linear_slots_start_bit_equal_and_share_no_array(self, task_count):
        # the first slot's draw, copied: one weight draw for every slot
        rng = np.random.default_rng(47)
        ti = tg.task_indexed_linear(5, 3, task_count, "head", rng)
        want = Linear(5, 3, np.random.default_rng(47))
        leaves = [leaf for sub in ti.submodules for leaf in sub.local_parameters()]
        for sub in ti.submodules:
            assert sub.weight.data.tobytes() == want.weight.data.tobytes()
            assert sub.bias.data.tobytes() == want.bias.data.tobytes()
            assert sub.weight.requires_grad and sub.bias.requires_grad
        arrays = [leaf.data for leaf in leaves]
        assert len({id(a) for a in arrays}) == len({id(leaf) for leaf in leaves}) \
            == 2 * task_count
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])
        # what follows on the rng is the draw after one Linear's
        after = np.random.default_rng(47)
        Linear(5, 3, after)
        assert rng.standard_normal() == after.standard_normal()

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
            for p in ti.submodule(1).local_parameters():
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

    @pytest.mark.parametrize("submodules", [
        lambda rng: [Sequential(Linear(4, 2, rng))],
        lambda rng: [ReLU()],
        lambda rng: [Rescale(4)],
        lambda rng: [],
        lambda rng: [Linear(4, 2, rng), ReLU()],
    ], ids=["sequential", "relu", "custom-module", "empty", "linear-and-relu"])
    def test_refuses_other_submodules_when_built(self, submodules):
        with pytest.raises(tg.UsageError, match="'head' needs one Linear or "
                                                "LayerNorm per task") as info:
            tg.TaskIndexed(submodules(np.random.default_rng(44)), "head")
        assert "\n" not in str(info.value)


@pytest.mark.parametrize("build", [
    lambda c, r: HATMasker(3, c, "m"),
    lambda c, r: HATLinear(3, 2, c, "l", r),
    lambda c, r: HATConv2d(2, 3, 3, c, "c", r),
    lambda c, r: tg.task_indexed_linear(3, 2, c, "head", r),
    lambda c, r: tg.task_indexed_layer_norm(3, c, "norm"),
], ids=["HATMasker", "HATLinear", "HATConv2d", "task_indexed_linear",
        "task_indexed_layer_norm"])
@pytest.mark.parametrize("count", [2.0, True, np.float64(2.0)], ids=repr)
def test_task_counts_must_be_ints(build, count):
    with pytest.raises(tg.UsageError, match="task_count") as err:
        build(count, np.random.default_rng(0))
    assert "\n" not in str(err.value)


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
        assert model.steps[2].weight.on_join.side == gated[1][1]

    def test_standalone_masker_feeds_first_weighted_layer(self):
        rng = np.random.default_rng(46)
        gate = HATMasker(3, 2, "in")
        model = Sequential(gate, HATLinear(3, 4, 2, "l1", rng))
        assert model.steps[1].weight.on_join.side == InputSide(gate, 1)
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

    def test_loop_without_training_flag_keeps_task0_bit_exact(self):
        # a hand-written loop on the payload's default training=False: the
        # nullify hooks hang on the tape alone, not on the flag
        rng = np.random.default_rng(49)
        model = Sequential(
            HATLinear(4, 6, 2, "l1", rng),
            ReLU(),
            HATLinear(6, 6, 2, "l2", rng),
            ReLU(),
            tg.task_indexed_linear(6, 2, 2, "head", rng),
        )
        claim_binary(model, 0, rng)
        x_eval = rng.standard_normal((8, 4))
        before = logits(model, x_eval, 0)
        sgd_steps(model, rng.standard_normal((16, 4)), rng.integers(0, 2, 16), 1,
                  training=False)
        assert np.array_equal(before, logits(model, x_eval, 0))

    def test_out_of_order_training_keeps_completed_task_bit_exact(self):
        # task 2 completes first; training task 0 afterwards must not move it
        rng = np.random.default_rng(50)
        model = flat_model(rng, task_count=3)
        claim_binary(model, 2, rng)
        x_eval = rng.standard_normal((8, 4))
        before = logits(model, x_eval, 2)
        sgd_steps(model, rng.standard_normal((16, 4)), rng.integers(0, 2, 16), 0)
        assert np.array_equal(before, logits(model, x_eval, 2))

    def test_a_frozen_leaf_of_a_gated_layer_is_left_unhooked(self):
        # a bias the user froze never joins a tape, so no hook goes on it
        rng = np.random.default_rng(52)
        model = flat_model(rng, task_count=2)
        bias = gated_layers(model)[0].bias
        bias.requires_grad = False
        frozen = bias.data.copy()
        claim_binary(model, 0, rng)
        x_eval = rng.standard_normal((8, 4))
        before = logits(model, x_eval, 0)
        sgd_steps(model, rng.standard_normal((16, 4)), rng.integers(0, 2, 16), 1)
        assert np.array_equal(before, logits(model, x_eval, 0))
        assert bias.grad is None and np.array_equal(bias.data, frozen)

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


class TestPlainModeProtection:
    """A taped forward without a task id protects every completed task too:
    plain-mode training moves only what no completed task claims."""

    @staticmethod
    def model(rng):
        # no task-indexed head: TaskIndexed refuses task=None
        return Sequential(HATLinear(6, 8, 2, "l1", rng), ReLU(),
                          HATLinear(8, 2, 2, "l2", rng))

    def test_train_task_without_task_keeps_task0_bit_exact(self):
        rng = np.random.default_rng(53)
        model = self.model(rng)
        x = rng.standard_normal((64, 6))
        data = (x, (x[:, 0] > 0).astype(int))
        cfg = tg.TrainerConfig(task_count=2, epochs=2, batch_size=16)
        tg.train_task(model, data, 0, cfg)
        x_eval = rng.standard_normal((8, 6))
        before = logits(model, x_eval, 0)
        tg.train_task(model, (x, 1 - data[1]), None, cfg)
        assert np.array_equal(before, logits(model, x_eval, 0))

    def test_hand_written_loop_without_task_keeps_task0_bit_exact(self):
        rng = np.random.default_rng(54)
        model = self.model(rng)
        claim_binary(model, 0, rng)
        x_eval = rng.standard_normal((8, 6))
        before = logits(model, x_eval, 0)
        weights = [layer.weight.data.copy() for layer in gated_layers(model)]
        sgd_steps(model, rng.standard_normal((16, 6)), rng.integers(0, 2, 16), None,
                  training=False)
        assert np.array_equal(before, logits(model, x_eval, 0))
        # the loop did train: weights no completed task claims moved
        assert any(not np.array_equal(w, layer.weight.data)
                   for w, layer in zip(weights, gated_layers(model)))
