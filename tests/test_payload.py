import numpy as np
import pytest

import taskgate as tg
from taskgate import HATMasker, HATPayload, Tape, Tensor


@pytest.fixture
def masker():
    return HATMasker(4, task_count=3, layer_tag="m0", s_max=400.0)


def set_row(masker, task, values):
    masker.embedding_rows[task].data[...] = values


class TestPlainMode:
    def test_absent_task_is_identity(self, masker):
        data = Tensor([[1.0, -2.0, 3.0, 0.5]])
        p = masker(HATPayload(data))
        out = p.masked_data()
        assert out is data  # not even a copy

    def test_no_pending_returns_same_tensor(self):
        data = Tensor([1.0, 2.0])
        p = HATPayload(data, task=1, scale=10.0)
        assert p.masked_data() is data

    def test_negative_task_rejected(self):
        with pytest.raises(tg.UsageError):
            HATPayload(Tensor([1.0]), task=-1)


def _finalized_model():
    model = tg.Sequential(tg.HATLinear(3, 4, 2, "l1", np.random.default_rng(5)),
                          tg.ReLU(),
                          tg.task_indexed_linear(4, 2, 2, "head", np.random.default_rng(6)))
    for m in model.maskers():
        m.finalize_task(1)
    return model


class TestTaskIds:
    USES = {
        "payload": lambda model, t: HATPayload(Tensor(np.ones((1, 3))), task=t, scale=1.0),
        "mask_values": lambda model, t: model.maskers()[0].mask_values(t),
        "clamp_embeddings": lambda model, t: model.maskers()[0].clamp_embeddings(t),
        "submodule": lambda model, t: model.steps[2].submodule(t),
        "forget_task": lambda model, t: tg.forget_task(model, t),
        "task_parameters": lambda model, t: model.task_parameters(t),
    }

    @pytest.mark.parametrize("task", [1.5, 1.0, True, np.float64(1.0), "1"], ids=repr)
    @pytest.mark.parametrize("use", list(USES))
    def test_a_task_id_that_is_not_an_int_is_refused(self, use, task):
        model = _finalized_model()
        before = [p.data.copy() for p in model.task_parameters(1)]
        with pytest.raises(tg.UsageError, match="task id") as err:
            self.USES[use](model, task)
        assert "\n" not in str(err.value)
        for p, data in zip(model.task_parameters(1), before):
            np.testing.assert_array_equal(p.data, data)


class TestMasking:
    def test_zero_embedding_halves_data(self, masker):
        set_row(masker, 0, 0.0)
        data = Tensor(np.arange(8.0).reshape(2, 4))
        p = masker(HATPayload(data, task=0, scale=37.0))
        np.testing.assert_array_equal(p.masked_data().data, data.data * 0.5)

    def test_saturated_mask_is_identity_within_tolerance(self, masker):
        set_row(masker, 0, 1.0)
        data = Tensor(np.arange(8.0).reshape(2, 4) - 3.0)
        p = masker(HATPayload(data, task=0, scale=400.0))
        np.testing.assert_allclose(p.masked_data().data, data.data, atol=1e-9)

    def test_absent_scale_uses_masker_default(self, masker):
        set_row(masker, 1, np.array([1.0, -1.0, 1.0, -1.0]))
        p = masker(HATPayload(Tensor(np.ones((1, 4))), task=1))  # scale -> s_max
        np.testing.assert_allclose(p.masked_data().data, [[1.0, 0.0, 1.0, 0.0]],
                                   atol=1e-12)

    def test_rank1_data_masks_elementwise(self, masker):
        set_row(masker, 0, 0.0)
        p = masker(HATPayload(Tensor([2.0, 4.0, 6.0, 8.0]), task=0, scale=5.0))
        np.testing.assert_array_equal(p.masked_data().data, [1.0, 2.0, 3.0, 4.0])

    def test_feature_mismatch(self, masker):
        with pytest.raises(tg.ShapeError):
            masker(HATPayload(Tensor(np.ones((2, 5))), task=0, scale=1.0))

    def test_task_out_of_range(self, masker):
        with pytest.raises(tg.UsageError):
            masker(HATPayload(Tensor(np.ones((2, 4))), task=7, scale=1.0))

    def test_materialization_is_memoized(self, masker):
        set_row(masker, 0, 0.0)
        p = masker(HATPayload(Tensor(np.ones((1, 4))), task=0, scale=1.0))
        first = p.masked_data()
        second = p.masked_data()
        assert first is second

    def test_mask_applies_inside_tape(self, masker):
        # the mask is a tape op, so the gradient reaches the embedding
        set_row(masker, 1, 0.0)
        with Tape() as tape:
            p = masker(HATPayload(Tensor(np.ones((2, 4))), task=1, scale=1.0,
                                  training=False))
            loss = tg.reduce_sum(p.masked_data())
        tape.backward(loss)
        grad = masker.embedding_rows[1].grad
        assert grad is not None
        np.testing.assert_allclose(grad, 2 * 0.25 * np.ones(4))  # 2 rows, sigma'(0)


class TestForwardBy:
    """A plain function in a ``Sequential`` takes the payload's data."""

    def test_identity_equals_materialization(self, masker):
        set_row(masker, 0, np.array([0.0, 1.0, -1.0, 0.5]))
        data = np.arange(8.0).reshape(2, 4)
        via_forward = tg.Sequential(masker, lambda t: t)(
            HATPayload(Tensor(data.copy()), task=0, scale=3.0))
        materialized = masker(HATPayload(Tensor(data.copy()), task=0, scale=3.0)).masked_data()
        np.testing.assert_array_equal(via_forward.data.data, materialized.data)

    def test_relu_through_plain_function(self):
        out = tg.Sequential(tg.relu)(HATPayload(Tensor([[-1.0, 2.0]])))
        np.testing.assert_array_equal(out.data.data, [[0.0, 2.0]])

    def test_double_after_half_mask_restores_data(self, masker):
        set_row(masker, 0, 0.0)
        data = np.array([[1.0, -2.0, 3.0, -4.0]])
        out = tg.Sequential(masker, lambda t: tg.scale(t, 2.0))(
            HATPayload(Tensor(data), task=0, scale=9.0))
        np.testing.assert_array_equal(out.data.data, data)

    def test_metadata_inherited(self, masker):
        seen = []
        out = tg.Sequential(masker, lambda t: (seen.append(t), t)[1])(
            HATPayload(Tensor(np.ones((1, 4))), task=2, scale=7.0, training=True))
        assert (out.task, out.scale, out.training) == (2, 7.0, True)
        assert seen == [out.data]  # the function's result is the payload's data
