import numpy as np
import pytest

import taskgate as tg
from taskgate import (
    HATLinear,
    HATMasker,
    HATPayload,
    ReLU,
    Sequential,
    Tape,
    Tensor,
)
from taskgate.checkpoint import model_state
from taskgate.forgetting import ForgetReport, attribution, forget_task

from gated_models import gated_layers, set_binary_row


def finalize(model, *tasks):
    for t in tasks:
        for m in model.maskers():
            m.finalize_task(t)


def gated_mlp(rng, task_count=3, dims=(4, 6, 5)):
    return Sequential(
        HATLinear(dims[0], dims[1], task_count, "l1", rng),
        ReLU(),
        HATLinear(dims[1], dims[2], task_count, "l2", rng),
    )


def randomize_biases(model, rng):
    # fresh biases start at zero; zeroed-entry counts need them nonzero
    for layer in gated_layers(model):
        layer.bias.data[...] = rng.standard_normal(layer.bias.shape)


class TestAttribution:
    def test_single_task_everything_exclusive(self):
        m = HATMasker(3, 2, "m")
        set_binary_row(m, 0, [0, 2])
        m.finalize_task(0)
        np.testing.assert_array_equal(attribution(m, 0),
                                      [True, False, True])

    def test_shared_units_excluded(self):
        m = HATMasker(3, 2, "m")
        set_binary_row(m, 0, [0, 1])
        set_binary_row(m, 1, [1])
        m.finalize_task(0)
        m.finalize_task(1)
        np.testing.assert_array_equal(attribution(m, 0), [True, False, False])
        np.testing.assert_array_equal(attribution(m, 1), [False, False, False])

    def test_unfinalized_task_rejected(self):
        m = HATMasker(3, 2, "m")
        with pytest.raises(tg.StateError):
            attribution(m, 0)


class TestForgetTask:
    def test_only_task_zeroes_everything(self):
        rng = np.random.default_rng(70)
        model = gated_mlp(rng, task_count=1)
        randomize_biases(model, rng)
        for m in model.maskers():
            set_binary_row(m, 0, range(m.n_features))
        finalize(model, 0)
        report = forget_task(model, 0)
        expected = 4 * 6 + 6 + 6 * 5 + 5
        assert report.total == expected
        for layer in gated_layers(model):
            assert not layer.weight.data.any()
            assert not layer.bias.data.any()

    def test_no_exclusive_units_changes_nothing(self):
        rng = np.random.default_rng(71)
        model = gated_mlp(rng, task_count=2)
        for m in model.maskers():
            on = range(0, m.n_features, 2)
            set_binary_row(m, 0, on)
            set_binary_row(m, 1, on)  # identical usage: nothing exclusive
        finalize(model, 0, 1)

        x = np.random.default_rng(1).standard_normal((7, 4))
        before = model.forward(HATPayload(Tensor(x), task=1)).masked_data().data

        report = forget_task(model, 0)
        assert report.total == 0
        after = model.forward(HATPayload(Tensor(x), task=1)).masked_data().data
        assert np.array_equal(before, after)

    def test_weight_rule_requires_both_endpoints(self):
        rng = np.random.default_rng(72)
        model = gated_mlp(rng, task_count=2)
        randomize_biases(model, rng)
        m1, m2 = model.maskers()
        # layer-1 outputs: units 0,1 exclusive to task 0; unit 2 shared
        set_binary_row(m1, 0, [0, 1, 2])
        set_binary_row(m1, 1, [2, 3])
        # layer-2 outputs: unit 0 exclusive to task 0
        set_binary_row(m2, 0, [0, 4])
        set_binary_row(m2, 1, [4])
        finalize(model, 0, 1)

        l1, l2 = gated_layers(model)
        w1_before = l1.weight.data.copy()
        w2_before = l2.weight.data.copy()
        report = forget_task(model, 0)

        # first layer: full rows for exclusive outputs 0,1
        assert not l1.weight.data[0].any() and not l1.weight.data[1].any()
        np.testing.assert_array_equal(l1.weight.data[2:], w1_before[2:])
        assert not l1.bias.data[[0, 1]].any()

        # second layer: only (out 0, in 0) and (out 0, in 1) — in unit 2 is
        # shared, so its weight into out 0 survives
        assert l2.weight.data[0, 0] == 0.0 and l2.weight.data[0, 1] == 0.0
        assert l2.weight.data[0, 2] == w2_before[0, 2]
        np.testing.assert_array_equal(l2.weight.data[1:], w2_before[1:])

        assert report.weight_counts["l1"] == 8 and report.bias_counts["l1"] == 2
        assert report.weight_counts["l2"] == 2 and report.bias_counts["l2"] == 1
        assert report.total == 13

    def test_report_counts_only_changed_entries(self):
        rng = np.random.default_rng(73)
        model = gated_mlp(rng, task_count=1)
        randomize_biases(model, rng)
        for m in model.maskers():
            set_binary_row(m, 0, range(m.n_features))
        finalize(model, 0)
        l1 = gated_layers(model)[0]
        l1.weight.data[0, :] = 0.0  # already zero: must not be counted
        report = forget_task(model, 0)
        assert report.total == (4 * 6 - 4) + 6 + 6 * 5 + 5

    def test_non_interference_is_bit_exact_for_binary_masks(self):
        rng = np.random.default_rng(74)
        model = gated_mlp(rng, task_count=3)
        m1, m2 = model.maskers()
        set_binary_row(m1, 0, [0, 1])
        set_binary_row(m1, 1, [2, 3])
        set_binary_row(m1, 2, [1, 4])
        set_binary_row(m2, 0, [0])
        set_binary_row(m2, 1, [1, 2])
        set_binary_row(m2, 2, [3])
        finalize(model, 0, 1, 2)

        x = np.random.default_rng(2).standard_normal((9, 4))
        before = {
            t: model.forward(HATPayload(Tensor(x), task=t)).masked_data().data
            for t in (1, 2)
        }
        report = forget_task(model, 0)
        assert report.total > 0
        for t in (1, 2):
            after = model.forward(HATPayload(Tensor(x), task=t)).masked_data().data
            assert np.array_equal(before[t], after)

    def test_embedding_rows_reset_and_slot_reusable(self):
        rng = np.random.default_rng(75)
        model = gated_mlp(rng, task_count=2)
        for m in model.maskers():
            set_binary_row(m, 0, [0])
            set_binary_row(m, 1, [1])
        finalize(model, 0, 1)
        forget_task(model, 0)
        for m in model.maskers():
            np.testing.assert_array_equal(m.embedding_rows[0].data,
                                          np.ones(m.n_features))
            assert 0 not in m.stored_task_masks
            np.testing.assert_allclose(m.cumulative_mask, m.mask_values(1),
                                       atol=0)
        # slot is trainable again
        for m in model.maskers():
            m.finalize_task(0)

    def test_gaussian_reset(self):
        rng = np.random.default_rng(76)
        model = gated_mlp(rng, task_count=1)
        for m in model.maskers():
            set_binary_row(m, 0, [0])
        finalize(model, 0)
        forget_task(model, 0, embedding_init="gaussian",
                    rng=np.random.default_rng(3))
        row = model.maskers()[0].embedding_rows[0].data
        assert not np.array_equal(row, np.ones_like(row))

    def test_gaussian_reset_requires_rng(self):
        rng = np.random.default_rng(77)
        model = gated_mlp(rng, task_count=1)
        for m in model.maskers():
            set_binary_row(m, 0, [0])
        finalize(model, 0)
        with pytest.raises(tg.UsageError):
            forget_task(model, 0, embedding_init="gaussian")

    def test_double_forget_rejected(self):
        rng = np.random.default_rng(78)
        model = gated_mlp(rng, task_count=2)
        for m in model.maskers():
            set_binary_row(m, 0, [0])
            set_binary_row(m, 1, [1])
        finalize(model, 0, 1)
        forget_task(model, 0)
        with pytest.raises(tg.StateError):
            forget_task(model, 0)

    def test_unfinalized_forget_rejected(self):
        rng = np.random.default_rng(79)
        model = gated_mlp(rng, task_count=2)
        for m in model.maskers():
            set_binary_row(m, 0, [0])
        finalize(model, 0)
        with pytest.raises(tg.StateError):
            forget_task(model, 1)

    @pytest.mark.parametrize("task, kwargs, error", [
        (1, {}, tg.StateError),
        (0, {"embedding_init": "zeros"}, tg.UsageError),
        (0, {"embedding_init": "gaussian"}, tg.UsageError),
        (2, {}, tg.UsageError),
    ], ids=["unfinalized", "unknown-init", "gaussian-without-rng", "beyond-head"])
    def test_refused_forget_leaves_model_state_bit_identical(self, task, kwargs,
                                                             error):
        rng = np.random.default_rng(84)
        model = Sequential(
            HATLinear(4, 6, 3, "l1", rng),
            ReLU(),
            tg.task_indexed_layer_norm(6, 2, "norm"),
            tg.task_indexed_linear(6, 2, 2, "head", rng),  # no slot for task 2
        )
        randomize_biases(model, rng)
        model.steps[2].submodules[0].shift.data[...] = rng.standard_normal(6)
        m1 = model.maskers()[0]
        set_binary_row(m1, 0, [0, 1])
        set_binary_row(m1, 2, [2])
        finalize(model, 0, 2)
        before = model_state(model)
        with pytest.raises(error):
            forget_task(model, task, **kwargs)
        after = model_state(model)
        assert list(after) == list(before)
        for name, value in before.items():
            assert after[name].dtype == value.dtype, name
            assert after[name].tobytes() == value.tobytes(), name

    def test_model_without_masker_refused(self):
        # no masker, no record of which tasks are complete
        rng = np.random.default_rng(85)
        model = Sequential(tg.task_indexed_linear(4, 2, 3, "head", rng))
        before = model_state(model)
        with pytest.raises(tg.StateError) as info:
            forget_task(model, 1)
        assert "\n" not in str(info.value)
        after = model_state(model)
        assert list(after) == list(before)
        for name, value in before.items():
            assert after[name].tobytes() == value.tobytes(), name

    def test_task_indexed_head_zeroed_other_tasks_untouched(self):
        rng = np.random.default_rng(80)
        model = Sequential(
            HATLinear(4, 6, 2, "l1", rng),
            ReLU(),
            tg.task_indexed_linear(6, 2, 2, "head", rng),
        )
        m1 = model.maskers()[0]
        set_binary_row(m1, 0, [0, 1])
        set_binary_row(m1, 1, [2])
        finalize(model, 0, 1)
        head = model.steps[2]
        head.submodules[0].weight.data[...] = 42.0
        head.submodules[0].bias.data[...] = [1.0, 0.0]
        other_head = head.submodules[1].weight.data.copy()
        report = forget_task(model, 0)
        assert not head.submodules[0].weight.data.any()
        assert not head.submodules[0].bias.data.any()
        np.testing.assert_array_equal(head.submodules[1].weight.data, other_head)
        assert report.weight_counts["head"] == 12
        assert report.bias_counts["head"] == 1  # the already-zero entry is not counted

    def test_task_indexed_norm_reset_fresh(self):
        rng = np.random.default_rng(82)
        model = Sequential(
            HATLinear(4, 6, 2, "l1", rng),
            ReLU(),
            tg.task_indexed_layer_norm(6, 2, "norm"),
        )
        m1 = model.maskers()[0]
        set_binary_row(m1, 0, [0])
        set_binary_row(m1, 1, [1])
        finalize(model, 0, 1)
        norm = model.steps[2]
        norm.submodules[0].gain.data[...] = 3.0
        norm.submodules[0].shift.data[...] = [1.0, -1.0, 0.0, 2.0, 0.0, 0.5]
        report = forget_task(model, 0)
        np.testing.assert_array_equal(norm.submodules[0].gain.data, np.ones(6))
        np.testing.assert_array_equal(norm.submodules[0].shift.data, np.zeros(6))
        assert report.bias_counts["norm"] == 4  # entries that moved onto zero

    @pytest.mark.parametrize("slot", ["linear", "layer_norm"])
    def test_forget_clears_the_slots_gradients(self, slot):
        # else the next optimizer step would move the emptied slot by them
        rng = np.random.default_rng(83)
        indexed = (tg.task_indexed_linear(6, 2, 2, "head", rng) if slot == "linear"
                   else tg.task_indexed_layer_norm(6, 2, "norm"))
        model = Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(), indexed)
        with Tape() as tape:
            out = model.forward(HATPayload(Tensor(rng.standard_normal((4, 4))), task=0,
                                           scale=30.0)).masked_data()
            loss = tg.reduce_sum(tg.mul(out, out))
        tape.backward(loss)
        leaves = indexed.submodules[0].local_parameters()
        assert all(leaf.grad is not None for leaf in leaves)
        set_binary_row(model.maskers()[0], 0, [0, 1])
        finalize(model, 0)
        forget_task(model, 0)
        assert all(leaf.grad is None for leaf in leaves)

    def test_report_lines_format(self):
        report = ForgetReport()
        report.add_layer("l1", 8, 2)
        report.add_layer("l2", 0, 0)
        assert report.lines() == ["l1 weights=8 biases=2",
                                  "l2 weights=0 biases=0",
                                  "total 10"]


class TestForgetConv:
    def test_conv_taps_zeroed_per_channel_pair(self):
        rng = np.random.default_rng(81)
        model = Sequential(
            tg.HATConv2d(2, 3, 2, 2, "c1", rng),
            ReLU(),
        )
        randomize_biases(model, rng)
        m = model.maskers()[0]
        set_binary_row(m, 0, [0])
        set_binary_row(m, 1, [1, 2])
        finalize(model, 0, 1)
        conv = gated_layers(model)[0]
        before = conv.weight.data.copy()
        report = forget_task(model, 0)
        # first layer: whole out-channel 0 across in-channels and taps
        assert not conv.weight.data[0].any()
        np.testing.assert_array_equal(conv.weight.data[1:], before[1:])
        assert report.weight_counts["c1"] == 2 * 2 * 2
        assert report.bias_counts["c1"] == 1
