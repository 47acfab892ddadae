"""Nested pipelines and conv -> flatten -> dense models, through every
consumer of the model walk: maskers, trainable parameters, gradient
protection, forgetting and checkpoints."""

import ast
import copy
import gc
import pathlib
import re

import numpy as np
import pytest

import taskgate as tg
from taskgate import (HATConv2d, HATLinear, HATMasker, Linear, ReLU, Sequential, TrainerConfig,
                      bench, init_embeddings, train_task)
from taskgate.checkpoint import load_model_state, model_state, read_entries, write_entries
from taskgate.data import continual_tasks
from taskgate.forgetting import forget_task
from taskgate.layers import InputSide, Protection, held_entries, walk

from gated_models import (BUILDERS, IMAGE, Rescale, claim_binary, conv_model,
                          gated_layers, inputs, logits, nested_model,
                          set_binary_row, sgd_steps, shared_modules)


class TestWalk:
    def test_walk_leaves_no_cyclic_garbage(self):
        model = nested_model(np.random.default_rng(99), task_count=2)
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                list(walk(model))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_model_is_walked_once_when_built(self, monkeypatch, tmp_path):
        # every consumer reads what the build worked out; none walks again
        visit, calls = tg.layers._visit, []
        monkeypatch.setattr(tg.layers, "_visit", lambda *a: (calls.append(a), visit(*a))[1])
        rng = np.random.default_rng(98)
        model = conv_model(rng, task_count=2)
        assert len(calls) == 1
        parts = walk(model)
        assert all(side is layer.weight.on_join.side
                   for _, layer, side in parts if side is not None)
        assert len([side for _, _, side in parts if side is not None]) == 2
        claim_binary(model, 0, rng)
        model.task_parameters(1)
        write_entries(tmp_path / "m.ckpt", model_state(model))
        load_model_state(model, read_entries(tmp_path / "m.ckpt"))
        forget_task(model, 0)
        assert len(calls) == 1

    def test_nested_maskers_and_parameters_included(self):
        model = nested_model(np.random.default_rng(100), task_count=2)
        l1, l2, l3 = model.steps[0], model.steps[2].steps[0], model.steps[3]
        assert gated_layers(model) == [l1, l2, l3]
        assert model.maskers() == [l1.output_masker, l2.output_masker,
                                   l3.output_masker]
        params = model.task_parameters(1)
        assert l2.weight in params and l2.bias in params
        assert l2.output_masker.embedding_rows[1] in params
        assert l2.output_masker.embedding_rows[0] not in params
        # the nested layer reads the outer masker before it, and the layer
        # after the nested pipeline reads the nested layer's masker
        assert l2.weight.on_join.side == InputSide(l1.output_masker, 1)
        assert l3.weight.on_join.side == InputSide(l2.output_masker, 1)

    def test_flattened_conv_maps_channels_over_pixels(self):
        model = conv_model(np.random.default_rng(101), task_count=2)
        conv, dense = gated_layers(model)
        pixels = IMAGE[1] * IMAGE[2]
        assert dense.weight.on_join.side == InputSide(conv.output_masker, pixels)
        assert model.maskers() == [conv.output_masker, dense.output_masker]
        np.testing.assert_array_equal(
            dense.weight.on_join.side.expand(np.array([1.0, 0.0, 0.5])),
            np.repeat([1.0, 0.0, 0.5], pixels))

    def test_width_mismatch_refused_at_build(self):
        rng = np.random.default_rng(102)
        with pytest.raises(tg.ShapeError, match="'l2'"):
            Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(),
                       HATLinear(5, 3, 2, "l2", rng))

    def test_flatten_width_not_a_channel_multiple_refused_at_build(self):
        rng = np.random.default_rng(103)
        with pytest.raises(tg.ShapeError, match="'fc'"):
            Sequential(HATConv2d(2, 3, 3, 2, "c1", rng, padding=1), ReLU(),
                       tg.Flatten(), HATLinear(47, 5, 2, "fc", rng))

    def test_dense_masker_never_repeats(self):
        # only a Flatten spreads a unit over input features; through a
        # function (here one that repeats each feature) l2's inputs count as
        # claimed, so it builds without reading l1's 3 units at all
        rng = np.random.default_rng(104)
        repeat = tg.Tensor(np.tile(np.eye(3), 2))
        model = Sequential(HATLinear(4, 3, 2, "l1", rng), ReLU(),
                           lambda x: tg.matmul(x, repeat), HATLinear(6, 2, 2, "l2", rng))
        assert gated_layers(model)[1].weight.on_join.side == InputSide()

    @pytest.mark.parametrize("case", ["no_flatten", "past_a_gated_layer", "past_a_masker"])
    def test_a_width_multiple_without_a_flatten_just_before_is_refused(self, case):
        # a unit spreads over several features only across a Flatten that
        # follows its masker with nothing but ReLU between
        rng = np.random.default_rng(106)
        conv = [HATConv2d(2, 3, 3, 2, "c1", rng, padding=1), ReLU(), tg.Flatten()]
        steps, width = {"no_flatten": ([HATLinear(4, 3, 2, "l1", rng), ReLU()], 6),
                        "past_a_gated_layer": (conv + [HATLinear(48, 3, 2, "l1", rng)], 6),
                        "past_a_masker": (conv + [HATMasker(48, 2, "gate"), ReLU()], 96)}[case]
        with pytest.raises(tg.ShapeError, match=f"'l2' reads {width} input features"):
            Sequential(*steps, HATLinear(width, 2, 2, "l2", rng))

    def test_flatten_is_channel_major(self):
        x = np.arange(2 * 3 * 2 * 2.0).reshape(2, 3, 2, 2)
        out = tg.Flatten()(tg.Tensor(x))
        assert out.data.tobytes() == x.reshape(2, 12).tobytes()

    def test_weighted_layers_after_the_last_gated_layer_allowed(self):
        # the toy model: a standalone masker, then only plain layers
        rng = np.random.default_rng(107)
        model = Sequential(HATMasker(5, 2, "gate"), Linear(5, 8, rng), ReLU(),
                           Linear(8, 2, rng))
        assert [side for _, _, side in walk(model)] == [None] * 4
        Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(), Linear(6, 2, rng))
        Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(),
                   tg.task_indexed_layer_norm(6, 2, "norm"),
                   tg.task_indexed_linear(6, 2, 2, "head", rng))

    # unrefused, l2 at two steps would train task 0 for its whole budget
    # before finalize_task refused it, and one head serving two tasks would
    # let task 1 move task 0's logits
    @pytest.mark.parametrize("case", ["gated_layer", "task_indexed", "masker", "linear",
                                      "layer_norm", "nested", "indexed_and_shared"])
    def test_a_parameter_reached_twice_is_refused_before_anything_changes(self, case):
        rng = np.random.default_rng(110)
        l1, l2 = HATLinear(4, 6, 2, "l1", rng), HATLinear(6, 6, 2, "l2", rng)
        gate, lin, head = HATMasker(6, 2, "gate"), Linear(6, 6, rng), Linear(6, 2, rng)
        norm = tg.layers.LayerNorm(6)
        inner = Sequential(HATLinear(6, 6, 2, "l3", rng), ReLU())
        steps, where = {
            "gated_layer": ([l2, ReLU(), l2, ReLU(), tg.task_indexed_linear(6, 2, 2, "head", rng)],
                            "0 and 2"),
            "task_indexed": ([l1, ReLU(), tg.TaskIndexed([head, head], "head")], "2[0] and 2[1]"),
            "masker": ([l1, gate, ReLU(), gate], "1 and 3"),
            "linear": ([l1, lin, ReLU(), lin], "1 and 3"),
            "layer_norm": ([l1, norm, norm], "1 and 2"),
            "nested": ([l1, ReLU(), inner, inner], "2.0 and 3.0"),
            "indexed_and_shared": ([l1, lin, tg.TaskIndexed([Linear(6, 6, rng), lin], "head")],
                                   "1 and 2[1]"),
        }[case]
        rules = [(leaf, leaf.on_join) for leaf in (l1.weight, l2.weight,
                                                   inner.steps[0].weight, lin.weight)]
        with pytest.raises(tg.ShapeError, match=re.escape(f"steps {where} reach")) as err:
            Sequential(*steps)
        assert "\n" not in str(err.value)
        assert all(leaf.on_join is rule for leaf, rule in rules)

    def test_a_relu_or_a_function_may_repeat(self):
        rng = np.random.default_rng(111)
        relu = ReLU()
        model = Sequential(HATLinear(4, 6, 2, "l1", rng), relu, tg.relu,
                           HATLinear(6, 6, 2, "l2", rng), relu, tg.relu)
        assert len(model.task_parameters(0)) == 6
        other = Sequential(HATLinear(4, 6, 2, "l3", rng), relu, tg.relu)
        assert len(other.task_parameters(0)) == 3

    # unrefused, the last model built rebinds a module's input side and
    # rules for every model holding it: after Sequential(l2) below, model
    # a's l2 read no masker on its input side
    @pytest.mark.parametrize("case", ["gated_layer", "output_masker", "masker", "linear",
                                      "task_indexed_submodule", "nested_twice"])
    def test_a_module_of_another_model_is_refused(self, case):
        rng = np.random.default_rng(112)
        l1, l2 = HATLinear(4, 5, 2, "l1", rng), HATLinear(5, 5, 2, "l2", rng)
        gate, lin = HATMasker(5, 2, "gate"), Linear(5, 5, rng)
        head = tg.task_indexed_linear(5, 3, 2, "head", rng)
        inner = Sequential(l1, ReLU())
        a = Sequential(inner, gate, l2, ReLU(), lin, ReLU(), head)
        steps = {"gated_layer": [l2], "output_masker": [l2.output_masker],
                 "masker": [gate], "linear": [lin],
                 "task_indexed_submodule": [head.submodules[1]],
                 "nested_twice": [inner]}[case]
        rules = [(leaf, leaf.on_join) for leaf in (l1.weight, l2.weight, lin.weight)]
        with pytest.raises(tg.UsageError, match="belongs to another model") as err:
            Sequential(*steps)
        assert "\n" not in str(err.value)
        assert all(leaf.on_join is rule for leaf, rule in rules)
        assert l2.weight.on_join.side.masker is gate and a.steps[0] is inner

    def test_a_weighted_module_with_its_own_call_keeps_completed_tasks_bit_exact(self):
        # its leaves carry their rule, so skipping Module.__call__ skips no
        # protection: every task trains its gain until task 0 completes
        class Bypass(Rescale):
            def __call__(self, x):
                return tg.mul(x, self.gain)

        rng = np.random.default_rng(114)
        model = Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(), Bypass(6),
                           tg.task_indexed_linear(6, 2, 2, "head", rng))
        cfg = TrainerConfig(task_count=2, epochs=2, batch_size=8, lr=0.1, momentum=0.5)
        x = rng.standard_normal((12, 4))
        train_task(model, (rng.standard_normal((24, 4)), rng.integers(0, 2, 24)), 0, cfg)
        before = logits(model, x, 0)
        train_task(model, (rng.standard_normal((24, 4)), rng.integers(0, 2, 24)), 1, cfg)
        assert logits(model, x, 0).tobytes() == before.tobytes()

    @pytest.mark.parametrize("case", ["two_gated", "gated_step_name", "two_maskers",
                                      "masker_named_as_output_masker", "two_heads"])
    def test_layers_writing_one_checkpoint_entry_are_refused(self, case):
        # unrefused, each trained and only model_state refused them
        rng = np.random.default_rng(115)
        l1, lin = HATLinear(4, 6, 2, "l1", rng), Linear(6, 6, rng)
        steps, where, entry = {
            "two_gated": ([l1, ReLU(), HATLinear(6, 6, 2, "l1", rng)], "0 and 2",
                          "l1/weight"),
            "gated_step_name": ([l1, ReLU(), lin, HATLinear(6, 6, 2, "step2", rng)],
                                "2 and 3", "step2/weight"),
            "two_maskers": ([HATMasker(4, 2, "gate"), l1, HATMasker(6, 2, "gate")],
                            "0 and 2", "gate/embeddings"),
            "masker_named_as_output_masker": ([l1, HATMasker(6, 2, "l1.mask")], "0 and 1",
                                              "l1.mask/embeddings"),
            "two_heads": ([l1, ReLU(), tg.task_indexed_linear(6, 6, 2, "head", rng), ReLU(),
                           tg.task_indexed_linear(6, 2, 2, "head", rng)], "2[0] and 4[0]",
                          "head/0/weight"),
        }[case]
        with pytest.raises(tg.UsageError, match=re.escape(
                f"steps {where} both write checkpoint entry '{entry}'")) as err:
            Sequential(*steps)
        assert "\n" not in str(err.value)
        assert l1.weight.on_join.side == InputSide() and tg.layers._MODEL_OF.get(l1) is None

    @pytest.mark.parametrize("build", [
        lambda rng: HATLinear(4, 3, 2, "m/stored/0", rng),
        lambda rng: HATMasker(4, 2, "a/b"),
        lambda rng: tg.task_indexed_linear(4, 2, 2, "head/0", rng),
        lambda rng: HATLinear(4, 3, 2, 5, rng),
        lambda rng: HATMasker(4, 2, None),
        lambda rng: HATConv2d(2, 3, 3, 2, b"c1", rng),
        lambda rng: tg.task_indexed_layer_norm(4, 2, ("norm",)),
    ], ids=["linear_slash", "masker_slash", "indexed_slash", "linear_int", "masker_none",
            "conv_bytes", "indexed_tuple"])
    def test_a_tag_that_names_no_entry_stem_is_refused(self, build):
        # a '/' let a checkpoint be written that load_model_state refused;
        # a non-str tag raised a raw TypeError, or went through as None
        with pytest.raises(tg.UsageError, match="layer tag must be a str without '/'") as err:
            build(np.random.default_rng(116))
        assert "\n" not in str(err.value)

    def test_a_dropped_model_frees_its_modules(self):
        rng = np.random.default_rng(113)
        l1, l2 = HATLinear(4, 5, 2, "l1", rng), HATLinear(5, 3, 2, "l2", rng)
        a = Sequential(l1, ReLU(), l2)
        del a
        assert Sequential(l2).steps == [l2] and l2.weight.on_join.side.masker is None


def weighted_between_model(middle, rng, task_count):
    """A gated layer reading the masker before it through a weighted module."""
    head = tg.task_indexed_linear(5, 2, task_count, "head", rng)
    if middle == "masker_linear":
        return Sequential(HATMasker(4, task_count, "gate"), Linear(4, 6, rng), ReLU(),
                          HATLinear(6, 5, task_count, "l1", rng), ReLU(), head)
    build = {"linear": lambda: Linear(6, 6, rng),
             "layer_norm": lambda: tg.LayerNorm(6),
             "nested_linear": lambda: Sequential(ReLU(), Linear(6, 6, rng)),
             "task_indexed_norm": lambda: tg.task_indexed_layer_norm(6, task_count, "norm")}
    return Sequential(HATLinear(4, 6, task_count, "l1", rng), ReLU(), build[middle](),
                      HATLinear(6, 5, task_count, "l2", rng), ReLU(), head)


def train_three_tasks_then_forget_one(model, features, rng):
    """Train tasks 0, 1 and 2 in turn from gaussian rows, then forget task 1:
    every other completed task's logits keep their bytes throughout."""
    init_embeddings(model.maskers(), "gaussian", rng)
    cfg = TrainerConfig(task_count=3, epochs=2, batch_size=8, lr=0.1, momentum=0.5,
                        reg_lambda=0.075)
    tests = [rng.standard_normal((12, features)) for _ in range(3)]
    seen = {}
    for task in range(3):
        train_task(model, (rng.standard_normal((24, features)), rng.integers(0, 2, 24)),
                   task, cfg)
        seen[task] = logits(model, tests[task], task)
        for t in range(task):
            assert logits(model, tests[t], t).tobytes() == seen[t].tobytes(), \
                f"task {t}'s logits moved while task {task} trained"
    forget_task(model, 1)
    for t in (0, 2):
        assert logits(model, tests[t], t).tobytes() == seen[t].tobytes()


@pytest.mark.parametrize("middle", ["linear", "layer_norm", "nested_linear",
                                    "task_indexed_norm", "masker_linear"])
def test_a_weighted_module_before_a_gated_layer_claims_its_inputs(middle):
    # shared modules train under every task, and even a task-indexed one
    # turns masked-off units into nonzero inputs, so the layer after it
    # freezes each claimed output unit's whole row, as a first layer does
    rng = np.random.default_rng(105)
    model = weighted_between_model(middle, rng, task_count=3)
    assert gated_layers(model)[-1].weight.on_join.side == InputSide()
    # a task-indexed submodule is held by its own task alone, not by any
    # completed task as a shared module is
    indexed = [(t, sub) for _, m, _ in walk(model) if isinstance(m, tg.TaskIndexed)
               for t, sub in enumerate(m.submodules)]
    assert indexed and all(leaf.on_join == Protection(maskers=tuple(model.maskers()), slot=t)
                           for t, sub in indexed for leaf in sub.local_parameters())
    train_three_tasks_then_forget_one(model, 4, rng)


REVERSE = tg.Tensor(np.eye(12)[::-1].copy())


def channel_last(x):
    return tg.reshape(tg.permute(x, (0, 2, 3, 1)), (x.shape[0], -1))


class ChannelLast(tg.Flatten):
    """Not a Flatten, whatever its base: it flattens channel-last."""

    def __call__(self, x):
        return channel_last(x)


class Reverse(ReLU):
    """Not a ReLU, whatever its base: it reverses the features."""

    def __call__(self, x):
        return tg.matmul(x, REVERSE)


def function_step_model(step, rng):
    """A gated layer reading the one before it through a function ``step``
    that moves units or maps 0 to a nonzero, and two tasks' data for it."""
    if step in ("channel_last", "flatten_subclass"):
        flatten = ChannelLast() if step == "flatten_subclass" else channel_last
        model = Sequential(HATConv2d(3, 4, 3, 2, "c1", rng, padding=1), ReLU(), flatten,
                           HATLinear(144, 16, 2, "fc", rng), ReLU(),
                           tg.task_indexed_linear(16, 2, 2, "head", rng))
        tasks = []
        for _ in range(2):
            template, y = rng.standard_normal((3, 6, 6)), rng.permutation(np.arange(96) % 2)
            x = rng.standard_normal((96, 3, 6, 6)) + (y - 0.5).reshape(-1, 1, 1, 1) * template
            tasks.append(((x[:64], y[:64]), x[64:]))
        return model, tasks
    f = {"reversal": lambda x: tg.matmul(x, REVERSE), "sigmoid": tg.sigmoid,
         "relu_subclass": Reverse()}[step]
    model = Sequential(HATLinear(16, 12, 2, "l1", rng), ReLU(), f,
                       HATLinear(12, 12, 2, "l2", rng), ReLU(),
                       tg.task_indexed_linear(12, 2, 2, "head", rng))
    return model, [(t.train, t.test[0])
                   for t in continual_tasks(2, rng, dim=16, train_n=128, test_n=32)]


@pytest.mark.parametrize("step", ["reversal", "sigmoid", "channel_last", "relu_subclass",
                                  "flatten_subclass"])
def test_a_function_step_leaves_the_next_layers_inputs_claimed(step):
    # bound to the masker before the function, task 1 moved task 0's logits
    # here by 0.014 (reversal, and the ReLU subclass), 0.0047 (sigmoid) and
    # 0.010 (channel-last flatten, as a function or a Flatten subclass)
    rng = np.random.default_rng(1)
    model, tasks = function_step_model(step, rng)
    init_embeddings(model.maskers(), "gaussian", rng)
    cfg = TrainerConfig(task_count=2, epochs=2, batch_size=32, momentum=0.5,
                        reg_lambda=0.075)
    train_task(model, tasks[0][0], 0, cfg)
    before = logits(model, tasks[0][1], 0)
    train_task(model, tasks[1][0], 1, cfg)
    assert logits(model, tasks[0][1], 0).tobytes() == before.tobytes()
    assert gated_layers(model)[1].weight.on_join.side == InputSide()


class Residual(tg.layers.PayloadModule):
    """``p.data + body(p).data``: a skip connection around a hidden layer."""

    def __init__(self, body):
        self.body = body

    def forward(self, p):
        return p.with_data(tg.add(p.data, self.body(p).data))


class Holder(tg.layers.Module):
    """A module of the user's own holding ``parts``."""

    def __init__(self, parts):
        self.parts = parts

    def forward(self, x):
        return x


class TestHiddenLayers:
    @pytest.mark.parametrize("step, where", [
        (lambda rng: Residual(HATLinear(6, 6, 2, "inner", rng)),
         "Residual holds a HATLinear at 'body'"),
        (lambda rng: Holder([ReLU(), Linear(6, 6, rng)]), "Holder holds a Linear at 'parts[1]'"),
        (lambda rng: Holder((Sequential(ReLU()),)), "Holder holds a Sequential at 'parts[0]'"),
        (lambda rng: Holder({"a": Rescale(6)}), "Holder holds a Rescale at 'parts['a']'"),
        (lambda rng: Holder(tg.Tensor(np.ones(6), requires_grad=True)),
         "Holder holds a Tensor at 'parts'"),
        (lambda rng: Holder([tg.Tensor(np.ones(6), requires_grad=True)]),
         "Holder holds a Tensor at 'parts[0]'"),
    ], ids=["residual", "list", "tuple", "dict", "tensor", "listed_tensor"])
    def test_a_step_hiding_a_module_or_a_trainable_tensor_is_refused(self, step, where):
        # built, the residual's inner layer never trained, its masker never
        # finalized and the checkpoint had no entry for it
        rng = np.random.default_rng(112)
        with pytest.raises(tg.UsageError, match=re.escape(f"step 2's {where}")) as err:
            Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(), step(rng),
                       tg.task_indexed_linear(6, 2, 2, "head", rng))
        assert "\n" not in str(err.value)

    def test_named_leaves_constants_and_plain_values_build(self):
        rng = np.random.default_rng(113)
        rescale = Rescale(6)
        rescale.also = [rescale.gain, tg.Tensor(np.ones(6))]
        model = Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(), rescale,
                           Holder({"scale": tg.Tensor(np.ones(6)), "n": [3, np.ones(2)]}),
                           tg.task_indexed_linear(6, 2, 2, "head", rng))
        assert rescale.gain in model.task_parameters(0)


SHARED_SHAPES = {  # (builder, input features)
    "linear_first": (BUILDERS["linear_first"], 4),
    "shared_head": (BUILDERS["shared_head"], 4),
    "user_module": (BUILDERS["user_module"], 4),
    "toy": (lambda rng, task_count: bench.build_toy_model(
        rng, bench.ExperimentConfig(experiment="toy-init", tasks=task_count)), 5),
}


@pytest.mark.parametrize("shape", sorted(SHARED_SHAPES))
def test_shared_modules_keep_completed_tasks_bit_exact(shape):
    # a shared module before the first gated layer, after the last one, or
    # after a standalone masker: every task trains it until one completes
    rng = np.random.default_rng(108)
    build, features = SHARED_SHAPES[shape]
    model = build(rng, 3)
    shared = shared_modules(model)
    assert shared and all(leaf.on_join == Protection(maskers=tuple(model.maskers()))
                          for m in shared for leaf in m.local_parameters())
    train_three_tasks_then_forget_one(model, features, rng)


def test_a_shared_module_is_held_once_any_masker_of_its_model_completes_a_task():
    # the rule reads every masker of the model, not the first one alone
    rng = np.random.default_rng(109)
    lin = Linear(6, 6, rng)
    model = Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(), lin, HATLinear(6, 3, 2, "l2", rng))
    assert held_entries(lin) == []
    set_binary_row(model.maskers()[-1], 0, [1])
    model.maskers()[-1].finalize_task(0)
    held = held_entries(lin)
    assert [leaf for leaf, _ in held] == lin.local_parameters()
    assert all(selection.all() for _, selection in held)


def test_a_module_of_the_users_own_keeps_completed_tasks_bit_exact():
    # every task trains the gain between l1 and the head; unprotected, task
    # 1's training moved task 0's logits
    rng = np.random.default_rng(0)
    model = Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(), Rescale(6),
                       tg.task_indexed_linear(6, 2, 2, "head", rng))
    tasks = continual_tasks(2, rng, dim=4)
    cfg = TrainerConfig(task_count=2, epochs=3, batch_size=32, momentum=0.5,
                        reg_lambda=0.075)
    x = tasks[0].test[0]
    train_task(model, tasks[0].train, 0, cfg)
    before = logits(model, x, 0)
    train_task(model, tasks[1].train, 1, cfg)
    assert logits(model, x, 0).tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", ["nested", "conv", "user_module"])  # flat: test_layers
def test_completed_task_bit_exact_while_next_trains(kind):
    rng = np.random.default_rng(110)
    model = BUILDERS[kind](rng, task_count=2)
    claim_binary(model, 0, rng)
    x_eval = inputs(kind, 6, rng)
    before = logits(model, x_eval, 0)
    sgd_steps(model, inputs(kind, 12, rng), rng.integers(0, 2, 12), 1)
    assert np.array_equal(before, logits(model, x_eval, 0))


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_steps_on_a_completed_tasks_own_id_keep_it_bit_exact(kind):
    # its task-indexed slot is held as the trunk is; unheld, three steps
    # moved task 0's logits by up to 0.08
    rng = np.random.default_rng(1)
    model = BUILDERS[kind](rng, 3)
    x, y = inputs(kind, 32, rng), rng.integers(0, 2, 32)
    train_task(model, (x, y), 0, TrainerConfig(task_count=3, epochs=1, batch_size=8))
    before = logits(model, x, 0)
    sgd_steps(model, x, y, 0, steps=3)
    assert logits(model, x, 0).tobytes() == before.tobytes()


def all_parameters(model, task_count):
    return list(dict.fromkeys(p for t in range(task_count) for p in model.task_parameters(t)))


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_a_penalty_on_a_tape_of_its_own_keeps_completed_tasks_bit_exact(kind):
    # a weight-decay step reaches every parameter with no forward on its
    # tape; hooked by a module's forward alone, it moved task 0's logits
    rng = np.random.default_rng(3)
    model = BUILDERS[kind](rng, 3)
    x, y = inputs(kind, 32, rng), rng.integers(0, 2, 32)
    train_task(model, (x, y), 0, TrainerConfig(task_count=3, epochs=1, batch_size=8))
    before = logits(model, x, 0)
    frozen = [(leaf, sel, leaf.data.copy()) for _, m, _ in walk(model)
              if isinstance(m, tg.layers.Module) for leaf, sel in held_entries(m)]
    params = all_parameters(model, 3)
    with tg.Tape() as tape:
        terms = [tg.reduce_sum(tg.mul(p, p)) for p in params]
        penalty = terms[0]
        for term in terms[1:]:
            penalty = tg.add(penalty, term)
    tape.backward(penalty)
    tg.SGD(params, lr=0.1).step()
    assert frozen and all(np.array_equal(leaf.data[sel], b[sel]) for leaf, sel, b in frozen)
    assert logits(model, x, 0).tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_a_deep_copy_of_a_trained_model_keeps_its_completed_tasks_bit_exact(kind):
    # the copy's rules name the copy's maskers; a rule naming its module
    # through a weak reference read the original's records instead
    rng = np.random.default_rng(4)
    data = [(inputs(kind, 24, rng), rng.integers(0, 2, 24)) for _ in range(3)]
    cfg = TrainerConfig(task_count=3, epochs=2, batch_size=8, lr=0.1, momentum=0.5)
    model = BUILDERS[kind](rng, 3)
    init_embeddings(model.maskers(), "gaussian", rng)  # tasks claim units of their own
    train_task(model, data[0], 0, cfg)
    twin = copy.deepcopy(model)
    seen = {}
    for task in (1, 2):
        seen[task - 1] = logits(twin, data[task - 1][0], task - 1)
        train_task(twin, data[task], task, cfg)
        for t, before in seen.items():
            assert logits(twin, data[t][0], t).tobytes() == before.tobytes()
    assert model.maskers()[0].completed_tasks() == [0]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_a_dropped_trained_model_leaves_no_cyclic_garbage(kind):
    # a rule holding its module would tie each leaf to it in a cycle
    rng = np.random.default_rng(5)
    model = BUILDERS[kind](rng, 2)
    train_task(model, (inputs(kind, 16, rng), rng.integers(0, 2, 16)), 0,
               TrainerConfig(task_count=2, epochs=1, batch_size=8))
    gc.collect()
    gc.disable()
    try:
        del model
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_task_slot_is_held_from_completion_until_forgotten():
    rng = np.random.default_rng(2)
    model = BUILDERS["flat"](rng, 3)
    slots = model.steps[-1].submodules
    claim_binary(model, 0, rng)
    held = [held_entries(sub) for sub in slots]
    assert [len(h) for h in held] == [2, 0, 0]
    assert all(selection.all() for _, selection in held[0])
    forget_task(model, 0)
    assert not any(held_entries(sub) for sub in slots)
    sgd_steps(model, inputs("flat", 16, rng), rng.integers(0, 2, 16), 0, steps=1)
    assert slots[0].weight.data.any()  # the zeroed slot trains again


class TestForget:
    def test_flattened_conv_selection_expanded_over_pixels(self):
        rng = np.random.default_rng(120)
        model = conv_model(rng, task_count=2)
        conv, dense = gated_layers(model)
        set_binary_row(conv.output_masker, 0, [0])
        set_binary_row(conv.output_masker, 1, [1, 2])
        set_binary_row(dense.output_masker, 0, [0, 1])
        set_binary_row(dense.output_masker, 1, [2, 3])
        for m in model.maskers():
            m.finalize_task(0)
            m.finalize_task(1)
        before = dense.weight.data.copy()
        report = forget_task(model, 0)

        pixels = IMAGE[1] * IMAGE[2]
        erased = np.zeros(before.shape, dtype=bool)
        erased[[0, 1], :pixels] = True  # exclusive units x channel 0's pixels
        assert not dense.weight.data[erased].any()
        np.testing.assert_array_equal(dense.weight.data[~erased], before[~erased])
        assert report.weight_counts["fc"] == 2 * pixels

    @pytest.mark.parametrize("kind", ["nested", "conv", "user_module"])  # flat: test_forgetting
    def test_other_task_bit_exact(self, kind):
        rng = np.random.default_rng(121)
        model = BUILDERS[kind](rng, task_count=2)
        claim_binary(model, 0, rng)
        claim_binary(model, 1, rng)
        x_eval = inputs(kind, 6, rng)
        before = logits(model, x_eval, 1)
        forget_task(model, 0)
        assert np.array_equal(before, logits(model, x_eval, 1))


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["nested", "conv", "user_module"])
    def test_round_trip_bit_exact(self, kind, tmp_path):
        rng = np.random.default_rng(130)
        model = BUILDERS[kind](rng, task_count=3)
        for m in model.maskers():
            for row in m.embedding_rows:
                row.data[...] = rng.standard_normal(m.n_features)
            m.finalize_task(0)
            m.finalize_task(1)
        x = inputs(kind, 5, rng)
        before = [logits(model, x, t) for t in range(3)]
        path = tmp_path / "model.ckpt"
        write_entries(path, model_state(model))

        fresh = BUILDERS[kind](np.random.default_rng(4321), task_count=3)
        load_model_state(fresh, read_entries(path))
        for m in fresh.maskers():
            assert sorted(m.stored_task_masks) == [0, 1]
        for t in range(3):
            assert np.array_equal(before[t], logits(fresh, x, t))

    def test_nested_entries_and_top_level_step_names(self):
        rng = np.random.default_rng(131)
        model = Sequential(
            HATMasker(5, 2, "gate"),
            Linear(5, 8, rng),
            Sequential(ReLU(), Linear(8, 8, rng)),
            ReLU(),
            Linear(8, 2, rng),
        )
        assert sorted(model_state(model)) == [
            "gate/embeddings",
            "step1/bias", "step1/weight",
            "step2.1/bias", "step2.1/weight",
            "step4/bias", "step4/weight",
        ]

    def test_nested_gated_entries(self):
        model = nested_model(np.random.default_rng(132), task_count=2)
        entries = model_state(model)
        assert "l2/weight" in entries and "l2.mask/embeddings" in entries


RECORDS = {"cumulative_mask", "_cumulative", "stored_task_masks"}
MUTATORS = {"pop", "popitem", "clear", "update", "setdefault"}


def _written(target):
    """The attributes an assignment target writes into: ``m.records[t] = v``
    and ``m.records, n = v`` both write ``m.records``."""
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    if isinstance(target, (ast.Tuple, ast.List)):
        return [a for elt in target.elts for a in _written(elt)]
    return [target] if isinstance(target, ast.Attribute) else []


def _mutating_call(call):
    """``m.records.pop(t)`` and the like, or ``setattr(m, "records", v)``."""
    f, args = call.func, call.args
    if isinstance(f, ast.Attribute):
        return (f.attr in MUTATORS and isinstance(f.value, ast.Attribute)
                and f.value.attr in RECORDS)
    return (isinstance(f, ast.Name) and f.id == "setattr" and len(args) > 1
            and isinstance(args[1], ast.Constant) and args[1].value in RECORDS)


def record_writes(tree):
    """Every node that assigns, deletes or mutates a masker's task records."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if _mutating_call(node):
                yield node
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(a.attr in RECORDS for t in targets for a in _written(t)):
            yield node


class TestOwnership:
    def test_only_the_masker_writes_its_task_records(self):
        # the stored binary masks are the one record of what completed tasks
        # own; the cumulative mask is derived from them inside HATMasker
        inside, outside = 0, []
        for path in sorted(pathlib.Path(tg.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            owner = {id(n) for c in ast.walk(tree)
                     if isinstance(c, ast.ClassDef) and c.name == "HATMasker"
                     for n in ast.walk(c)}
            for node in record_writes(tree):
                if id(node) in owner:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        assert outside == []
        assert inside > 0  # the search does see the masker's own writes
        assert HATMasker.cumulative_mask.fset is None

    @pytest.mark.parametrize("source", [
        "m.cumulative_mask = x", "m.stored_task_masks = {}",
        "m.stored_task_masks[0] = x", "del m.stored_task_masks[0]",
        "m.cumulative_mask[:] = 1.0", "m.cumulative_mask += 1.0",
        "a, m.stored_task_masks = x", "m.stored_task_masks.pop(0)",
        "m.stored_task_masks.update(x)", "setattr(m, 'cumulative_mask', x)",
    ])
    def test_the_search_sees_every_kind_of_write(self, source):
        assert len(list(record_writes(ast.parse(source)))) == 1

    @pytest.mark.parametrize("source", [
        "x = m.cumulative_mask", "m.stored_task_masks.get(0)",
        "x[m.cumulative_mask > 0] = 1.0", "m.embedding_rows[0] = x",
    ])
    def test_the_search_ignores_reads(self, source):
        assert list(record_writes(ast.parse(source))) == []


def recorded_ops(tree):
    """Every op name passed as a string literal to ``_record``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            f, op = node.func, node.args[0]
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "_record" and isinstance(op, ast.Constant):
                yield op.value


def listed_fused_nodes(docstring):
    """``{op: module}`` from the fused-node bullets of tensor.py's
    docstring, ``* ``op`` (``module``)`` or ``* ``op`` (here)``."""
    listed = {}
    for line in docstring.splitlines():
        if line.startswith("* ``"):
            op, rest = line[4:].split("``", 1)
            where = rest.strip().split(")", 1)[0].lstrip("(").strip("`")
            listed[op] = "tensor" if where == "here" else where
    return listed


class TestFusedNodes:
    def test_the_docstring_lists_every_fused_node_recorded(self):
        # the generic ops all live in tensor.py, so a node recorded in any
        # other module is a fused one; the list must name each of them, and
        # each kind it names must still be recorded where it says
        recorded = set()
        for path in sorted(pathlib.Path(tg.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            recorded |= {(path.stem, op) for op in recorded_ops(tree)}
        listed = set(listed_fused_nodes(tg.tensor.__doc__).items())
        outside = {(module, op) for module, op in recorded if module != "tensor"}
        assert outside and listed  # the searches see something
        assert outside <= {(module, op) for op, module in listed}
        assert {(module, op) for op, module in listed} <= recorded
