"""Nested pipelines and conv -> flatten -> dense models, through every
consumer of the model walk: maskers, trainable parameters, gradient
protection, forgetting and checkpoints."""

import ast
import gc
import pathlib

import numpy as np
import pytest

import taskgate as tg
from taskgate import HATConv2d, HATLinear, HATMasker, Linear, ReLU, Sequential
from taskgate.checkpoint import load_model_state, model_state, read_entries, write_entries
from taskgate.forgetting import forget_task
from taskgate.layers import InputSide, walk

from gated_models import (BUILDERS, IMAGE, claim_binary, conv_model, flatten,
                          gated_layers, inputs, logits, nested_model,
                          set_binary_row, sgd_steps)


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
        assert l2.input_side == InputSide(l1.output_masker, 1)
        assert l3.input_side == InputSide(l2.output_masker, 1)

    def test_flattened_conv_maps_channels_over_pixels(self):
        model = conv_model(np.random.default_rng(101), task_count=2)
        conv, dense = gated_layers(model)
        pixels = IMAGE[1] * IMAGE[2]
        assert dense.input_side == InputSide(conv.output_masker, pixels)
        assert model.maskers() == [conv.output_masker, dense.output_masker]
        np.testing.assert_array_equal(
            dense.input_side.expand(np.array([1.0, 0.0, 0.5])),
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
                       flatten, HATLinear(47, 5, 2, "fc", rng))

    def test_dense_masker_never_repeats(self):
        # only a flattened convolution's channels spread over input features
        rng = np.random.default_rng(104)
        with pytest.raises(tg.ShapeError):
            Sequential(HATLinear(4, 3, 2, "l1", rng), ReLU(),
                       Linear(3, 6, rng), HATLinear(6, 2, 2, "l2", rng))

    @pytest.mark.parametrize("middle", ["linear", "layer_norm", "nested_linear",
                                        "task_indexed_norm"])
    def test_weighted_module_between_gated_layers_refused(self, middle):
        # shared ones train under every task; a task-indexed layer norm
        # turns masked-off units into nonzero inputs, so the weights reading
        # them stay free and a completed task's logits move
        rng = np.random.default_rng(105)
        build = {"linear": lambda: Linear(6, 6, rng),
                 "layer_norm": lambda: tg.LayerNorm(6),
                 "nested_linear": lambda: Sequential(ReLU(), Linear(6, 6, rng)),
                 "task_indexed_norm": lambda: tg.task_indexed_layer_norm(6, 2, "norm")}
        with pytest.raises(tg.ShapeError, match="'l2' reads masker 'l1.mask'"):
            Sequential(HATLinear(4, 6, 2, "l1", rng), ReLU(), build[middle](),
                       HATLinear(6, 3, 2, "l2", rng))

    def test_shared_module_after_a_standalone_masker_refused(self):
        rng = np.random.default_rng(106)
        with pytest.raises(tg.ShapeError, match="through a Linear"):
            Sequential(HATMasker(5, 2, "gate"), Linear(5, 5, rng),
                       HATLinear(5, 3, 2, "l1", rng))

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


@pytest.mark.parametrize("kind", ["nested", "conv"])  # flat: test_layers
def test_completed_task_bit_exact_while_next_trains(kind):
    rng = np.random.default_rng(110)
    model = BUILDERS[kind](rng, task_count=2)
    claim_binary(model, 0, rng)
    x_eval = inputs(kind, 6, rng)
    before = logits(model, x_eval, 0)
    sgd_steps(model, inputs(kind, 12, rng), rng.integers(0, 2, 12), 1)
    assert np.array_equal(before, logits(model, x_eval, 0))


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

    @pytest.mark.parametrize("kind", ["nested", "conv"])  # flat: test_forgetting
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
    @pytest.mark.parametrize("kind", ["nested", "conv"])
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
