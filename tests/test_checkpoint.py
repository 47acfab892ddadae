import re
import struct

import numpy as np
import pytest

import taskgate as tg
from taskgate import (HATLinear, HATMasker, HATPayload, Linear, ReLU, Sequential, Tensor,
                      bench, cli)
from taskgate.checkpoint import (
    MAGIC,
    config_text,
    load_model_state,
    model_state,
    read_entries,
    write_entries,
)


def continual_style_model(rng, task_count=3):
    return Sequential(
        HATLinear(4, 8, task_count, "l1", rng),
        ReLU(),
        HATLinear(8, 8, task_count, "l2", rng),
        ReLU(),
        tg.task_indexed_layer_norm(8, task_count, "norm"),
        tg.task_indexed_linear(8, 2, task_count, "head", rng),
    )


class TestWireFormat:
    def test_round_trip_preserves_bits(self, tmp_path):
        rng = np.random.default_rng(90)
        entries = {
            "a/weight": rng.standard_normal((3, 4)),
            "a/bias": rng.standard_normal(3),
            "mask": np.array([1, 0, 1], dtype=np.uint8),
            "single": np.array(np.pi),  # rank 0
            "small": rng.standard_normal(5).astype(np.float32),
        }
        path = tmp_path / "model.ckpt"
        write_entries(path, entries)
        loaded = read_entries(path)
        assert set(loaded) == set(entries)
        for name, arr in entries.items():
            assert loaded[name].dtype == np.asarray(arr).dtype
            assert np.array_equal(loaded[name], arr)

    def test_magic_bytes_lead_the_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_entries(path, {"x": np.zeros(2)})
        assert path.read_bytes()[:8] == MAGIC

    def test_bool_arrays_become_bitmask_entries(self, tmp_path):
        path = tmp_path / "b.ckpt"
        write_entries(path, {"stored": np.array([True, False, True])})
        loaded = read_entries(path)
        assert loaded["stored"].dtype == np.uint8
        np.testing.assert_array_equal(loaded["stored"], [1, 0, 1])

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(91)
        entries = {"b": rng.standard_normal(4), "a": rng.standard_normal(2)}
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        write_entries(p1, entries)
        write_entries(p2, {"a": entries["a"], "b": entries["b"]})  # other order
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(tg.UsageError):
            read_entries(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_entries(path, {"x": np.zeros(8)})
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(tg.UsageError):
            read_entries(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_entries(path, {"x": np.zeros(2)})
        path.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(tg.UsageError):
            read_entries(path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(tg.UsageError):
            write_entries(tmp_path / "i.ckpt", {"x": np.zeros(2, dtype=np.int64)})


class TestModelState:
    def test_expected_entry_names(self):
        rng = np.random.default_rng(92)
        model = continual_style_model(rng, task_count=2)
        for m in model.maskers():
            m.finalize_task(0)
        entries = model_state(model, config="tasks=2\n")
        assert "l1/weight" in entries and "l1/bias" in entries
        assert "l1.mask/embeddings" in entries
        assert entries["l1.mask/embeddings"].shape == (2, 8)
        assert "l1.mask/cumulative" not in entries  # derived from the stored masks
        assert "l1.mask/stored/0" in entries
        assert "l1.mask/stored/1" not in entries
        assert "norm/0/gain" in entries and "norm/1/shift" in entries
        assert "head/0/weight" in entries and "head/1/bias" in entries
        assert config_text(entries) == "tasks=2\n"

    def test_plain_layers_named_by_position(self):
        rng = np.random.default_rng(93)
        model = Sequential(
            HATMasker(5, 2, "gate"),
            Linear(5, 8, rng),
            ReLU(),
            Linear(8, 2, rng),
        )
        entries = model_state(model)
        assert "gate/embeddings" in entries
        assert "step1/weight" in entries and "step3/bias" in entries

    def test_full_round_trip_restores_behavior_bitwise(self, tmp_path):
        rng = np.random.default_rng(94)
        model = continual_style_model(rng)
        # make the state interesting: move embeddings, finalize two tasks
        for m in model.maskers():
            for row in m.embedding_rows:
                row.data[...] = rng.standard_normal(m.n_features)
            m.finalize_task(0)
            m.finalize_task(1)

        x = rng.standard_normal((6, 4))
        before = {
            t: model.forward(HATPayload(Tensor(x), task=t)).masked_data().data
            for t in (0, 1, 2)
        }

        path = tmp_path / "model.ckpt"
        write_entries(path, model_state(model, config="seed=7\n"))

        fresh = continual_style_model(np.random.default_rng(4321))
        entries = read_entries(path)
        load_model_state(fresh, entries)
        assert config_text(entries) == "seed=7\n"

        for m in fresh.maskers():
            assert sorted(m.stored_task_masks) == [0, 1]
            assert m.stored_task_masks[0].dtype == np.bool_
        for t in (0, 1, 2):
            after = fresh.forward(HATPayload(Tensor(x), task=t)).masked_data().data
            assert np.array_equal(before[t], after)

    def test_load_clears_stale_gradients(self, tmp_path):
        rng = np.random.default_rng(95)
        model = continual_style_model(rng)
        path = tmp_path / "m.ckpt"
        write_entries(path, model_state(model))
        layer = model.steps[0]
        layer.weight.grad = np.ones_like(layer.weight.data)
        load_model_state(model, read_entries(path))
        assert layer.weight.grad is None

    def test_missing_entry_rejected(self, tmp_path):
        rng = np.random.default_rng(96)
        model = continual_style_model(rng)
        entries = model_state(model)
        del entries["l2/bias"]
        with pytest.raises(tg.UsageError):
            load_model_state(model, entries)

    def test_mismatched_architecture_rejected(self, tmp_path):
        rng = np.random.default_rng(97)
        entries = model_state(continual_style_model(rng, task_count=3))
        smaller = continual_style_model(rng, task_count=2)
        with pytest.raises((tg.UsageError, tg.ShapeError)):
            load_model_state(smaller, entries)

    def test_foreign_entries_rejected(self):
        rng = np.random.default_rng(98)
        model = continual_style_model(rng)
        entries = model_state(model)
        entries["ghost/weight"] = np.zeros(3)
        with pytest.raises(tg.UsageError):
            load_model_state(model, entries)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(99)
        model = continual_style_model(rng)
        entries = model_state(model)
        entries["l1/weight"] = entries["l1/weight"][:, :2].copy()
        with pytest.raises(tg.ShapeError):
            load_model_state(model, entries)


def raw_entry(name: bytes, shape, code=0, payload=b""):
    """One entry in the wire format, with a header that may lie."""
    return (struct.pack("<I", len(name)) + name + struct.pack("<B", code)
            + struct.pack("<Q", len(shape))
            + struct.pack(f"<{len(shape)}Q", *shape) + payload)


CORRUPT_ENTRIES = {
    "size_overflows_int64": raw_entry(b"x", (2**62, 4)),
    "extent_is_u64_max": raw_entry(b"x", (2**64 - 1,)),
    "empty_extent_beyond_intp": raw_entry(b"x", (2**64 - 1, 0)),
    "rank_beyond_file": (struct.pack("<I", 1) + b"x" + struct.pack("<B", 0)
                         + struct.pack("<Q", 2**60)),
    "name_not_utf8": raw_entry(b"\xff\xfe", (1,), payload=bytes(8)),
    "config_not_utf8": raw_entry(b"meta/config", (2,), code=2,
                                 payload=b"\xff\xfe"),
}


def write_corrupt(path, case):
    path.write_bytes(MAGIC + struct.pack("<Q", 1) + CORRUPT_ENTRIES[case])


class TestCorruptFiles:
    @pytest.mark.parametrize("case", sorted(CORRUPT_ENTRIES))
    def test_corrupt_header_is_a_usage_error(self, tmp_path, case):
        path = tmp_path / "bad.ckpt"
        write_corrupt(path, case)
        with pytest.raises(tg.UsageError) as info:
            config_text(read_entries(path))
        assert "\n" not in str(info.value)
        if case != "config_not_utf8":  # refused by read_entries, not config_text
            assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("blob, reason", [
        (MAGIC[:7], "truncated checkpoint file"),
        (b"NOTACKPT" + bytes(8), "not a checkpoint file (bad magic)"),
        (MAGIC + struct.pack("<Q", 0) + b"zz", "2 trailing bytes after the last entry"),
        (MAGIC + struct.pack("<Q", 1) + raw_entry(b"x", (1,), code=9, payload=bytes(8)),
         "unknown dtype code 9 for entry 'x'"),
        (MAGIC + struct.pack("<Q", 2) + raw_entry(b"x", (0,)) + raw_entry(b"x", (0,)),
         "entry 'x' follows 'x'"),
    ], ids=["seven_bytes", "bad_magic", "trailing", "dtype_code", "repeated_name"])
    def test_every_read_refusal_names_the_file(self, tmp_path, blob, reason):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        with pytest.raises(tg.UsageError) as info:
            read_entries(path)
        assert str(info.value).startswith(f"{path}: {reason}")

    @pytest.mark.parametrize("key, stored, error", [
        ("l1.mask/stored/x", np.ones(8, dtype=np.uint8), tg.UsageError),
        ("l1.mask/stored/0", np.ones(3, dtype=np.uint8), tg.ShapeError),
        ("l1.mask/stored/7", np.ones(8, dtype=np.uint8), tg.UsageError),
    ], ids=["task_id_not_a_number", "mask_length_mismatch", "task_id_out_of_range"])
    def test_corrupt_stored_mask_is_refused(self, tmp_path, key, stored, error):
        model = continual_style_model(np.random.default_rng(100), task_count=2)
        entries = model_state(model)
        entries[key] = stored
        path = tmp_path / "bad.ckpt"
        write_entries(path, entries)
        with pytest.raises(error) as info:
            load_model_state(model, read_entries(path))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("case", ["repeated", "out_of_order"])
    def test_entries_not_in_name_order_are_refused(self, tmp_path, case):
        # a second, zeroed copy of head/0/bias used to load, and its zeros won
        named = sorted(model_state(continual_style_model(np.random.default_rng(104))).items())
        path = tmp_path / "bad.ckpt"

        def write(pairs):
            path.write_bytes(MAGIC + struct.pack("<Q", len(pairs)) + b"".join(
                raw_entry(name.encode(), value.shape, payload=value.tobytes())
                for name, value in pairs))

        write(named)  # in name order, the hand-built file reads back
        assert list(read_entries(path)) == [name for name, _ in named]
        i = [name for name, _ in named].index("head/0/bias")
        if case == "repeated":
            named.insert(i + 1, ("head/0/bias", np.zeros(2)))
        else:
            named[i], named[i + 1] = named[i + 1], named[i]
        write(named)
        with pytest.raises(tg.UsageError, match=re.escape(
                f"entry '{named[i + 1][0]}' follows '{named[i][0]}'; entries must be "
                f"sorted by name, each name once")) as info:
            read_entries(path)
        assert "\n" not in str(info.value)

    def test_maskers_disagreeing_on_completed_tasks_are_refused(self, tmp_path):
        # l2 recorded task 2 and l1 did not: task 2 could then be neither
        # trained (finalized at l2) nor forgotten (never finalized at l1)
        model = continual_style_model(np.random.default_rng(101), task_count=3)
        for m in model.maskers():
            m.finalize_task(0)
        entries = model_state(model)
        entries["l2.mask/stored/2"] = np.ones(8, dtype=np.uint8)
        path = tmp_path / "bad.ckpt"
        write_entries(path, entries)
        fresh = continual_style_model(np.random.default_rng(102), task_count=3)
        before = model_state(fresh)
        with pytest.raises(tg.UsageError, match="task 2 .*'l2.mask'.*'l1.mask'") as info:
            load_model_state(fresh, read_entries(path))
        assert "\n" not in str(info.value)
        after = model_state(fresh)  # refused: nothing was loaded
        assert after.keys() == before.keys()
        assert all(after[k].tobytes() == before[k].tobytes() for k in before)

    @pytest.mark.parametrize("value", [2, 255])
    def test_stored_mask_byte_other_than_0_or_1_is_refused(self, tmp_path, value):
        model = continual_style_model(np.random.default_rng(103), task_count=2)
        for m in model.maskers():
            m.finalize_task(0)
        entries = model_state(model)
        entries["l1.mask/stored/0"][3] = value
        path = tmp_path / "bad.ckpt"
        write_entries(path, entries)
        with pytest.raises(tg.UsageError, match="'l1.mask/stored/0'.*0 or 1") as info:
            load_model_state(model, read_entries(path))
        assert "\n" not in str(info.value)

    def test_checkpoint_with_a_cumulative_entry_is_a_one_line_error(self, tmp_path, capsys):
        # checkpoints used to save each masker's cumulative mask as well;
        # it is derived from the stored masks now, so such an entry is unused
        cfg = bench.ExperimentConfig()
        model = bench.build_continual_model(np.random.default_rng([cfg.seed, 11]), cfg)
        for m in model.maskers():
            m.finalize_task(0)
        entries = model_state(model, bench.config_to_text(cfg, exclude=("out",)))
        entries["l1.mask/cumulative"] = np.ones(cfg.trunk_width)
        write_entries(tmp_path / bench.CHECKPOINT_NAME, entries)
        code = cli.main(["forget", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("taskgate: error:") and err.count("\n") == 1
        assert "entries not used by this model: l1.mask/cumulative" in err
        assert "Traceback" not in err
