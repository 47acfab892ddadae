import numpy as np
import pytest

import taskgate as tg
from taskgate import bench, cli
from taskgate.checkpoint import CONFIG_ENTRY, read_entries, write_entries
from taskgate.data import TOY_TEACHER, continual_tasks, toy_dataset

from test_checkpoint import CORRUPT_ENTRIES, write_corrupt


# config sizes that a run divides by or allocates with
SIZE_FIELDS = ("toy_batch_size", "batch_size", "toy_samples", "toy_hidden",
               "dim", "trunk_width", "train_n", "test_n", "epochs")
TOY_FIELDS = ("toy_batch_size", "toy_samples", "toy_hidden")


def tiny_continual_kwargs(out):
    return dict(experiment="continual", out=str(out), tasks=2, epochs=3,
                train_n=120, test_n=80, trunk_width=12, batch_size=30)


class TestToyData:
    def test_shapes_and_dtypes(self):
        x, y = toy_dataset(50, np.random.default_rng(0))
        assert x.shape == (50, 5) and y.shape == (50,)
        assert y.dtype == np.int64 and set(np.unique(y)) <= {0, 1}

    def test_deterministic(self):
        x1, y1 = toy_dataset(64, np.random.default_rng(3))
        x2, y2 = toy_dataset(64, np.random.default_rng(3))
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_labels_read_only_useful_features(self):
        # a strong teacher margin fixes the label regardless of features 3,4
        x, y = toy_dataset(400, np.random.default_rng(4))
        margin = x[:, :3] @ TOY_TEACHER
        confident = np.abs(margin) > 0.5  # beyond any plausible noise draw
        assert np.array_equal(y[confident], (margin[confident] > 0))


class TestContinualData:
    def test_shapes_and_balance(self):
        tasks = continual_tasks(3, np.random.default_rng(5), dim=8,
                                train_n=100, test_n=40)
        assert len(tasks) == 3
        for task in tasks:
            assert task.train[0].shape == (100, 8)
            assert task.test[0].shape == (40, 8)
            assert np.sum(task.train[1] == 0) == 50
            assert np.sum(task.test[1] == 1) == 20

    def test_clusters_separated(self):
        tasks = continual_tasks(2, np.random.default_rng(6), separation=6.0)
        for task in tasks:
            x, y = task.train
            gap = np.linalg.norm(x[y == 1].mean(axis=0) - x[y == 0].mean(axis=0))
            assert 5.0 < gap < 7.0

    def test_tasks_differ(self):
        tasks = continual_tasks(2, np.random.default_rng(7))
        m0 = tasks[0].train[0][tasks[0].train[1] == 1].mean(axis=0)
        m1 = tasks[1].train[0][tasks[1].train[1] == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) > 1.0


class TestFormatting:
    def test_six_significant_digits(self):
        assert bench.fmt6(0.9965) == "0.996500"
        assert bench.fmt6(1.0) == "1.00000"
        assert bench.fmt6(2000) == "2000.00"
        assert bench.fmt6(338.5) == "338.500"

    def test_matrix_csv_layout(self):
        matrix = bench.AccuracyMatrix(5)
        for r in range(5):
            for c in range(r + 1):
                matrix.add(r, c, 0.5)
        lines = matrix.csv_lines()
        assert lines[0] == "task_trained,task_evaluated,accuracy"
        assert len(lines) == 1 + 15  # header + lower triangle of a 5x5 grid
        assert lines[1] == "0,0,0.500000"

    def test_empty_matrix_is_header_only(self):
        assert bench.AccuracyMatrix(3).csv_lines() == [
            "task_trained,task_evaluated,accuracy"]

    def test_upper_triangle_rejected(self):
        matrix = bench.AccuracyMatrix(3)
        with pytest.raises(tg.UsageError):
            matrix.add(0, 1, 0.5)

    def test_markdown_mirrors_matrix(self):
        matrix = bench.AccuracyMatrix(2)
        matrix.add(0, 0, 0.9965)
        matrix.add(1, 0, 0.9965)
        matrix.add(1, 1, 0.875)
        lines = matrix.markdown_lines()
        assert lines[0] == "| after training | task 0 acc. | task 1 acc. |"
        assert lines[2] == "| task 0 | 0.996500 |  |"
        assert lines[3] == "| task 1 | 0.996500 | 0.875000 |"


class TestConfig:
    def test_text_round_trip(self):
        cfg = bench.ExperimentConfig(seed=7, tasks=3, s_max=50.0,
                                     schedule="linear")
        again = bench.config_from_text(bench.config_to_text(cfg))
        assert again == cfg

    def test_defaults_fill_missing_keys(self):
        cfg = bench.config_from_text("seed=5\n")
        assert cfg.seed == 5 and cfg.tasks == 5

    def test_comments_and_blanks_ignored(self):
        cfg = bench.config_from_text("# a comment\n\nseed=2\n")
        assert cfg.seed == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(tg.UsageError):
            bench.config_from_text("learning=fast\n")

    def test_bad_value_rejected(self):
        with pytest.raises(tg.UsageError):
            bench.config_from_text("seed=banana\n")

    def test_repeated_key_rejected(self):
        # unrefused, the last line won: seed=2
        with pytest.raises(tg.UsageError, match="config line 3: key 'seed' given twice"):
            bench.parse_config_mapping("seed=1\n# again\n seed = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(tg.UsageError):
            bench.parse_config_mapping("seed 5\n")

    def test_validation(self):
        with pytest.raises(tg.UsageError):
            bench.ExperimentConfig(repeats=0)
        with pytest.raises(tg.UsageError):
            bench.ExperimentConfig(schedule="step")
        with pytest.raises(tg.UsageError):
            bench.ExperimentConfig(experiment="mystery")
        for name in SIZE_FIELDS:
            with pytest.raises(tg.UsageError, match=name):
                bench.ExperimentConfig(**{name: 0})
        for s_max in (0.0, -1.0, float("inf"), float("nan"), 0.5):
            with pytest.raises(tg.UsageError, match="s_max"):
                bench.ExperimentConfig(s_max=s_max)
        nan = float("nan")
        for name, value in [("lr", nan), ("lr", -0.05), ("momentum", 1.0),
                            ("momentum", -0.5), ("reg_lambda", nan),
                            ("reg_lambda", float("inf")), ("reg_lambda", -1.0),
                            ("epochs", 1.5), ("batch_size", True), ("tasks", 2.0),
                            ("tasks", True), ("repeats", 1.5), ("theta_lo", -0.1),
                            ("theta_lo", 0.9), ("theta_lo", nan), ("theta_lo", True),
                            ("theta_hi", 1.5), ("theta_hi", 0.1), ("theta_hi", nan),
                            ("seed", -1), ("seed", 2.0), ("seed", False)]:
            with pytest.raises(tg.UsageError, match=name) as err:
                bench.ExperimentConfig(**{name: value})
            assert "\n" not in str(err.value)
        bench.ExperimentConfig(lr=0.0, theta_lo=0.0, theta_hi=1.0)


class TestToyRunner:
    def test_strategy_selection(self):
        both = bench.toy_strategies(bench.ExperimentConfig())
        assert set(both) == {"gaussian_linear", "ones_cosine"}
        one = bench.toy_strategies(bench.ExperimentConfig(init="gaussian",
                                                          schedule="cosine"))
        assert set(one) == {"gaussian_cosine"}

    def test_outcomes_per_repeat_and_strategy(self, tmp_path):
        cfg = bench.ExperimentConfig(experiment="toy-init", repeats=2,
                                     batch_cap=40, out=str(tmp_path))
        outcomes = bench.run_toy(cfg)
        assert len(outcomes) == 4
        assert {o.strategy for o in outcomes} == {"gaussian_linear",
                                                  "ones_cosine"}
        assert all(1 <= o.batches <= 40 for o in outcomes)

    def test_deterministic(self, tmp_path):
        cfg = bench.ExperimentConfig(experiment="toy-init", repeats=1,
                                     batch_cap=60, out=str(tmp_path))
        assert bench.run_toy(cfg) == bench.run_toy(cfg)

    def test_emitted_files(self, tmp_path):
        cfg = bench.ExperimentConfig(experiment="toy-init", repeats=1,
                                     batch_cap=30, out=str(tmp_path))
        paths = bench.emit_toy(cfg, bench.run_toy(cfg))
        metrics = open(paths["metrics"]).read().splitlines()
        assert metrics[0] == "repeat,strategy,batches,completed"
        assert len(metrics) == 3
        assert open(paths["summary"]).read().startswith("| strategy |")


class TestContinualRunner:
    def test_matrix_occupancy_and_checkpoint(self, tmp_path):
        cfg = bench.ExperimentConfig(**tiny_continual_kwargs(tmp_path))
        model, tasks, matrix = bench.run_continual(cfg)
        assert set(matrix.cells) == {(0, 0), (1, 0), (1, 1)}
        paths = bench.emit_continual(cfg, model, matrix)
        entries = read_entries(paths["checkpoint"])
        assert "l1/weight" in entries and "meta/config" in entries

    def test_checkpoint_reload_reproduces_matrix(self, tmp_path):
        from taskgate.training import evaluate
        cfg = bench.ExperimentConfig(**tiny_continual_kwargs(tmp_path))
        model, tasks, matrix = bench.run_continual(cfg)
        bench.emit_continual(cfg, model, matrix)
        reloaded, stored = bench.load_continual_checkpoint(cfg)
        assert stored.tasks == 2
        for (r, c), value in matrix.cells.items():
            if r == cfg.tasks - 1:  # final-row cells reflect current weights
                assert evaluate(reloaded, tasks[c].test, c) == value

    def test_forget_needs_checkpoint(self, tmp_path):
        cfg = bench.ExperimentConfig(experiment="forget", out=str(tmp_path))
        with pytest.raises(tg.UsageError):
            bench.run_forget(cfg)

    def test_forget_row_and_report(self, tmp_path):
        cfg = bench.ExperimentConfig(**tiny_continual_kwargs(tmp_path))
        model, tasks, matrix = bench.run_continual(cfg)
        bench.emit_continual(cfg, model, matrix)
        row, report, stored = bench.run_forget(
            bench.ExperimentConfig(experiment="forget", out=str(tmp_path)))
        assert len(row) == 2
        assert row[0] == 0.5  # zeroed head predicts one class on balanced data
        assert row[1] == matrix.cells[(1, 1)]
        assert report.total > 0
        paths = bench.emit_forget(cfg, row, report)
        lines = open(paths["csv"]).read().splitlines()
        assert lines[0] == "task_evaluated,accuracy"
        assert len(lines) == 3
        assert open(paths["report"]).read().splitlines()[-1] == \
            f"total {report.total}"


class TestCli:
    def test_print_config_and_precedence(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed=9\ntasks=3\n")
        code = cli.main(["continual", "--config", str(cfgfile),
                         "--seed", "4", "--print-config"])
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=4" in out and "tasks=3" in out
        assert "experiment=continual" in out

    def test_lambda_flag_sets_penalty_weight(self, capsys):
        code = cli.main(["toy-init", "--lambda", "0.5", "--print-config"])
        assert code == 0
        assert "reg_lambda=0.5" in capsys.readouterr().out

    def test_end_to_end_continual_then_forget(self, tmp_path, capsys):
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text("tasks=2\nepochs=3\ntrain_n=120\ntest_n=80\n"
                           "trunk_width=12\nbatch_size=30\n")
        out = tmp_path / "results"
        assert cli.main(["continual", "--config", str(cfgfile),
                         "--out", str(out)]) == 0
        assert (out / "continual_matrix.csv").exists()
        assert (out / "continual.ckpt").exists()
        capsys.readouterr()
        assert cli.main(["forget", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert (out / "forget_row.csv").exists()
        assert "total" in printed

    def test_missing_checkpoint_diagnostic(self, tmp_path, capsys):
        code = cli.main(["forget", "--out", str(tmp_path / "empty")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("taskgate: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(CORRUPT_ENTRIES) + ["seven_bytes"])
    def test_corrupt_checkpoint_diagnostic(self, tmp_path, capsys, case):
        path = tmp_path / bench.CHECKPOINT_NAME
        if case == "seven_bytes":
            path.write_bytes(b"HATCKPT")
        else:
            write_corrupt(path, case)
        code = cli.main(["forget", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("taskgate: error:") and err.count("\n") == 1
        if case != "config_not_utf8":  # the file read; its config text is checked later
            assert str(path) in err

    @pytest.mark.parametrize("key, value", [(name, "0") for name in SIZE_FIELDS]
                             + [("s_max", "0"), ("s_max", "nan"), ("s_max", "-inf"),
                                ("s_max", "0.5"),
                                ("reg_lambda", "nan"), ("lr", "nan"),
                                ("momentum", "1"), ("theta_hi", "2")])
    def test_degenerate_config_is_one_line_error(self, tmp_path, capsys, key, value):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{key}={value}\n")
        experiment = "toy-init" if key in TOY_FIELDS else "continual"
        code = cli.main([experiment, "--config", str(cfgfile),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("taskgate: error:") and err.count("\n") == 1
        assert key in err and "Traceback" not in err

    def test_degenerate_stored_config_is_one_line_error(self, tmp_path, capsys):
        text = bench.config_to_text(bench.ExperimentConfig(), exclude=("out",))
        text = text.replace("batch_size=64", "batch_size=0")
        write_entries(tmp_path / bench.CHECKPOINT_NAME, {
            CONFIG_ENTRY: np.frombuffer(text.encode("utf-8"), dtype=np.uint8)})
        code = cli.main(["forget", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("taskgate: error:") and err.count("\n") == 1
        assert "batch_size" in err

    @pytest.mark.parametrize("argv, config, named", [
        ("continual --seed -1", None, "seed"),
        ("toy-init --seed -3", None, "seed"),
        ("continual --config {cfg}", b"seed=-5\n", "seed"),
        ("continual --config {cfg}", b"tasks=2\xff\n", "{cfg}"),
        ("forget", None, "seed"),  # the checkpoint's stored config holds seed=-1
    ], ids=["flag-seed", "toy-flag-seed", "config-seed", "config-not-utf8", "stored-seed"])
    def test_bad_input_is_one_line_error(self, tmp_path, capsys, argv, config, named):
        cfgfile = tmp_path / "bad.cfg"
        if config is not None:
            cfgfile.write_bytes(config)
        write_entries(tmp_path / bench.CHECKPOINT_NAME, {
            CONFIG_ENTRY: np.frombuffer(b"tasks=2\nseed=-1\n", dtype=np.uint8)})
        code = cli.main(argv.format(cfg=cfgfile).split() + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("taskgate: error:") and err.count("\n") == 1
        assert "Traceback" not in err and named.format(cfg=cfgfile) in err

    def test_help_states_effective_lambda_default(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["continual", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        default = bench.ExperimentConfig().reg_lambda
        assert f"penalty weight (default {default})" in help_text

    def test_bad_flag_value_exits_nonzero(self, tmp_path, capsys):
        code = cli.main(["continual", "--tasks", "0", "--print-config"])
        assert code == 1
        assert "tasks" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bad_lambda_flag_is_one_line_error(self, tmp_path, capsys, value):
        code = cli.main(["continual", "--lambda", value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("taskgate: error: reg_lambda") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file_diagnostic(self, capsys):
        code = cli.main(["continual", "--config", "/nope/nothing.cfg"])
        assert code == 1
        assert "config file" in capsys.readouterr().err
