"""Benchmark harness behind the command line.

Two experiments on synthetic data, sized for a desk machine:

* toy-init — five input features, three useful. Trains a one-hidden-layer
  gated network repeatedly and counts batches until the input mask locks in
  (above `theta_hi` on useful features, below `theta_lo` on useless ones),
  comparing embedding-init/schedule strategies.
* continual — a sequence of two-class tasks trained one after another,
  reporting the full accuracy matrix and saving a checkpoint; forget then
  erases task 0 from that checkpoint and re-evaluates every task.

Every run is a pure function of (config, seed): outputs are byte-identical
across repeated runs.
"""

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .checkpoint import config_text, load_model_state, model_state, read_entries, write_entries
from .data import TOY_USEFUL, TOY_USELESS, continual_tasks, toy_dataset
from .forgetting import forget_task
from .layers import EMBEDDING_INITS, HATLinear, HATMasker, Linear, ReLU, Sequential
from .layers import (_real, _width, check_s_max, stack_members, task_indexed_layer_norm,
                     task_indexed_linear)
from .tensor import UsageError
from .training import (SCHEDULES, TrainerConfig, check_trainer_numbers, evaluate,
                       init_embeddings, train_task)

__all__ = [
    "AccuracyMatrix",
    "ExperimentConfig",
    "TOY_STRATEGIES",
    "build_continual_model",
    "build_toy_model",
    "config_from_text",
    "config_to_text",
    "fmt6",
    "parse_config_mapping",
    "run_continual",
    "run_forget",
    "run_toy",
]

CHECKPOINT_NAME = "continual.ckpt"

# strategy label -> (embedding init, scale schedule)
TOY_STRATEGIES = {
    "gaussian_linear": ("gaussian", "linear"),
    "ones_cosine": ("ones", "cosine"),
}


def fmt6(x: float) -> str:
    """Six significant digits, trailing zeros kept: 0.9965 -> '0.996500'."""
    return f"{float(x):#.6g}"


@dataclass
class ExperimentConfig:
    """Everything a run needs. Defaults are the documented baseline.

    `schedule`/`init` left empty mean "pick per experiment": toy-init runs
    both named strategies, continual uses ones + cosine.
    """

    experiment: str = "continual"
    seed: int = 0
    repeats: int = 100
    tasks: int = 5
    s_max: float = 400.0
    schedule: str = ""      # one of SCHEDULES, or "" (experiment default)
    init: str = ""          # one of EMBEDDING_INITS, or "" (experiment default)
    reg_lambda: float = 0.075
    lr: float = 0.05
    momentum: float = 0.5
    epochs: int = 10
    batch_size: int = 64
    out: str = "out"
    # toy-init experiment
    toy_samples: int = 512
    toy_hidden: int = 8
    toy_batch_size: int = 8
    batch_cap: int = 2000
    theta_hi: float = 0.9
    theta_lo: float = 0.1
    # continual experiment
    dim: int = 16
    separation: float = 6.0
    train_n: int = 1000
    test_n: int = 400
    trunk_width: int = 48

    def __post_init__(self):
        if self.experiment not in ("toy-init", "continual", "forget"):
            raise UsageError(f"unknown experiment '{self.experiment}'")
        if self.schedule not in ("",) + SCHEDULES:
            raise UsageError(f"unknown schedule '{self.schedule}'")
        if self.init not in ("",) + EMBEDDING_INITS:
            raise UsageError(f"unknown init '{self.init}'")
        check_trainer_numbers(self.lr, self.momentum, self.reg_lambda, self.seed,
                              tasks=self.tasks, epochs=self.epochs,
                              batch_size=self.batch_size)
        for name in ("repeats", "batch_cap", "toy_samples", "toy_hidden",
                     "toy_batch_size", "dim", "train_n", "test_n", "trunk_width"):
            _width(getattr(self, name), name)
        check_s_max(self.s_max)
        if not (_real(self.separation) and math.isfinite(self.separation)):
            raise UsageError(f"separation must be finite, got {self.separation!r}")
        lo, hi = self.theta_lo, self.theta_hi
        if not (_real(lo) and _real(hi) and 0.0 <= lo < hi <= 1.0):
            raise UsageError(f"theta_lo and theta_hi must satisfy 0 <= theta_lo "
                             f"< theta_hi <= 1, got {lo!r} and {hi!r}")


def config_to_text(cfg: ExperimentConfig, exclude: tuple = ()) -> str:
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg)
                   if f.name not in exclude)


def parse_config_mapping(text: str) -> dict:
    """key=value lines (# comments and blanks allowed) -> string mapping."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got '{line}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in mapping:
            raise UsageError(f"config line {lineno}: key '{key}' given twice")
        mapping[key] = value
    return mapping


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    values = {}
    casts = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    for key, raw in mapping.items():
        if key not in casts:
            raise UsageError(f"unknown config key '{key}'")
        try:
            values[key] = casts[key](raw)
        except ValueError:
            raise UsageError(f"config key '{key}': cannot parse "
                             f"'{raw}' as {casts[key].__name__}") from None
    return ExperimentConfig(**values)


def config_from_text(text: str) -> ExperimentConfig:
    return config_from_mapping(parse_config_mapping(text))


@dataclass
class AccuracyMatrix:
    """Lower-triangular grid: rows are "after training task r", columns are
    "evaluated on task c <= r"."""

    task_count: int
    cells: dict = field(default_factory=dict)  # (trained, evaluated) -> float

    def add(self, trained: int, evaluated: int, accuracy: float) -> None:
        if not evaluated <= trained < self.task_count:
            raise UsageError(f"cell ({trained},{evaluated}) breaks the "
                             f"lower-triangular layout")
        self.cells[(trained, evaluated)] = accuracy

    def csv_lines(self) -> list:
        lines = ["task_trained,task_evaluated,accuracy"]
        for trained, evaluated in sorted(self.cells):
            lines.append(f"{trained},{evaluated},"
                         f"{fmt6(self.cells[(trained, evaluated)])}")
        return lines

    def markdown_lines(self) -> list:
        header = "| after training | " + " | ".join(
            f"task {c} acc." for c in range(self.task_count)) + " |"
        rule = "| --- |" + " --- |" * self.task_count
        lines = [header, rule]
        for trained in range(self.task_count):
            row = [f"task {trained}"]
            for evaluated in range(self.task_count):
                value = self.cells.get((trained, evaluated))
                row.append(fmt6(value) if value is not None else "")
            lines.append("| " + " | ".join(row) + " |")
        return lines


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# toy-init experiment

@dataclass
class ToyOutcome:
    repeat: int
    strategy: str
    batches: int
    completed: bool


def build_toy_model(rng: np.random.Generator, cfg: ExperimentConfig) -> Sequential:
    return Sequential(
        HATMasker(5, cfg.tasks, "gate", s_max=cfg.s_max),
        Linear(5, cfg.toy_hidden, rng),
        ReLU(),
        Linear(cfg.toy_hidden, 2, rng),
    )


_USEFUL = np.array(TOY_USEFUL)
_USELESS = np.array(TOY_USELESS)


def mask_locked(masker: HATMasker, cfg: ExperimentConfig):
    """Full-hardness input mask is on for useful features, off for noise:
    a bool, or for a member masker an [M] array of them."""
    mask = masker.mask_values(0)
    locked = (np.logical_and.reduce(mask[..., _USEFUL] > cfg.theta_hi, axis=-1)
              & np.logical_and.reduce(mask[..., _USELESS] < cfg.theta_lo, axis=-1))
    return bool(locked) if masker.members is None else locked


def toy_strategies(cfg: ExperimentConfig) -> dict:
    if not cfg.schedule and not cfg.init:
        return dict(TOY_STRATEGIES)
    init_kind = cfg.init or "ones"
    schedule = cfg.schedule or "cosine"
    return {f"{init_kind}_{schedule}": (init_kind, schedule)}


def run_toy(cfg: ExperimentConfig) -> list:
    """Batch counts until mask lock-in, per repeat and strategy.

    Each run is built and configured as if it trained alone (seed = base
    seed + repeat index), and every repeat of every strategy then trains
    at once as one member model (``train_task`` on
    ``layers.stack_members``), with the bits each run would get alone. A
    run stops at its first batch with the mask locked in, or at the cap.
    """
    batches_per_epoch = math.ceil(cfg.toy_samples / cfg.toy_batch_size)
    epochs = math.ceil(cfg.batch_cap / batches_per_epoch)
    runs, models, xs, ys, trainers = [], [], [], [], []
    for repeat in range(cfg.repeats):
        # each repeat is fully independent: seed = base seed + repeat index
        repeat_seed = cfg.seed + repeat
        x, y = toy_dataset(cfg.toy_samples, np.random.default_rng([repeat_seed, 0]))
        for label, (init_kind, schedule) in toy_strategies(cfg).items():
            model = build_toy_model(np.random.default_rng([repeat_seed, 1]), cfg)
            init_embeddings(model.maskers(), init_kind,
                            np.random.default_rng([repeat_seed, 2]))
            runs.append((repeat, label))
            models.append(model)
            xs.append(x)
            ys.append(y)
            trainers.append(TrainerConfig(
                task_count=cfg.tasks, s_max=cfg.s_max, schedule=schedule,
                init=init_kind, lr=cfg.lr, momentum=cfg.momentum,
                reg_lambda=cfg.reg_lambda, epochs=epochs,
                batch_size=cfg.toy_batch_size, seed=repeat_seed))
    group = stack_members(models)
    gate = group.maskers()[0]
    batches = np.full(len(runs), cfg.batch_cap)
    completed = np.zeros(len(runs), dtype=bool)
    stopped = np.zeros(len(runs), dtype=bool)

    def on_batch(index, _model):
        locked = mask_locked(gate, cfg) & ~stopped
        if np.logical_or.reduce(locked):
            batches[locked] = index
            completed[locked] = True
            stopped[:] |= locked
        if index >= cfg.batch_cap:
            stopped[:] = True
        return stopped

    train_task(group, (np.stack(xs), np.stack(ys)), 0, trainers, on_batch_end=on_batch)
    return [ToyOutcome(repeat, label, int(n), bool(done))
            for (repeat, label), n, done in zip(runs, batches, completed)]


def toy_summary(outcomes: list) -> dict:
    """strategy -> (mean batches, completed count, repeats)."""
    summary = {}
    for strategy in sorted({o.strategy for o in outcomes}):
        mine = [o for o in outcomes if o.strategy == strategy]
        mean = sum(o.batches for o in mine) / len(mine)
        summary[strategy] = (mean, sum(o.completed for o in mine), len(mine))
    return summary


def toy_metrics_lines(outcomes: list) -> list:
    lines = ["repeat,strategy,batches,completed"]
    for o in outcomes:
        lines.append(f"{o.repeat},{o.strategy},{o.batches},{int(o.completed)}")
    return lines


def toy_summary_lines(summary: dict) -> list:
    lines = ["| strategy | mean batches | completed |", "| --- | --- | --- |"]
    for strategy, (mean, done, n) in summary.items():
        lines.append(f"| {strategy} | {fmt6(mean)} | {done}/{n} |")
    return lines


def emit_toy(cfg: ExperimentConfig, outcomes: list) -> dict:
    os.makedirs(cfg.out, exist_ok=True)
    paths = {
        "metrics": os.path.join(cfg.out, "toy_metrics.csv"),
        "summary": os.path.join(cfg.out, "toy_summary.md"),
    }
    _write_lines(paths["metrics"], toy_metrics_lines(outcomes))
    _write_lines(paths["summary"], toy_summary_lines(toy_summary(outcomes)))
    return paths


# ---------------------------------------------------------------------------
# continual experiment

def build_continual_model(rng: np.random.Generator,
                          cfg: ExperimentConfig) -> Sequential:
    width = cfg.trunk_width
    return Sequential(
        HATLinear(cfg.dim, width, cfg.tasks, "l1", rng, s_max=cfg.s_max),
        ReLU(),
        HATLinear(width, width, cfg.tasks, "l2", rng, s_max=cfg.s_max),
        ReLU(),
        task_indexed_layer_norm(width, cfg.tasks, "norm"),
        task_indexed_linear(width, 2, cfg.tasks, "head", rng),
    )


def _continual_data(cfg: ExperimentConfig) -> list:
    return continual_tasks(cfg.tasks, np.random.default_rng([cfg.seed, 10]),
                           dim=cfg.dim, separation=cfg.separation,
                           train_n=cfg.train_n, test_n=cfg.test_n)


def run_continual(cfg: ExperimentConfig):
    """Train tasks in sequence; returns (model, tasks, accuracy matrix)."""
    tasks = _continual_data(cfg)
    model = build_continual_model(np.random.default_rng([cfg.seed, 11]), cfg)
    init_kind = cfg.init or "ones"
    init_embeddings(model.maskers(), init_kind,
                    np.random.default_rng([cfg.seed, 12]))
    trainer = TrainerConfig(
        task_count=cfg.tasks, s_max=cfg.s_max,
        schedule=cfg.schedule or "cosine", init=init_kind, lr=cfg.lr,
        momentum=cfg.momentum, reg_lambda=cfg.reg_lambda, epochs=cfg.epochs,
        batch_size=cfg.batch_size, seed=cfg.seed)
    matrix = AccuracyMatrix(cfg.tasks)
    for task in range(cfg.tasks):
        train_task(model, tasks[task].train, task, trainer)
        for done in range(task + 1):
            matrix.add(task, done, evaluate(model, tasks[done].test, done))
    return model, tasks, matrix


def emit_continual(cfg: ExperimentConfig, model: Sequential,
                   matrix: AccuracyMatrix) -> dict:
    os.makedirs(cfg.out, exist_ok=True)
    paths = {
        "csv": os.path.join(cfg.out, "continual_matrix.csv"),
        "markdown": os.path.join(cfg.out, "continual_matrix.md"),
        "checkpoint": os.path.join(cfg.out, CHECKPOINT_NAME),
    }
    _write_lines(paths["csv"], matrix.csv_lines())
    _write_lines(paths["markdown"], matrix.markdown_lines())
    # the output directory is not part of the experiment's identity, so
    # identical runs produce byte-identical checkpoints wherever they land
    write_entries(paths["checkpoint"],
                  model_state(model, config_to_text(cfg, exclude=("out",))))
    return paths


# ---------------------------------------------------------------------------
# forget experiment

def load_continual_checkpoint(cfg: ExperimentConfig):
    """Rebuild the trained model and its datasets from `out`."""
    path = os.path.join(cfg.out, CHECKPOINT_NAME)
    if not os.path.exists(path):
        raise UsageError(f"no checkpoint at {path}; run the continual "
                         f"experiment first")
    entries = read_entries(path)
    stored_text = config_text(entries)
    # the checkpoint's own config governs architecture and data, so the
    # reload matches the run that wrote it
    stored = config_from_text(stored_text) if stored_text else cfg
    model = build_continual_model(np.random.default_rng([stored.seed, 11]),
                                  stored)
    load_model_state(model, entries)
    return model, stored


def run_forget(cfg: ExperimentConfig):
    """Erase task 0 from the saved continual run; returns
    (per-task accuracies after forgetting, report, stored config)."""
    model, stored = load_continual_checkpoint(cfg)
    tasks = _continual_data(stored)
    report = forget_task(model, 0, embedding_init=stored.init or "ones",
                         rng=np.random.default_rng([stored.seed, 13]))
    row = [evaluate(model, tasks[t].test, t) for t in range(stored.tasks)]
    return row, report, stored


def forget_row_lines(row: list) -> list:
    lines = ["task_evaluated,accuracy"]
    for task, accuracy in enumerate(row):
        lines.append(f"{task},{fmt6(accuracy)}")
    return lines


def forget_markdown_lines(row: list) -> list:
    header = "| after | " + " | ".join(
        f"task {c} acc." for c in range(len(row))) + " |"
    rule = "| --- |" + " --- |" * len(row)
    cells = " | ".join(fmt6(v) for v in row)
    return [header, rule, f"| forgetting task 0 | {cells} |"]


def emit_forget(cfg: ExperimentConfig, row: list, report) -> dict:
    os.makedirs(cfg.out, exist_ok=True)
    paths = {
        "csv": os.path.join(cfg.out, "forget_row.csv"),
        "markdown": os.path.join(cfg.out, "forget_row.md"),
        "report": os.path.join(cfg.out, "forget_report.txt"),
    }
    _write_lines(paths["csv"], forget_row_lines(row))
    _write_lines(paths["markdown"], forget_markdown_lines(row))
    _write_lines(paths["report"], report.lines())
    return paths
