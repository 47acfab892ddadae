"""Command line for the benchmark experiments.

    taskgate toy-init  [flags]   batch counts until the input mask locks in
    taskgate continual [flags]   sequential tasks -> accuracy matrix + checkpoint
    taskgate forget    [flags]   erase task 0 from the checkpoint, re-evaluate

Precedence: built-in defaults < --config file (key=value lines) < flags.
`--print-config` shows the effective configuration and exits.
"""

import argparse
import sys
from dataclasses import replace

from . import bench
from .layers import EMBEDDING_INITS
from .tensor import ShapeError, StateError, UsageError
from .training import SCHEDULES

# flags that map straight onto ExperimentConfig fields
_FLAG_FIELDS = ("seed", "repeats", "tasks", "s_max", "schedule", "init",
                "reg_lambda", "out")


def _add_flags(parser: argparse.ArgumentParser) -> None:
    defaults = bench.ExperimentConfig()
    parser.add_argument("--seed", type=int,
                        help=f"base random seed (default {defaults.seed})")
    parser.add_argument("--repeats", type=int,
                        help=f"independent toy-init repeats "
                             f"(default {defaults.repeats})")
    parser.add_argument("--tasks", type=int,
                        help=f"number of tasks (default {defaults.tasks})")
    parser.add_argument("--s-max", dest="s_max", type=float,
                        help=f"mask hardness ceiling (default {defaults.s_max:g})")
    parser.add_argument("--schedule", choices=SCHEDULES,
                        help="per-epoch hardness schedule "
                             "(default: cosine; toy-init compares both)")
    parser.add_argument("--init", choices=EMBEDDING_INITS,
                        help="embedding initialization "
                             "(default: ones; toy-init compares both)")
    parser.add_argument("--lambda", dest="reg_lambda", type=float,
                        help=f"capacity-quota penalty weight "
                             f"(default {defaults.reg_lambda})")
    parser.add_argument("--out",
                        help=f"output directory (default '{defaults.out}')")
    parser.add_argument("--config",
                        help="key=value file applied under the flags")
    parser.add_argument("--print-config", action="store_true",
                        help="print the effective configuration and exit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskgate",
        description="continual-learning benchmarks with gated task masks")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="{toy-init,continual,forget}")
    for name, text in [
        ("toy-init", "compare embedding-init/schedule strategies by batches "
                     "until the input mask locks in"),
        ("continual", "train tasks sequentially; write the accuracy matrix "
                      "and a checkpoint"),
        ("forget", "erase task 0 from the saved checkpoint and re-evaluate "
                   "every task"),
    ]:
        _add_flags(sub.add_parser(name, help=text))
    return parser


def assemble_config(args: argparse.Namespace) -> bench.ExperimentConfig:
    mapping = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                mapping = bench.parse_config_mapping(fh.read())
        except FileNotFoundError:
            raise UsageError(f"config file not found: {args.config}") from None
        except UnicodeDecodeError:
            raise UsageError(f"config file is not UTF-8 text: {args.config}") from None
    cfg = bench.config_from_mapping(mapping)
    overrides = {name: getattr(args, name) for name in _FLAG_FIELDS
                 if getattr(args, name) is not None}
    return replace(cfg, experiment=args.experiment, **overrides)


def _run_toy(cfg: bench.ExperimentConfig) -> None:
    outcomes = bench.run_toy(cfg)
    paths = bench.emit_toy(cfg, outcomes)
    for line in bench.toy_summary_lines(bench.toy_summary(outcomes)):
        print(line)
    print(f"wrote {paths['metrics']} and {paths['summary']}")


def _run_continual(cfg: bench.ExperimentConfig) -> None:
    model, _tasks, matrix = bench.run_continual(cfg)
    paths = bench.emit_continual(cfg, model, matrix)
    for line in matrix.markdown_lines():
        print(line)
    print(f"wrote {paths['csv']}, {paths['markdown']}, {paths['checkpoint']}")


def _run_forget(cfg: bench.ExperimentConfig) -> None:
    row, report, _stored = bench.run_forget(cfg)
    paths = bench.emit_forget(cfg, row, report)
    for line in bench.forget_markdown_lines(row):
        print(line)
    for line in report.lines():
        print(line)
    print(f"wrote {paths['csv']}, {paths['markdown']}, {paths['report']}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = assemble_config(args)
        if args.print_config:
            print(bench.config_to_text(cfg), end="")
            return 0
        if cfg.experiment == "toy-init":
            _run_toy(cfg)
        elif cfg.experiment == "continual":
            _run_continual(cfg)
        else:
            _run_forget(cfg)
        return 0
    except (UsageError, StateError, ShapeError, OSError) as exc:
        print(f"taskgate: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
