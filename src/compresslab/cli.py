"""Command-line interface.

Subcommands: train, prune, quantize, evaluate, size, sweep, report.
Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags,
missing input files, malformed config).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from . import metrics, nncore, quantization, sizing, sweep
from .nncore import Model
from .pruning import prune_and_finetune

logger = logging.getLogger(__name__)

_SIZE_ACC_COLUMNS = [c for c in metrics.CSV_COLUMNS if c != "quality"]
_QUALITY_COLUMNS = ["sparsity", "precision_bits", "quality", "flag"]


class UsageError(Exception):
    """A config or flag value that no run could use; ``main`` exits 2."""


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, choices=sorted(sweep.DATASET_ARCHS))
    p.add_argument("--data-dir", required=True, help="directory holding the dataset files")


def _add_train_args(p: argparse.ArgumentParser, learning_rate_field: str) -> None:
    """Training flags that fill SweepConfig fields; an unset one keeps the reference default."""
    unset = argparse.SUPPRESS
    p.add_argument("--epochs", type=int, default=unset)
    p.add_argument("--batch-size", type=int, default=unset)
    p.add_argument("--learning-rate", type=float, dest=learning_rate_field, default=unset)
    p.add_argument("--val-split", type=float, default=unset)
    p.add_argument("--seed", type=int, default=unset)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compresslab",
        description="Train small CNNs, prune and quantize them, and measure "
                    "the compressed sizes.")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a baseline model and save the artifact")
    _add_dataset_args(p)
    _add_train_args(p, "learning_rate")
    p.add_argument("--out", required=True, help="artifact path (.gz gets gzipped)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="magnitude-prune an artifact with fine-tuning")
    p.add_argument("--in", dest="input", required=True, help="input artifact")
    p.add_argument("--out", required=True)
    p.add_argument("--target-sparsity", type=float, required=True)
    _add_dataset_args(p)
    _add_train_args(p, "finetune_learning_rate")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("quantize", help="quantize an artifact's weight tensors")
    p.add_argument("--in", dest="input", required=True, help="input artifact (float32)")
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, required=True, choices=(8, 16))
    p.add_argument("--mode", default=quantization.INT8_MODES[0],
                   choices=quantization.INT8_MODES,
                   help="int8 grid placement (ignored for 16-bit)")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("evaluate", help="print an artifact's test-split accuracy in percent")
    p.add_argument("--in", dest="input", required=True)
    _add_dataset_args(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("size", help="print an artifact's gzipped byte count")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_size)

    p = sub.add_parser("sweep", help="run the full sparsity x precision grid from a config")
    p.add_argument("--config", required=True, help="flat key = value config file")
    p.add_argument("--out-dir", default=argparse.SUPPRESS, help="overrides the config's out_dir")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="render a results CSV as tables")
    p.add_argument("--csv", required=True, help="results.csv from a sweep")
    p.add_argument("--format", default="markdown", choices=("markdown", "csv"))
    p.set_defaults(func=cmd_report)
    return parser


def _load_dataset(args):
    return sweep.DATASET_LOADERS[args.dataset](args.data_dir)


def _sweep_config(args) -> sweep.SweepConfig:
    """The sweep config file, or SweepConfig's defaults, overridden by the flags set."""
    fields = {f.name for f in dataclasses.fields(sweep.SweepConfig)}
    flags = {k: v for k, v in vars(args).items() if k in fields}
    try:
        if args.command == "sweep":
            return dataclasses.replace(sweep.parse_config(args.config), **flags)
        return sweep.SweepConfig(**flags)
    except ValueError as e:
        raise UsageError(e) from None


def _model_from_artifact(path: str) -> Model:
    """Load an artifact, dequantized, as the Model its tensor shapes identify."""
    return nncore.model_from_params(quantization.dequantize_params(sizing.load_artifact(path)))


def cmd_train(args) -> int:
    cfg = _sweep_config(args)
    train_data, _ = _load_dataset(args)
    model = nncore.train(nncore.build_model(cfg.arch, cfg.seed), train_data,
                         cfg.train_config())
    sizing.save_artifact(args.out, model.params)
    logger.info("wrote %s", args.out)
    return 0


def cmd_prune(args) -> int:
    cfg = _sweep_config(args)
    if not 0 <= args.target_sparsity < 1:
        raise UsageError(f"target_sparsity must lie in [0, 1), got {args.target_sparsity}")
    model = _model_from_artifact(args.input)
    train_data, _ = _load_dataset(args)
    pruned, mask = prune_and_finetune(model, train_data, cfg.finetune_config(),
                                      args.target_sparsity)
    sizing.save_artifact(args.out, pruned.params)
    logger.info("wrote %s (sparsity %.4f)", args.out, mask.achieved_sparsity())
    return 0


def cmd_quantize(args) -> int:
    qmap = quantization.quantize_params(sizing.load_artifact(args.input), args.bits,
                                        args.mode)
    sizing.save_artifact(args.out, qmap)
    logger.info("wrote %s", args.out)
    return 0


def cmd_evaluate(args) -> int:
    model = _model_from_artifact(args.input)
    _, test_data = _load_dataset(args)
    print(f"{nncore.evaluate_accuracy(model, test_data):.6f}")
    return 0


def cmd_size(args) -> int:
    tensors = sizing.load_artifact(args.input)
    print(sizing.gzipped_size(sizing.serialize_model(tensors)))
    return 0


def cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    _, failures = sweep.run_sweep(cfg)  # run_sweep logs each failed cell
    print(os.path.join(cfg.out_dir, sweep.RESULTS_CSV))
    return 1 if failures else 0


def _render_table(rows: list[dict[str, str]], columns: list[str], title: str,
                  fmt: str) -> str:
    cells = [columns] + [[row[c] for c in columns] for row in rows]
    if fmt == "csv":
        return "\n".join([f"# {title}"] + [",".join(line) for line in cells])
    lines = [f"## {title}"] + ["| " + " | ".join(line) + " |" for line in cells]
    lines.insert(2, "|" + "|".join(" --- " for _ in columns) + "|")
    return "\n".join(lines)


def cmd_report(args) -> int:
    with open(args.csv) as f:
        records = metrics.records_from_csv(f.read())
    rows = metrics.build_report_table(records)
    print(_render_table(rows, _SIZE_ACC_COLUMNS, "size-accuracy", args.format))
    print()
    print(_render_table(rows, _QUALITY_COLUMNS, "quality", args.format))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(message)s",
                        level=logging.WARNING if args.quiet else logging.INFO)
    try:
        out_dir = os.path.dirname(getattr(args, "out", ""))
        if out_dir and not os.path.isdir(out_dir):  # found before any work is done
            raise UsageError(f"output directory {out_dir} does not exist")
        return args.func(args)
    except (FileNotFoundError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
