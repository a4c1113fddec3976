"""Full compression sweeps: train a baseline, then walk the
sparsity x precision grid, writing one artifact per cell plus a results CSV.

Config files are flat ``key = value`` text; see parse_config.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, replace

from . import datasets, metrics, nncore, pruning, quantization, sizing
from .metrics import CompressionRecord, _fmt_sparsity
from .nncore import TrainConfig

logger = logging.getLogger(__name__)

DATASET_ARCHS = {"mnist": "mnist-cnn", "cifar10": "cifar-smallnet"}
DATASET_LOADERS = {"mnist": datasets.load_mnist, "cifar10": datasets.load_cifar10}

DEFAULT_SPARSITY_GRID = (0.0, 0.5, 0.75, 0.9, 0.95, 0.99)
DEFAULT_PRECISION_GRID = (32, 16, 8)

RESULTS_CSV = "results.csv"
FAILURES_LOG = "failures.log"


@dataclass
class SweepConfig:
    dataset: str
    data_dir: str
    epochs: int = 12
    batch_size: int = 128
    learning_rate: float = 0.1
    finetune_learning_rate: float = 0.02
    val_split: float = 0.3
    seed: int = 0
    sparsity_grid: tuple = DEFAULT_SPARSITY_GRID
    precision_grid: tuple = DEFAULT_PRECISION_GRID
    int8_mode: str = quantization.INT8_MODES[0]
    out_dir: str = "sweep-out"

    def __post_init__(self):
        if self.dataset not in DATASET_ARCHS:
            raise ValueError(f"dataset must be one of {sorted(DATASET_ARCHS)}, "
                             f"got {self.dataset!r}")
        if self.int8_mode not in quantization.INT8_MODES:
            raise ValueError(f"int8_mode must be {' or '.join(quantization.INT8_MODES)}, "
                             f"got {self.int8_mode!r}")
        sparsities = tuple(sorted(set(float(s) for s in self.sparsity_grid)))
        if not sparsities or any(not 0 <= s < 1 for s in sparsities):
            raise ValueError(f"sparsity_grid values must lie in [0, 1): {self.sparsity_grid}")
        for s in sparsities:  # results.csv and artifact names write at most 4 decimals
            if float(_fmt_sparsity(s)) != s:
                raise ValueError(f"sparsity_grid value {s} has more than four decimals")
        if 0.0 not in sparsities:
            raise ValueError("sparsity_grid must contain 0 (the baseline cell)")
        bits = tuple(sorted(set(int(b) for b in self.precision_grid), reverse=True))
        if not bits or any(b not in quantization.VALID_BITS for b in bits):
            raise ValueError(f"precision_grid values must be in {quantization.VALID_BITS}: "
                             f"{self.precision_grid}")
        if 32 not in bits:
            raise ValueError("precision_grid must contain 32 (the baseline cell)")
        self.sparsity_grid = sparsities
        self.precision_grid = bits
        self.train_config()  # TrainConfig checks the protocol when it is built
        try:
            self.finetune_config()
        except ValueError:  # train_config passed, so only the fine-tune rate is at fault
            raise ValueError("finetune_learning_rate must be positive, "
                             f"got {self.finetune_learning_rate}") from None

    @property
    def arch(self) -> str:
        """The dataset decides the architecture: its images fit no other."""
        return DATASET_ARCHS[self.dataset]

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size,
                           learning_rate=self.learning_rate, val_split=self.val_split,
                           seed=self.seed)

    def finetune_config(self) -> TrainConfig:
        return replace(self.train_config(), learning_rate=self.finetune_learning_rate)


_CONFIG_PARSERS = {
    "dataset": str, "data_dir": str, "int8_mode": str, "out_dir": str,
    "epochs": int, "batch_size": int, "seed": int,
    "learning_rate": float, "finetune_learning_rate": float, "val_split": float,
    "sparsity_grid": lambda v: tuple(float(x) for x in v.split(",") if x.strip()),
    "precision_grid": lambda v: tuple(int(x) for x in v.split(",") if x.strip()),
}


def parse_config(path: str) -> SweepConfig:
    """Read a flat ``key = value`` config file (# starts a comment)."""
    raw: dict[str, object] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} "
                                 f"(valid: {sorted(_CONFIG_PARSERS)})")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                raw[key] = _CONFIG_PARSERS[key](value)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {e}") from None
    for required in ("dataset", "data_dir"):
        if required not in raw:
            raise ValueError(f"{path}: missing required key {required!r}")
    return SweepConfig(**raw)


def artifact_name(arch: str, dataset: str, sparsity: float, bits: int) -> str:
    return f"{arch}_{dataset}_s{_fmt_sparsity(sparsity)}_p{bits}.mcmp.gz"


def run_sweep(cfg: SweepConfig):
    """Train the baseline, walk the grid, save artifacts and the results CSV
    in ``cfg.out_dir``.  A cell is scored on the model rebuilt from its stored
    tensors, as ``compresslab evaluate`` rebuilds it from the artifact.

    Returns (records, failures) where failures is a list of
    (sparsity, bits, error string).  Identical configs produce byte-identical
    CSVs; a failed cell is logged and skipped, never silently patched over,
    except the baseline cell (0, 32), whose error is raised.
    """
    train_data, test_data = DATASET_LOADERS[cfg.dataset](cfg.data_dir)
    os.makedirs(cfg.out_dir, exist_ok=True)

    logger.info("training %s baseline on %s (%d examples)",
                cfg.arch, cfg.dataset, len(train_data))
    baseline = nncore.train(nncore.build_model(cfg.arch, cfg.seed), train_data,
                            cfg.train_config())

    records: list[CompressionRecord] = []
    failures: list[tuple[float, int, str]] = []

    def fail(s: float, bits: int, e: Exception) -> None:
        err = f"{type(e).__name__}: {e}"
        logger.warning("cell s=%s p=%d failed: %s", _fmt_sparsity(s), bits, err)
        failures.append((s, bits, err))

    # one row per sparsity; config validation puts the baseline cell (0, 32) first
    for s in cfg.sparsity_grid:
        model = baseline
        if s > 0.0:
            logger.info("pruning to sparsity %s", _fmt_sparsity(s))
            try:
                model, _ = pruning.prune_and_finetune(baseline, train_data,
                                                      cfg.finetune_config(), s)
            except Exception as e:
                for bits in cfg.precision_grid:
                    fail(s, bits, e)
                continue
        for bits in cfg.precision_grid:
            try:
                payload = quantization.quantize_params(model.params, bits, cfg.int8_mode)
                path = os.path.join(cfg.out_dir, artifact_name(cfg.arch, cfg.dataset, s, bits))
                size = sizing.save_artifact(path, payload)
                stored = nncore.model_from_params(quantization.dequantize_params(payload))
                acc = nncore.evaluate_accuracy(stored, test_data)
                scores = {}  # the baseline is its own reference point
                if s == 0.0 and bits == 32:
                    base_size, base_acc = size, acc
                else:
                    delta = metrics.accuracy_delta(acc, base_acc)
                    reduction = sizing.reduction_factor(base_size, size)
                    scores = {"reduction_factor": reduction, "delta_acc_pp": delta,
                              "quality": metrics.quality_metric(s, bits, reduction, delta)}
                records.append(CompressionRecord(
                    sparsity=s, precision_bits=bits,
                    int8_mode=cfg.int8_mode if bits == 8 else None,
                    size_bytes=size, accuracy_pct=acc, **scores))
                logger.info("cell s=%s p=%d: %d bytes, %.2f%% accuracy",
                            _fmt_sparsity(s), bits, size, acc)
            except Exception as e:
                if s == 0.0 and bits == 32:
                    raise  # every other cell is scored against the baseline
                fail(s, bits, e)

    csv_text = metrics.records_to_csv(records)
    with open(os.path.join(cfg.out_dir, RESULTS_CSV), "w") as f:
        f.write(csv_text)
    if failures:
        with open(os.path.join(cfg.out_dir, FAILURES_LOG), "w") as f:
            for s, bits, err in failures:
                f.write(f"s={_fmt_sparsity(s)} p={bits}: {err}\n")
    return records, failures
