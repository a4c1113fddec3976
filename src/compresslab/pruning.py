"""Magnitude pruning: per-tensor masks, a cubic sparsity ramp, and
mask-enforced fine-tuning.  Biases are never pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nncore
from .datasets import DatasetSplit
from .nncore import Model, TrainConfig

# stream tag keeping fine-tune shuffles distinct from baseline training (stream 0)
_FINETUNE_STREAM = 1


@dataclass
class PruneMask:
    """Boolean keep-masks per parameter name (True = weight survives)."""

    masks: dict[str, np.ndarray]
    target_sparsity: float

    def apply(self, params: dict[str, np.ndarray]) -> None:
        """Zero the masked-out entries of ``params`` in place."""
        for name, keep in self.masks.items():
            params[name][~keep] = 0.0

    def achieved_sparsity(self) -> float:
        total = sum(m.size for m in self.masks.values())
        zeros = sum(int((~m).sum()) for m in self.masks.values())
        return zeros / total


@dataclass(frozen=True)
class SparsitySchedule:
    """Cubic ramp from initial_sparsity at step 0 to final_sparsity at total_steps."""

    initial_sparsity: float
    final_sparsity: float
    total_steps: int

    def __post_init__(self):
        if not 0 <= self.initial_sparsity < 1 or not 0 <= self.final_sparsity < 1:
            raise ValueError(f"sparsities must lie in [0, 1): {self}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")


def schedule_sparsity(schedule: SparsitySchedule, step: int) -> float:
    """Sparsity at an integer step: s_f + (s_i - s_f) * (1 - t/T)^3."""
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    frac = 1.0 - step / schedule.total_steps
    return schedule.final_sparsity + \
        (schedule.initial_sparsity - schedule.final_sparsity) * frac ** 3


def magnitude_threshold(weights: np.ndarray, sparsity: float) -> np.ndarray:
    """Keep-mask zeroing the floor(sparsity * size) smallest-|w| entries.

    Ties on |w| are broken by ascending flat index, so the mask is unique
    and reproducible; a NaN magnitude sorts after every number.  This is the
    mask of a stable argsort of |w|, found by a partition at k: everything
    below the k-th smallest magnitude goes, then the lowest-index entries
    equal to it until exactly k are gone.
    """
    if not 0 <= sparsity < 1:
        raise ValueError(f"sparsity must lie in [0, 1), got {sparsity}")
    if weights.size == 0:
        raise ValueError("cannot prune an empty tensor")
    k = math.floor(sparsity * weights.size)
    if not k:
        return np.ones(weights.shape, dtype=bool)
    mags = np.abs(weights).reshape(-1)
    kth = np.partition(mags, k - 1)[k - 1]
    if np.isnan(kth):
        tied = np.isnan(mags)
        mask = tied.copy()
    else:
        tied = mags == kth
        mask = ~(mags < kth)  # NaN magnitudes stay
    mask[np.flatnonzero(tied)[:k - (~mask).sum()]] = False
    return mask.reshape(weights.shape)


def build_mask(params: dict[str, np.ndarray], sparsity: float) -> PruneMask:
    """Per-tensor magnitude masks at the given sparsity over the map's
    ``*.weight`` tensors, in its order; biases stay dense."""
    masks = {name: magnitude_threshold(w, sparsity)
             for name, w in params.items() if name.endswith(".weight")}
    return PruneMask(masks=masks, target_sparsity=sparsity)


def prune_and_finetune(model: Model, data: DatasetSplit, cfg: TrainConfig,
                       target_sparsity: float) -> tuple[Model, PruneMask]:
    """Gradually prune to ``target_sparsity`` while fine-tuning.

    The mask is recomputed from current weight magnitudes at the start of
    each epoch, following the cubic ramp from min(0.5, target) down to the
    target over epochs-1 steps; the final epoch trains at the target, so the
    returned model carries exactly the target sparsity.  Runs the same epoch
    loop as ``nncore.train`` (validation split, learning-rate decay,
    divergence reporting, per-epoch logging) on a fine-tune-specific shuffle
    stream, so results are bit-deterministic.
    """
    if not 0 <= target_sparsity < 1:
        raise ValueError(f"target_sparsity must lie in [0, 1), got {target_sparsity}")
    schedule = None
    if cfg.epochs > 1:
        schedule = SparsitySchedule(min(0.5, target_sparsity), target_sparsity, cfg.epochs - 1)

    def epoch_mask(model: Model, epoch: int) -> PruneMask:
        s = target_sparsity if schedule is None else schedule_sparsity(schedule, epoch)
        return build_mask(model.params, s)

    return nncore._run_epochs(model, data, cfg, _FINETUNE_STREAM, epoch_mask)
