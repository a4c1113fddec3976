"""Magnitude pruning: per-tensor masks, a cubic sparsity ramp, and
mask-enforced fine-tuning.  Biases are never pruned.

A fine-tune can start at a later epoch from the model an earlier run of its
first epochs left; the sweep trains the first epoch once for every row whose
ramp starts at the same sparsity, and each row goes on from there.
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


def epoch_sparsity(target: float, epoch: int, epochs: int) -> float:
    """The sparsity epoch ``epoch`` of an ``epochs``-epoch fine-tune to
    ``target`` trains at: the cubic ramp s_f + (s_i - s_f) * (1 - t/T)^3 of
    Zhu & Gupta (arXiv:1710.01878) from s_i = min(0.5, target) to s_f =
    target over T = epochs - 1 steps (an epoch each).  A one-epoch fine-tune
    has no ramp: it trains at the target."""
    if not 0 <= target < 1:
        raise ValueError(f"target must lie in [0, 1), got {target}")
    if not 0 <= epoch < epochs:
        raise ValueError(f"epoch {epoch} outside [0, {epochs})")
    if epochs == 1:
        return target
    frac = 1.0 - epoch / (epochs - 1)
    return target + (min(0.5, target) - target) * frac ** 3


def prune_and_finetune(model: Model, data: DatasetSplit, cfg: TrainConfig,
                       target_sparsity: float, *,
                       epochs: range | None = None) -> tuple[Model, PruneMask]:
    """Gradually prune to ``target_sparsity`` while fine-tuning.

    The mask is recomputed from current weight magnitudes at the start of
    each epoch, following the cubic ramp from min(0.5, target) down to the
    target over epochs-1 steps; the final epoch trains at the target, so the
    returned model carries exactly the target sparsity.  Runs the same epoch
    loop as ``nncore.train`` (validation split, learning-rate decay,
    divergence reporting, per-epoch logging that names the target) on a
    fine-tune-specific shuffle stream, so results are bit-deterministic.

    ``epochs`` runs only those epochs of the ``cfg.epochs`` (absolute
    indices; default all).  With ``epochs=range(k, cfg.epochs)``, ``model``
    must be the model after epochs 0..k-1 of a fine-tune with the same data
    and config; the result is then that whole fine-tune's, bit for bit.  For
    k = 1 the earlier fine-tune's target may be any whose ramp starts at the
    same sparsity (``epoch_sparsity(target, 0, cfg.epochs)``): the first
    epoch trains at the ramp's start whatever the target.
    """
    if not 0 <= target_sparsity < 1:
        raise ValueError(f"target_sparsity must lie in [0, 1), got {target_sparsity}")

    def epoch_mask(model: Model, epoch: int) -> PruneMask:
        return build_mask(model.params, epoch_sparsity(target_sparsity, epoch, cfg.epochs))

    return nncore._run_epochs(model, data, cfg, _FINETUNE_STREAM, epoch_mask, target_sparsity,
                              epochs=epochs)
