"""Minimal deterministic neural-network engine on numpy.

Provides the tensors-as-ndarrays model container, forward/backward passes for
a small set of layer kinds (conv2d, maxpool2x2, flatten, dense, relu),
plain-SGD training, and accuracy evaluation.  The last layer gives the logits;
``forward`` applies the softmax and the loss fuses it with the cross-entropy.
Everything is bit-deterministic on one machine at a fixed BLAS thread count:
given (seed, config, data) two runs produce bit-identical parameters.  Other
thread counts may sum GEMMs in another order and so give other bits.

A conv layer runs as flat 2-D GEMMs over its (N*OH*OW, k*k*C) patch matrix:
one for the output, one for the weight gradient and one per kernel tap for
the input gradient.  The first layer's input gradient, which nothing uses,
is not computed.  Maxpool is the elementwise max of each 2x2 window's four
corners; a tie (-0.0 vs 0.0 included) goes to the first corner in row-major
order, in the output and in the gradient.

The conv kernels, and nothing else, use one private helper thread when more
than one CPU is usable and the GEMM has at least 2**26 multiply-adds (true of
cifar-smallnet's convs at batch 128, not of mnist-cnn's).  In the forward
pass it fills and multiplies the patch rows of the first N // 2 examples
while the calling thread does the rest; in the backward pass it computes the
weight gradient while the calling thread sums the bias gradient and runs the
input-gradient taps.  A row split of a conv GEMM gives the same bits as the
whole GEMM, and each part writes its own arrays, so the bits still depend
only on the machine and the BLAS thread count, not on whether the helper
runs.  Dense GEMMs are never split: their bits change with the number of
rows.
"""

from __future__ import annotations

import logging
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .datasets import DatasetSplit

logger = logging.getLogger(__name__)

# learning rate is cut 10x from this (0-based) epoch onward
LR_DECAY_EPOCH = 9
# examples per forward pass in evaluate_accuracy
_EVAL_BATCH = 128


class ShapeMismatchError(ValueError):
    """A tensor did not have the shape a layer requires."""


class TrainingDivergedError(RuntimeError):
    """The training loss became non-finite."""


def mask_seed(seed: int) -> int:
    """Map an arbitrary int into the uint64 range SeedSequence accepts."""
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def derive_seed(seed: int, *stream: int) -> int:
    """Derive a child seed from (seed, stream...) deterministically."""
    ss = np.random.SeedSequence([mask_seed(seed), *[int(s) for s in stream]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# the conv kernels' helper thread

def _new_helper() -> None:
    """(Re)make the helper; its thread starts on the first submit, not here."""
    global _helper
    _helper = ThreadPoolExecutor(1, thread_name_prefix="nncore-helper")


_new_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_helper)  # a forked child inherits no thread


# A conv GEMM of fewer multiply-adds runs on the calling thread alone.
# mnist-cnn's (9.3M at batch 128) ran no faster with the helper, and on a
# busy machine waiting for it stretched some sweep rounds from 5 to 8-9 s;
# cifar-smallnet's first conv has 340M at batch 128.
_MIN_HELPER_MACS = 1 << 26


def _in_parallel(helper_part: Callable[[], None], own_part: Callable[[], None],
                 macs: int) -> None:
    """Run ``helper_part()`` on the helper thread and ``own_part()`` on this one.

    Returns when both have finished, also when either raises.  With one
    usable CPU, or for a GEMM of fewer than ``_MIN_HELPER_MACS`` multiply-adds,
    both run here, in that order.  The parts write disjoint arrays that the
    caller allocated, so the bits do not depend on where they ran.  The helper
    part allocates no array (a second malloc arena costs resident memory) and
    calls no public function of the package.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if macs < _MIN_HELPER_MACS or (cpus or 1) < 2:
        helper_part()
        own_part()
        return
    job = _helper.submit(helper_part)
    try:
        own_part()
    finally:
        job.result()


# ---------------------------------------------------------------------------
# layers: one table of kinds, and the passes that loop over it

def _conv2d_shape(spec, shape):
    h, w, c = shape
    oh = h + 2 * spec.padding - spec.kernel_size + 1
    ow = w + 2 * spec.padding - spec.kernel_size + 1
    if oh < 1 or ow < 1:
        raise ShapeMismatchError(f"kernel {spec.kernel_size} too large for {shape}")
    return (oh, ow, spec.filters)


def _windows_of(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """(N,H,W,C) -> read-only (N, OH, OW, k, k, C) view of every k x k window."""
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    n, h, w, c = x.shape
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, (n, h - k + 1, w - k + 1, k, k, c), (s0, s1, s2, s1, s2, s3), writeable=False)


def _conv2d_forward(spec, x, w, b):
    """One flat GEMM over the (N*OH*OW, k*k*C) patch matrix, split by rows.

    The helper thread copies the windows of the first N // 2 examples into
    their rows of the patch matrix and multiplies them, this thread the rest.
    A 4-D operand would make numpy run N*OH small GEMMs instead.
    """
    n, (oh, ow, f) = x.shape[0], _conv2d_shape(spec, x.shape[1:])
    w2 = w.reshape(-1, f)
    # y before the short-lived padded input: the other order left ~10 MB more
    # peak RSS in a cifar-smallnet training run (heap fragmentation)
    y = np.empty((n * oh * ow, f), dtype=np.result_type(x, w2))
    windows = _windows_of(x, w.shape[0], spec.padding)
    cols = np.empty(windows.shape, dtype=windows.dtype)
    flat = cols.reshape(n * oh * ow, -1)

    def rows(lo, hi):
        np.copyto(cols[lo:hi], windows[lo:hi])
        r = slice(lo * oh * ow, hi * oh * ow)
        np.matmul(flat[r], w2, out=y[r])
        y[r] += b

    _in_parallel(lambda: rows(0, n // 2), lambda: rows(n // 2, n), flat.size * f)
    return y.reshape(n, oh, ow, f), (flat, x.shape)


def _conv2d_backward(spec, dy, cache, need_dx, w, b):
    """Weight gradient on the helper thread; bias sum and input gradient here.

    The input gradient is col2im one kernel tap at a time, in (i, j) order,
    into a padded dx.
    """
    pad = spec.padding
    cols, (n, h, wd, c) = cache
    _, oh, ow, f = dy.shape
    dy2 = dy.reshape(-1, f)
    dw = np.empty((cols.shape[1], f), dtype=np.result_type(cols, dy2))
    db = np.empty(f, dtype=dy.dtype)
    dx = np.zeros((n, h + 2 * pad, wd + 2 * pad, c), dtype=dy.dtype) if need_dx else None

    def bias_and_input_grads():
        dy.sum(axis=(0, 1, 2), out=db)
        if need_dx:
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    dx[:, i:i + oh, j:j + ow, :] += (dy2 @ w[i, j].T).reshape(n, oh, ow, c)

    _in_parallel(lambda: np.matmul(cols.T, dy2, out=dw), bias_and_input_grads, cols.size * f)
    if need_dx and pad:
        dx = dx[:, pad:-pad, pad:-pad, :]
    return dx, (dw.reshape(w.shape), db)


def _maxpool_shape(spec, shape):
    h, w, c = shape
    if h % 2 or w % 2:
        raise ShapeMismatchError(f"spatial dims must be even, got {shape}")
    return (h // 2, w // 2, c)


def _windows(x):
    """(N,H,W,C) -> (N,H/2,2,W/2,2,C) view; [:, :, r, :, s] is corner (r, s) of each window."""
    n, h, w, c = x.shape
    return x.reshape(n, h // 2, 2, w // 2, 2, c)


def _maxpool_forward(spec, x):
    # np.maximum returns its second operand on a tie, so nesting the earlier
    # corners second makes the first of equal corners (-0.0 vs 0.0 too) win
    win = _windows(x)
    a, b, c, d = (win[:, :, r, :, s] for r in (0, 1) for s in (0, 1))
    y = np.maximum(d, np.maximum(c, np.maximum(b, a)))
    return y, (x, y)


def _maxpool_winners(x, y):
    """Mask shaped like ``_windows(x)`` of the first corner of each window equal to ``y``."""
    hit = _windows(x) == y[:, :, None, :, None, :]
    taken = hit[:, :, 0, :, 0].copy()
    for r, s in (0, 1), (1, 0), (1, 1):
        corner = hit[:, :, r, :, s]
        corner &= ~taken
        taken |= corner
    return hit


def _maxpool_backward(spec, dy, cache, need_dx):
    x, y = cache
    # dy's bits times 0 or 1 give dy exactly at the winner (-0.0 and inf
    # too) and +0.0 elsewhere, without np.where's per-element branch
    bits = np.dtype(f"u{dy.itemsize}")
    dx = dy.view(bits)[:, :, None, :, None, :] * _maxpool_winners(x, y)
    return dx.view(dy.dtype).reshape(x.shape), ()


@dataclass(frozen=True)
class _LayerKind:
    """Everything the engine knows about one layer kind.

    ``forward(spec, x, *params)`` gives (y, cache) and ``backward(spec, dy,
    cache, need_dx, *params)`` gives (dx, param grads); params is (weight,
    bias) for a kind with ``params``, else empty, and so are its grads.  A
    kind may skip dx and give None when ``need_dx`` is false.  The softmax
    is no layer kind: the last layer gives the logits, ``forward`` applies
    the softmax and the loss fuses it.  Errors omit the layer's position.
    """

    forward: Callable
    backward: Callable
    shape: Callable = lambda spec, shape: shape  # (spec, input shape) -> output shape
    rank: int = 0  # the input's number of dims, if fixed
    params: Callable | None = None  # (spec, input shape) -> (weight shape, bias shape)
    valid: Callable = lambda spec: True  # are the hyperparameters usable?


_KINDS: dict[str, _LayerKind] = {
    "conv2d": _LayerKind(
        forward=_conv2d_forward, backward=_conv2d_backward,
        shape=_conv2d_shape, rank=3,
        params=lambda spec, shape: ((spec.kernel_size, spec.kernel_size, shape[2], spec.filters),
                                    (spec.filters,)),
        valid=lambda spec: spec.filters >= 1 and spec.kernel_size >= 1 and spec.padding >= 0),
    "maxpool2x2": _LayerKind(
        forward=_maxpool_forward, backward=_maxpool_backward, shape=_maxpool_shape, rank=3),
    "flatten": _LayerKind(
        forward=lambda spec, x: (x.reshape(x.shape[0], -1), x.shape),
        backward=lambda spec, dy, x_shape, need_dx: (dy.reshape(x_shape), ()),
        shape=lambda spec, shape: (int(np.prod(shape)),)),
    "dense": _LayerKind(
        forward=lambda spec, x, w, b: (x @ w + b, x),
        backward=lambda spec, dy, x, need_dx, w, b: (
            dy @ w.T if need_dx else None, (x.T @ dy, dy.sum(axis=0))),
        shape=lambda spec, shape: (spec.units,), rank=1,
        params=lambda spec, shape: ((shape[0], spec.units), (spec.units,)),
        valid=lambda spec: spec.units >= 1),
    "relu": _LayerKind(
        forward=lambda spec, x: (np.maximum(x, 0), x > 0),
        backward=lambda spec, dy, positive, need_dx: (dy * positive, ())),
}


def _param_names(i: int, spec) -> tuple[str, ...]:
    return (f"{i}.weight", f"{i}.bias") if _KINDS[spec.kind].params else ()


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a feed-forward architecture.

    Only the fields relevant to ``kind`` are meaningful: conv2d uses
    ``filters``/``kernel_size``/``padding``, dense uses ``units``.
    """

    kind: str
    filters: int = 0
    kernel_size: int = 0
    padding: int = 0
    units: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if not _KINDS[self.kind].valid(self):
            raise ValueError(f"invalid {self.kind} hyperparameters: {self}")


@dataclass
class Model:
    """Ordered layers plus their named parameter tensors.

    Parameter names are ``{layer_index}.weight`` / ``{layer_index}.bias``;
    iteration order is ascending layer index with weight before bias.
    """

    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]
    params: dict[str, np.ndarray]

    def param_names(self) -> list[str]:
        return [name for i, spec in enumerate(self.layers) for name in _param_names(i, spec)]

    def copy(self) -> "Model":
        return replace(self, params={k: v.copy() for k, v in self.params.items()})


def infer_shapes(layers: list[LayerSpec], input_shape: tuple) -> list[tuple]:
    """Per-layer output shapes (batch dimension excluded); hard error on mismatch.

    The last layer gives the logits, so its output must be flat.
    """
    shape = tuple(input_shape)
    out = []
    for i, spec in enumerate(layers):
        kind = _KINDS[spec.kind]
        try:
            if kind.rank and len(shape) != kind.rank:
                need = "flat" if kind.rank == 1 else "HxWxC"
                raise ShapeMismatchError(f"needs {need} input, got {shape}")
            shape = kind.shape(spec, shape)
        except ShapeMismatchError as e:
            raise ShapeMismatchError(f"layer {i} ({spec.kind}): {e}") from None
        out.append(shape)
    if len(shape) != 1:
        raise ShapeMismatchError(f"the last layer must give flat logits, got {shape}")
    return out


def parameter_shapes(layers: list[LayerSpec], input_shape: tuple) -> dict[str, tuple]:
    """Map parameter name -> shape in canonical iteration order."""
    in_shapes = [tuple(input_shape), *infer_shapes(layers, input_shape)]
    shapes = {}
    for i, spec in enumerate(layers):
        names = _param_names(i, spec)
        if names:
            shapes.update(zip(names, _KINDS[spec.kind].params(spec, in_shapes[i])))
    return shapes


def _logits(model: Model, batch: np.ndarray, caches: list | None = None) -> np.ndarray:
    """Run every layer and return the logits.

    The architecture and the parameter shapes are checked once, up front, so
    the kernels themselves check nothing.  Each layer's backward cache is
    appended to ``caches`` when a list is given; otherwise it is dropped as
    soon as its layer returns.
    """
    for name, shape in parameter_shapes(model.layers, model.input_shape).items():
        if model.params[name].shape != shape:
            raise ShapeMismatchError(
                f"parameter {name} has shape {model.params[name].shape}, layers need {shape}")
    x = np.asarray(batch)
    if x.ndim != len(model.input_shape) + 1 or tuple(x.shape[1:]) != tuple(model.input_shape):
        raise ShapeMismatchError(
            f"model input: batch shape {x.shape} does not match "
            f"(N, {', '.join(map(str, model.input_shape))})")
    for i, spec in enumerate(model.layers):
        x, cache = _KINDS[spec.kind].forward(
            spec, x, *[model.params[name] for name in _param_names(i, spec)])
        if caches is not None:
            caches.append(cache)
        del cache  # so no cache lives on while the next layer runs
    return x


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: Model, batch: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch; rows are non-negative and sum to 1.
    A row's last bits can change with the batch's row count (dense GEMMs)."""
    return _softmax(_logits(model, batch))


def loss_and_grad(model: Model, batch: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy loss and gradients keyed like ``model.params``.

    Softmax and cross-entropy are fused for the backward pass, so the
    gradient at the logits is (probs - onehot) / N.
    """
    labels = np.asarray(labels)
    caches = []
    logits = _logits(model, batch, caches)
    n, num_classes = logits.shape
    if labels.shape != (n,):
        raise ShapeMismatchError(f"labels shape {labels.shape} does not match batch size {n}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    # stable cross-entropy straight from logits
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    if not math.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss}")

    dy = _softmax(logits)
    dy[np.arange(n), labels] -= 1.0
    dy /= n
    grads = {}
    for i in range(len(model.layers) - 1, -1, -1):
        spec = model.layers[i]
        names = _param_names(i, spec)
        # nothing uses the gradient at the model input, so layer 0 needs no dx
        dy, layer_grads = _KINDS[spec.kind].backward(
            spec, dy, caches.pop(), i > 0, *[model.params[name] for name in names])
        grads.update(zip(names, layer_grads))
    return loss, {name: grads[name] for name in model.param_names()}


# ---------------------------------------------------------------------------
# architectures

ARCHITECTURES: dict[str, tuple[tuple[int, int, int], list[LayerSpec]]] = {
    # ~20,410 parameters; reaches ~98% on MNIST with the default recipe
    "mnist-cnn": ((28, 28, 1), [
        LayerSpec("conv2d", filters=12, kernel_size=3),
        LayerSpec("relu"),
        LayerSpec("maxpool2x2"),
        LayerSpec("flatten"),
        LayerSpec("dense", units=10),
    ]),
    # scaled-down CIFAR-10 convnet, ~292K parameters
    "cifar-smallnet": ((32, 32, 3), [
        LayerSpec("conv2d", filters=96, kernel_size=3, padding=1),
        LayerSpec("relu"),
        LayerSpec("maxpool2x2"),
        LayerSpec("conv2d", filters=192, kernel_size=3, padding=1),
        LayerSpec("relu"),
        LayerSpec("maxpool2x2"),
        LayerSpec("flatten"),
        LayerSpec("dense", units=10),
    ]),
}


def build_model(arch: str, seed: int = 0) -> Model:
    """Fresh model with Glorot-uniform weights and zero biases, seeded."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; choose from {sorted(ARCHITECTURES)}")
    input_shape, layers = ARCHITECTURES[arch]
    rng = np.random.default_rng(np.random.SeedSequence([mask_seed(seed)]))
    params = {}
    for name, shape in parameter_shapes(layers, input_shape).items():
        if name.endswith(".bias"):
            params[name] = np.zeros(shape, dtype=np.float32)
            continue
        # conv kernels are (k, k, cin, f), dense weights (in, out)
        receptive = math.prod(shape[:-2])
        fan_in, fan_out = receptive * shape[-2], receptive * shape[-1]
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params[name] = rng.uniform(-limit, limit, size=shape).astype(np.float32)
    return Model(layers=list(layers), input_shape=input_shape, params=params)


def model_from_params(params: dict[str, np.ndarray]) -> Model:
    """The architecture ``infer_architecture`` finds for ``params``, holding
    them as contiguous float32 arrays in canonical order."""
    input_shape, layers = ARCHITECTURES[infer_architecture(params)]
    ordered = {name: np.ascontiguousarray(params[name], dtype=np.float32)
               for name in parameter_shapes(layers, input_shape)}
    return Model(layers=list(layers), input_shape=input_shape, params=ordered)


def infer_architecture(params: dict) -> str:
    """Find the registered architecture whose parameter names/shapes match."""
    shapes = {name: tuple(arr.shape) for name, arr in params.items()}
    for arch, (input_shape, layers) in ARCHITECTURES.items():
        if parameter_shapes(layers, input_shape) == shapes:
            return arch
    raise ShapeMismatchError("parameter map does not match any registered architecture")


# ---------------------------------------------------------------------------
# training

@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    val_split: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.val_split < 1:
            raise ValueError(f"val_split must be in [0, 1), got {self.val_split}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")

    def validate(self, num_examples: int) -> None:
        """The checks that need the example count; the rest ran when it was built."""
        if self.batch_size > num_examples:
            raise ValueError(
                f"batch_size must be in (0, {num_examples}], got {self.batch_size}")
        if round(self.val_split * num_examples) >= num_examples:  # split_train_val's count
            raise ValueError(f"val_split {self.val_split} holds out all {num_examples} examples")


def split_train_val(data: DatasetSplit, fraction: float, seed: int):
    """Disjoint, exhaustive (train, val) split; |val| = round(fraction * N)."""
    if not 0 <= fraction < 1:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    n = len(data)
    n_val = int(round(fraction * n))
    rng = np.random.default_rng(np.random.SeedSequence([mask_seed(seed)]))
    perm = rng.permutation(n)
    return data.subset(perm[n_val:]), data.subset(perm[:n_val])


def epoch_learning_rate(base_lr: float, epoch: int) -> float:
    """Step schedule: 10x decay from epoch LR_DECAY_EPOCH onward."""
    return base_lr * (0.1 if epoch >= LR_DECAY_EPOCH else 1.0)


def _run_epochs(model: Model, data: DatasetSplit, cfg: TrainConfig, stream: int,
                epoch_mask: Callable):
    """The one epoch loop, behind both ``train`` and ``pruning.prune_and_finetune``.

    SGD-trains a copy of ``model`` on all but the ``cfg.val_split`` held-out
    share of ``data``.  Epoch ``e`` runs at ``epoch_learning_rate`` and
    shuffles with ``derive_seed(cfg.seed, stream, e)``.  ``epoch_mask(model,
    e)`` gives that epoch's mask or None; a mask is applied at the start of
    the epoch and after every optimizer step, so its weights stay exactly
    0.0.  Returns the trained copy and the last epoch's mask.
    """
    cfg.validate(len(data))
    model = model.copy()
    train_split, val_split = split_train_val(data, cfg.val_split, cfg.seed)
    images, labels = train_split.images, train_split.labels
    mask = None
    for epoch in range(cfg.epochs):
        mask = epoch_mask(model, epoch)
        if mask is not None:
            mask.apply(model.params)
        lr = epoch_learning_rate(cfg.learning_rate, epoch)
        seed = derive_seed(cfg.seed, stream, epoch)
        order = np.random.default_rng(np.random.SeedSequence([seed])).permutation(len(images))
        losses = []
        for bi, start in enumerate(range(0, len(images), cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            try:
                loss, grads = loss_and_grad(model, images[idx], labels[idx])
            except TrainingDivergedError as e:
                raise TrainingDivergedError(f"epoch {epoch}: batch {bi}: {e}") from None
            for name, grad in grads.items():
                model.params[name] -= (lr * grad).astype(model.params[name].dtype, copy=False)
            if mask is not None:
                mask.apply(model.params)
            losses.append(loss)
        sparsity = "" if mask is None else f"sparsity {mask.target_sparsity:.4f}, "
        val = f", val acc {evaluate_accuracy(model, val_split):.2f}%" if len(val_split) else ""
        logger.info("epoch %d/%d: %sloss %.4f%s",
                    epoch + 1, cfg.epochs, sparsity, float(np.mean(losses)), val)
    return model, mask


def train(model: Model, data: DatasetSplit, cfg: TrainConfig) -> Model:
    """SGD-train a copy of ``model``; bit-deterministic given (seed, data, cfg)
    on one machine at a fixed BLAS thread count.

    ``cfg.val_split`` of the data is held out (never trained on) and its
    accuracy is logged once per epoch.  Shares its epoch loop with
    ``pruning.prune_and_finetune``, the one masked path; baseline training
    shuffles on stream 0.
    """
    return _run_epochs(model, data, cfg, 0, lambda model, epoch: None)[0]


def evaluate_accuracy(model: Model, data: DatasetSplit) -> float:
    """Percent of argmax-correct predictions; argmax ties go to the lowest class.
    Each ``forward`` call gets ``_EVAL_BATCH`` rows, the last batch padded with
    zero rows whose outputs are dropped, so no example's bits depend on ``n``."""
    n = len(data)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    for start in range(0, n, _EVAL_BATCH):
        images = data.images[start:start + _EVAL_BATCH]
        pad = _EVAL_BATCH - len(images)
        if pad:
            images = np.pad(images, [(0, pad)] + [(0, 0)] * (images.ndim - 1))
        probs = forward(model, images)[:_EVAL_BATCH - pad]
        correct += int((probs.argmax(axis=1) == data.labels[start:start + _EVAL_BATCH]).sum())
    return 100.0 * correct / n
