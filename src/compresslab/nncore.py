"""Minimal deterministic neural-network engine on numpy.

Provides the tensors-as-ndarrays model container, forward/backward passes for
a small set of layer kinds (conv2d, maxpool2x2, flatten, dense, relu),
plain-SGD training, and accuracy evaluation.  The last layer gives the logits;
``forward`` applies the softmax and the loss fuses it with the cross-entropy.
Everything is bit-deterministic on one machine: given (seed, config, data)
two runs produce bit-identical parameters.  With numpy's bundled OpenBLAS the
bits do not depend on the caller's BLAS thread count either: every GEMM runs
inside ``forward`` or ``loss_and_grad``, both pin one BLAS thread, and the
sweep's lane pass pins around both lanes.  With another BLAS, another thread
count may sum GEMMs in another order and so give other bits.
Training gathers each batch from the data by index, so it copies no split.

A conv layer runs as flat 2-D GEMMs over its (N*OH*OW, k*k*C) patch matrix:
one for the output, one for the weight gradient and one per kernel tap for
the input gradient.  The first layer's input gradient, which nothing uses,
is not computed.  A one-channel input's patch matrix is stored tap-major (as
its transpose), so its fill copies whole image rows and BLAS reads it
transposed; the conv bias is added over each example's whole output row.
Both give the bits of the cell-major matrix and the per-pixel add.  Maxpool
is the elementwise max of each 2x2 window's four corners; a tie (-0.0 vs 0.0
included) goes to the first corner in row-major order, in the output and in
the gradient, which it routes by a one-byte winner index per output kept
instead of its input.  Every conv block runs conv -> maxpool -> relu: relu
commutes with a max, so the outputs and parameter gradients are those of
conv -> relu -> maxpool, with relu on a quarter of the elements.

The conv and maxpool kernels, and nothing else, use one private helper
thread when more than one CPU is usable and fewer than two sweep lanes are
taking rows (the table ``_lanes``, below): so in ``train``,
``prune_and_finetune`` and ``evaluate_accuracy`` outside a sweep, in a
sweep's baseline training, its shared first fine-tune epochs and its
one-lane phases, never while two lanes run.  In the forward pass the helper
fills and multiplies the patch rows, or pools the windows, of the first
N // 2 examples while the calling thread does the rest; in the backward
pass it computes the conv weight gradient while the calling thread sums the
bias gradient and runs the input-gradient taps, and routes the first N // 2
examples' pool gradient.  A row split of a conv GEMM gives the same bits
as the whole GEMM, maxpool works per example, and each part writes its own
rows of arrays the calling thread allocated, so the bits still depend only
on the machine and the BLAS thread count, not on whether the helper runs.
Dense GEMMs are never split: their bits change with the number of rows.

The sweep's lanes (``_on_two_lanes``) keep one table, ``_lanes``: each lane
thread's id maps to its run's error list while that lane takes items.  The
helper takes a kernel part only while the table holds fewer than two lanes,
so the second CPU has one owner; and a lane whose run has an error stops at
its next training batch or cell (``_check_stop``).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import logging
import math
import os
import threading
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
# the conv and maxpool kernels' helper thread

def _new_helper() -> None:
    """(Re)make the helper; its thread starts on the first submit, not here."""
    global _helper
    _helper = ThreadPoolExecutor(1, thread_name_prefix="nncore-helper")


_new_helper()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_helper)  # a forked child inherits no thread


# thread id of each sweep lane now taking items -> its run's error list
_lanes: dict[int, list] = {}
_lanes_lock = threading.Lock()


def _cpus() -> int:
    return len(getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0))


def _in_parallel(helper_part: Callable[[], None], own_part: Callable[[], None]) -> None:
    """Run ``helper_part()`` on the helper thread and ``own_part()`` on this one.

    Returns when both have finished, also when either raises.  With one
    usable CPU, or while two sweep lanes run, both run here, in that order.
    The parts write disjoint arrays, or disjoint rows of one, that the caller
    allocated, so the bits do not depend on where they ran.  The helper part
    creates no array, since a second malloc arena costs resident memory: it
    writes with ``out=`` and runs no ufunc that casts.  All it takes is
    numpy's iteration buffers, 8192 elements per strided operand, freed
    before it returns.  It calls no public function of the package.
    """
    cpus = _cpus()
    with _lanes_lock:  # so no part is handed over once a second lane has listed itself
        job = _helper.submit(helper_part) if cpus > 1 and len(_lanes) < 2 else None
    if job is None:
        helper_part()
        own_part()
        return
    try:
        own_part()
    finally:
        job.result()


def _check_stop() -> None:
    """Raise KeyboardInterrupt if this thread is a sweep lane whose run has an error."""
    if _lanes.get(threading.get_ident()):
        raise KeyboardInterrupt


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS thread-count (get, set) functions, or None;
    looked up once per process."""
    found = glob.glob(f"{np.__path__[0]}.libs/libscipy_openblas64_*.so")
    lib = ctypes.CDLL(found[0]) if len(found) == 1 else None  # two: cannot tell which numpy uses
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_threads is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get, set_threads


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS (if found) on one thread, then restore.

    It wraps the two calls every GEMM runs inside, ``forward`` and
    ``loss_and_grad``, and the sweep's lane pass, ``_on_two_lanes``: without
    that outer pin one lane's pin could give the caller's count back while
    the other lane runs BLAS.  A count already at 1 is not set at all, so a
    pin inside another calls no setter while another thread runs BLAS."""
    blas = _openblas()
    count = blas[0]() if blas else 1
    if count != 1:
        blas[1](1)
    try:
        yield
    finally:
        if count != 1:
            blas[1](count)


@_one_blas_thread()
def _on_two_lanes(fn, items: list) -> list:
    """``[fn(x) for x in items]``, taken in order by this thread and a worker.

    An exception escaping ``fn`` stops both from taking more and is raised once
    the worker has ended; it also ends the other lane's item, at its next
    training batch or cell, since each lane is listed in ``_lanes`` with the
    run's error list.  An interrupt while this thread waits for the worker
    does the same, and a further interrupt does not wait for it."""
    results, todo, lock, raised = {}, iter(enumerate(items)), threading.Lock(), []
    ended = threading.Event()  # set as the worker's lane ends; not join: an interrupt can spoil it

    def take():
        with lock:
            return None if raised else next(todo, None)

    def lane(done: threading.Event):
        with _lanes_lock:
            _lanes[threading.get_ident()] = raised
        try:
            for i, x in iter(take, None):
                results[i] = fn(x)
        except BaseException as e:
            raised.append(e)
        finally:
            with _lanes_lock:
                del _lanes[threading.get_ident()]
            done.set()

    worker = threading.Thread(target=lane, args=(ended,), name="compresslab-sweep-lane")
    worker.start()
    lane(threading.Event())
    while not ended.is_set():
        try:
            ended.wait()
        except BaseException as e:  # an interrupt while waiting; a later one does not wait
            if raised:
                raise
            raised.append(e)
    worker.join()  # only the end of its thread is left
    if raised:
        raise raised[0]
    return [results[i] for i in range(len(items))]


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
    return np.lib.stride_tricks.sliding_window_view(x, (k, k), (1, 2)).transpose(0, 1, 2, 4, 5, 3)


def _conv2d_forward(spec, x, keep, w, b):
    """One flat GEMM over the (N*OH*OW, k*k*C) patch matrix, split by rows.

    The helper thread fills, multiplies and biases the patch rows of the first
    N // 2 examples, this thread the rest.  A 4-D operand would make numpy run
    N*OH small GEMMs instead.  With more channels a tap-major matrix made the
    GEMMs slower (cifar-smallnet conv 3's forward 113 -> 341 ms at batch 128).
    """
    n, (oh, ow, f) = x.shape[0], _conv2d_shape(spec, x.shape[1:])
    w2 = w.reshape(-1, f)
    # y before the short-lived padded input: the other order left ~10 MB more
    # peak RSS in a cifar-smallnet training run (heap fragmentation)
    y = np.empty((n * oh * ow, f), dtype=np.result_type(x, w2))
    windows = _windows_of(x, w.shape[0], spec.padding)
    if x.shape[3] == 1:  # tap-major, so each tap's fill copies whole image rows
        buf = np.empty(windows.shape[3:] + windows.shape[:3], dtype=windows.dtype)
        cols, flat = buf.transpose(3, 4, 5, 0, 1, 2), buf.reshape(w2.shape[0], -1).T
    else:
        cols = np.empty(windows.shape, dtype=windows.dtype)
        flat = cols.reshape(n * oh * ow, -1)
    bias_row = np.tile(b, oh * ow)  # one example's output row, tiled here: no helper malloc

    def rows(lo, hi):
        np.copyto(cols[lo:hi], windows[lo:hi])
        r = slice(lo * oh * ow, hi * oh * ow)
        np.matmul(flat[r], w2, out=y[r])
        y_rows = y[r].reshape(hi - lo, oh * ow * f)
        np.add(y_rows, bias_row, out=y_rows)

    _in_parallel(lambda: rows(0, n // 2), lambda: rows(n // 2, n))
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

    _in_parallel(lambda: np.matmul(cols.T, dy2, out=dw), bias_and_input_grads)
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


def _maxpool_forward(spec, x, keep):
    """Each window's max, split by example rows as ``_conv2d_forward`` is."""
    # np.maximum returns its second operand on a tie, so nesting the earlier
    # corners second makes the first of equal corners (-0.0 vs 0.0 too) win
    corners = [_windows(x)[:, :, r, :, s] for r in (0, 1) for s in (0, 1)]
    y = np.empty(corners[0].shape, dtype=x.dtype)
    # the cache: per output, the index of the first corner equal to y, or 4
    # when none is (a NaN window), so no copy of x outlives the layer
    first, miss, differs = ((np.empty(y.shape, t) for t in (np.uint8, bool, bool)) if keep
                            else (None, None, None))

    def rows(lo, hi):
        a, b, c, d = (corner[lo:hi] for corner in corners)
        out = y[lo:hi]
        np.maximum(b, a, out=out)
        np.maximum(c, out, out=out)
        np.maximum(d, out, out=out)
        if keep:  # bools added as their uint8 view: a cast would need a buffer
            m, f, ne = miss[lo:hi], first[lo:hi], differs[lo:hi]
            np.not_equal(a, out, out=m)
            np.copyto(f, m.view(np.uint8))
            for corner in (b, c, d):
                np.not_equal(corner, out, out=ne)
                m &= ne
                np.add(f, m.view(np.uint8), out=f)

    n = x.shape[0]
    _in_parallel(lambda: rows(0, n // 2), lambda: rows(n // 2, n))
    return y, first


def _maxpool_backward(spec, dy, first, need_dx):
    n, oh, ow, c = dy.shape
    corner_ids = np.arange(4, dtype=np.uint8).reshape(2, 1, 2, 1)  # 2 * r + s
    # dy's bits times 0 or 1 give dy exactly at the winner (-0.0 and inf
    # too) and +0.0 elsewhere, without np.where's per-element branch
    bits = np.dtype(f"u{dy.itemsize}")
    dy_bits, first = dy.view(bits)[:, :, None, :, None, :], first[:, :, None, :, None, :]
    dx = np.empty((n, oh, 2, ow, 2, c), dtype=bits)
    hit = np.empty(dx.shape, dtype=bool)

    def rows(lo, hi):
        np.equal(first[lo:hi], corner_ids, out=hit[lo:hi])
        np.copyto(dx[lo:hi], hit[lo:hi])  # copyto casts without a buffer, a ufunc would not
        np.multiply(dx[lo:hi], dy_bits[lo:hi], out=dx[lo:hi])

    _in_parallel(lambda: rows(0, n // 2), lambda: rows(n // 2, n))
    return dx.view(dy.dtype).reshape(n, 2 * oh, 2 * ow, c), ()


@dataclass(frozen=True)
class _LayerKind:
    """Everything the engine knows about one layer kind.

    ``forward(spec, x, keep, *params)`` gives (y, cache) and ``backward(spec,
    dy, cache, need_dx, *params)`` gives (dx, param grads); params is (weight,
    bias) for a kind with ``params``, else empty, and so are its grads.  A
    kind may skip its cache work and give None when ``keep`` is false (no
    backward pass will run), and skip dx when ``need_dx`` is.  The softmax
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
        forward=lambda spec, x, keep: (x.reshape(x.shape[0], -1), x.shape),
        backward=lambda spec, dy, x_shape, need_dx: (dy.reshape(x_shape), ()),
        shape=lambda spec, shape: (int(np.prod(shape)),)),
    "dense": _LayerKind(
        forward=lambda spec, x, keep, w, b: (x @ w + b, x),
        backward=lambda spec, dy, x, need_dx, w, b: (
            dy @ w.T if need_dx else None, (x.T @ dy, dy.sum(axis=0))),
        shape=lambda spec, shape: (spec.units,), rank=1,
        params=lambda spec, shape: ((shape[0], spec.units), (spec.units,)),
        valid=lambda spec: spec.units >= 1),
    "relu": _LayerKind(
        forward=lambda spec, x, keep: (np.maximum(x, 0), x > 0 if keep else None),
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
    appended to ``caches`` when a list is given; otherwise the layers are
    told not to build one, and whatever they give is dropped at once.
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
    keep = caches is not None
    for i, spec in enumerate(model.layers):
        x, cache = _KINDS[spec.kind].forward(
            spec, x, keep, *[model.params[name] for name in _param_names(i, spec)])
        if keep:
            caches.append(cache)
        del cache  # so no cache lives on while the next layer runs
    return x


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@_one_blas_thread()
def forward(model: Model, batch: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch; rows are non-negative and sum to 1.
    A row's last bits can change with the batch's row count (dense GEMMs)."""
    return _softmax(_logits(model, batch))


@_one_blas_thread()
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
        LayerSpec("maxpool2x2"),
        LayerSpec("relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", units=10),
    ]),
    # scaled-down CIFAR-10 convnet, ~292K parameters
    "cifar-smallnet": ((32, 32, 3), [
        LayerSpec("conv2d", filters=96, kernel_size=3, padding=1),
        LayerSpec("maxpool2x2"),
        LayerSpec("relu"),
        LayerSpec("conv2d", filters=192, kernel_size=3, padding=1),
        LayerSpec("maxpool2x2"),
        LayerSpec("relu"),
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
        if round(self.val_split * num_examples) >= num_examples:  # _split_indices' count
            raise ValueError(f"val_split {self.val_split} holds out all {num_examples} examples")


def _split_indices(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The one seeded split: disjoint, exhaustive (train, held-out) index
    arrays into ``range(n)``, with round(fraction * n) held out; ``fraction``
    lies in [0, 1), as ``TrainConfig`` checks ``val_split``."""
    n_val = int(round(fraction * n))
    perm = np.random.default_rng(np.random.SeedSequence([mask_seed(seed)])).permutation(n)
    return perm[n_val:], perm[:n_val]


def epoch_learning_rate(base_lr: float, epoch: int) -> float:
    """Step schedule: 10x decay from epoch LR_DECAY_EPOCH onward."""
    return base_lr * (0.1 if epoch >= LR_DECAY_EPOCH else 1.0)


def _run_epochs(model: Model, data: DatasetSplit, cfg: TrainConfig, stream: int,
                epoch_mask: Callable, target: float | None = None, epochs: range | None = None):
    """The one epoch loop, behind both ``train`` and ``pruning.prune_and_finetune``.

    SGD-trains a copy of ``model`` for ``epochs``, absolute indices into
    ``range(cfg.epochs)`` (default all of it), on all but the ``cfg.val_split``
    held-out share of ``data``, gathered by index: each batch as it is used,
    the held-out share once per epoch, to evaluate it.  Epoch ``e`` runs at
    ``epoch_learning_rate`` and shuffles with ``derive_seed(cfg.seed, stream,
    e)``.  ``epoch_mask(model, e)`` gives that epoch's mask or None; a mask is
    applied at the start of the epoch and after every optimizer step, so its
    weights stay exactly 0.0; the log line names ``target``, the sparsity the
    masks end at.  Returns the trained copy and the last epoch's mask.
    """
    cfg.validate(len(data))
    epochs = range(cfg.epochs) if epochs is None else epochs
    if not set(epochs) <= set(range(cfg.epochs)):
        raise ValueError(f"epochs {epochs} must lie in range({cfg.epochs})")
    model = model.copy()
    train_idx, held = _split_indices(len(data), cfg.val_split, cfg.seed)
    mask = None
    for epoch in epochs:
        mask = epoch_mask(model, epoch)
        if mask is not None:
            mask.apply(model.params)
        lr = epoch_learning_rate(cfg.learning_rate, epoch)
        seed = derive_seed(cfg.seed, stream, epoch)
        order = np.random.default_rng(np.random.SeedSequence([seed])).permutation(len(train_idx))
        losses = []
        for bi, start in enumerate(range(0, len(train_idx), cfg.batch_size)):
            _check_stop()
            idx = train_idx[order[start:start + cfg.batch_size]]
            try:
                loss, grads = loss_and_grad(model, data.images[idx], data.labels[idx])
            except TrainingDivergedError as e:
                raise TrainingDivergedError(f"epoch {epoch}: batch {bi}: {e}") from None
            for name, grad in grads.items():
                model.params[name] -= (lr * grad).astype(model.params[name].dtype, copy=False)
            if mask is not None:
                mask.apply(model.params)
            losses.append(loss)
        sparsity = "" if mask is None else f"sparsity {mask.target_sparsity:.4f} of {target:.4f}, "
        val = f", val acc {evaluate_accuracy(model, data.subset(held)):.2f}%" if len(held) else ""
        logger.info("epoch %d/%d: %sloss %.4f%s",
                    epoch + 1, cfg.epochs, sparsity, float(np.mean(losses)), val)
    return model, mask


def train(model: Model, data: DatasetSplit, cfg: TrainConfig) -> Model:
    """SGD-train a copy of ``model``; bit-deterministic given (seed, data, cfg)
    on one machine (the module docstring says when the BLAS count matters).

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
