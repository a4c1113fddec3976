"""Engine tests: hand-computed layer values, finite-difference gradient
oracles, determinism, and training behaviour on synthetic data.
"""

import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from compresslab import nncore
from compresslab.nncore import (LayerSpec, Model, ShapeMismatchError, TrainConfig,
                                TrainingDivergedError, build_model, derive_seed,
                                epoch_learning_rate, evaluate_accuracy, forward,
                                infer_architecture, loss_and_grad, model_from_params,
                                split_train_val, train)
from compresslab.pruning import prune_and_finetune
from conftest import synthetic_cifar_dataset, synthetic_dataset


def tiny_model(seed=0, dtype=np.float32):
    """Small model touching every layer kind, for gradient checks."""
    layers = [
        LayerSpec("conv2d", filters=3, kernel_size=3, padding=1),
        LayerSpec("relu"),
        LayerSpec("maxpool2x2"),
        LayerSpec("conv2d", filters=4, kernel_size=2),
        LayerSpec("relu"),
        LayerSpec("flatten"),
        LayerSpec("dense", units=5),
    ]
    input_shape = (6, 6, 2)
    rng = np.random.default_rng(seed)
    params = {name: (0.5 * rng.standard_normal(shape)).astype(dtype)
              for name, shape in nncore.parameter_shapes(layers, input_shape).items()}
    return Model(layers=layers, input_shape=input_shape, params=params)


# ---------------------------------------------------------------------------
# hand-computed layer values

POOL = LayerSpec("maxpool2x2")


def test_conv_of_ones_counts_window():
    x = np.ones((1, 3, 3, 1))
    w = np.ones((2, 2, 1, 1))
    b = np.zeros(1)
    y, _ = nncore._conv2d_forward(LayerSpec("conv2d", filters=1, kernel_size=2), x, w, b)
    assert y.shape == (1, 2, 2, 1)
    np.testing.assert_array_equal(y[0, :, :, 0], 4.0)


def test_conv_padding_shrinks_border_sums():
    x = np.ones((1, 2, 2, 1))
    w = np.ones((3, 3, 1, 1))
    spec = LayerSpec("conv2d", filters=1, kernel_size=3, padding=1)
    y, _ = nncore._conv2d_forward(spec, x, w, np.zeros(1))
    # every 3x3 window over the zero-padded 2x2 grid sees all four ones
    assert y.shape == (1, 2, 2, 1)
    np.testing.assert_array_equal(y[0, :, :, 0], 4.0)


def test_conv_bias_added_per_filter():
    x = np.zeros((1, 3, 3, 1))
    w = np.zeros((2, 2, 1, 2))
    spec = LayerSpec("conv2d", filters=2, kernel_size=2)
    y, _ = nncore._conv2d_forward(spec, x, w, np.array([1.5, -2.0]))
    np.testing.assert_array_equal(y[0, :, :, 0], 1.5)
    np.testing.assert_array_equal(y[0, :, :, 1], -2.0)


def test_maxpool_picks_window_max():
    x = np.array([[1., 2., 5., 6.],
                  [3., 4., 7., 8.],
                  [9., 10., 13., 14.],
                  [11., 12., 15., 16.]]).reshape(1, 4, 4, 1)
    y, _ = nncore._maxpool_forward(POOL, x)
    np.testing.assert_array_equal(y[0, :, :, 0], [[4., 8.], [12., 16.]])


def test_maxpool_tie_routes_gradient_to_first():
    x = np.full((1, 2, 2, 1), 3.0)
    y, cache = nncore._maxpool_forward(POOL, x)
    assert y[0, 0, 0, 0] == 3.0
    dx, _ = nncore._maxpool_backward(POOL, np.ones((1, 1, 1, 1)), cache, True)
    np.testing.assert_array_equal(dx.reshape(4), [1.0, 0.0, 0.0, 0.0])


def _argmax_maxpool(x, dy):
    """Reference maxpool: transpose each 2x2 window onto an axis of 4, take the
    first argmax, and scatter the gradient back to it."""
    n, h, w, c = x.shape
    oh, ow = h // 2, w // 2
    win = x.reshape(n, oh, 2, ow, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, oh, ow, 4, c)
    idx = win.argmax(axis=3)
    y = np.take_along_axis(win, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    dwin = np.zeros((n, oh, ow, 4, c), dtype=dy.dtype)
    np.put_along_axis(dwin, idx[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
    return y, dwin.reshape(n, oh, ow, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h, w, c)


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    uint = np.dtype(f"u{a.itemsize}")
    np.testing.assert_array_equal(a.view(uint)[~np.isnan(a)], b.view(uint)[~np.isnan(b)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_matches_argmax_reference_bit_for_bit(dtype):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 8, 6, 5)).astype(dtype)
    x[1] = np.round(x[1])  # small integers: many tied windows
    x[2] = np.where(rng.random(x[2].shape) < 0.5, -0.0, 0.0)  # signed-zero ties
    x[0, 0:2, 0:2, 0] = [[-0.0, 0.0], [-1.0, -1.0]]
    x[0, 0:2, 2:4, 0] = [[0.0, -0.0], [-1.0, -1.0]]
    x[0, 2:4, 0:2, 0] = [[-1.0, -1.0], [-0.0, 0.0]]
    dy = rng.standard_normal((3, 4, 3, 5)).astype(dtype)
    dy[0, 0, 0, 1] = -0.0
    y, cache = nncore._maxpool_forward(POOL, x)
    dx, _ = nncore._maxpool_backward(POOL, dy, cache, True)
    y_ref, dx_ref = _argmax_maxpool(x, dy)
    _assert_same_bits(y, y_ref)
    _assert_same_bits(dx, dx_ref)
    assert np.signbit(y[0, 0, 0, 0]) and not np.signbit(y[0, 0, 1, 0])

    x[0, 4:6, 2:4, 3] = [[1.0, np.nan], [2.0, 3.0]]  # NaN: forward only
    y, _ = nncore._maxpool_forward(POOL, x)
    _assert_same_bits(y, _argmax_maxpool(x, dy)[0])
    assert np.isnan(y[0, 2, 1, 3])


# ---------------------------------------------------------------------------
# the conv kernels' helper thread: the same bits with it and without it

BATCH_SIZES = [1, 2, 3, 64, 127, 128]
MULTI_CPU = len(os.sched_getaffinity(0)) > 1 if hasattr(os, "sched_getaffinity") else False


def _one_cpu(monkeypatch):
    """Send the conv kernels down their one-CPU branch, with no helper to use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(nncore, "_helper", None)


@pytest.fixture
def split_every_conv(monkeypatch):
    """Hand every conv GEMM to the helper, however small (mnist-cnn's too)."""
    monkeypatch.setattr(nncore, "_MIN_HELPER_MACS", 0)


def _grads_and_probs(model, data, n):
    loss, grads = loss_and_grad(model, data.images[:n], data.labels[:n])
    return loss, grads, forward(model, data.images[:n])


@pytest.mark.skipif(not MULTI_CPU, reason="needs two usable CPUs for the helper thread")
@pytest.mark.parametrize("arch, dataset", [("mnist-cnn", synthetic_dataset),
                                           ("cifar-smallnet", synthetic_cifar_dataset)],
                         ids=["mnist-cnn", "cifar-smallnet"])
def test_helper_thread_gives_the_inline_bits(arch, dataset, monkeypatch, split_every_conv):
    model, data = build_model(arch, seed=3), dataset(max(BATCH_SIZES), seed=4)
    for n in BATCH_SIZES:
        threaded = _grads_and_probs(model, data, n)
        assert any(t.name.startswith("nncore-helper") for t in threading.enumerate())
        with monkeypatch.context() as m:
            _one_cpu(m)
            inline = _grads_and_probs(model, data, n)
        assert threaded[0] == inline[0]
        for name in model.param_names():
            _assert_same_bits(threaded[1][name], inline[1][name])
        _assert_same_bits(threaded[2], inline[2])


@pytest.mark.skipif(not MULTI_CPU, reason="needs two usable CPUs for the helper thread")
def test_concurrent_callers_share_the_helper_and_keep_their_bits(split_every_conv):
    model, data = build_model("cifar-smallnet", seed=8), synthetic_cifar_dataset(12, seed=9)
    batches = [(data.images[i:i + 4], data.labels[i:i + 4]) for i in range(0, 12, 4)]
    expected = [loss_and_grad(model, x, y)[1] for x, y in batches]
    results = [None] * len(batches)

    def worker(i):
        results[i] = loss_and_grad(model, *batches[i])[1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(batches))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, expected):
        for name in model.param_names():
            _assert_same_bits(got[name], want[name])


@pytest.mark.skipif(not MULTI_CPU, reason="needs two usable CPUs for the helper thread")
def test_small_conv_gemms_stay_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(nncore, "_helper", None)  # any use of the helper would raise
    model, data = build_model("mnist-cnn", seed=1), synthetic_dataset(128, seed=1)
    loss_and_grad(model, data.images, data.labels)
    evaluate_accuracy(model, data)


def _single_gemm_conv(spec, x, w, b):
    """The unsplit formula: one patch-matrix copy, one GEMM, one bias add."""
    k, pad, f = spec.kernel_size, spec.padding, spec.filters
    x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    n, oh, ow, c = win.shape[:4]
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, k * k * c)
    return (cols @ w.reshape(-1, f) + b).reshape(n, oh, ow, f)


@pytest.mark.parametrize("arch, layer", [("mnist-cnn", 0), ("cifar-smallnet", 0),
                                         ("cifar-smallnet", 3)])
def test_split_conv_forward_equals_one_gemm(arch, layer, split_every_conv):
    """A row split of a conv GEMM keeps every bit: the property the helper relies on."""
    model = build_model(arch, seed=5)
    spec = model.layers[layer]
    in_shape = [model.input_shape, *nncore.infer_shapes(model.layers, model.input_shape)][layer]
    w, b = model.params[f"{layer}.weight"], model.params[f"{layer}.bias"]
    b[:] = np.random.default_rng(6).standard_normal(b.shape)
    rng = np.random.default_rng(7)
    for n in BATCH_SIZES:
        x = rng.standard_normal((n, *in_shape)).astype(np.float32)
        y, _ = nncore._conv2d_forward(spec, x, w, b)
        _assert_same_bits(y, _single_gemm_conv(spec, x, w, b))


def test_in_parallel_joins_the_helper_when_a_part_raises():
    finished = threading.Event()

    def slow_helper_part():
        time.sleep(0.05)
        finished.set()

    def failing_own_part():
        raise KeyError("own part")

    with pytest.raises(KeyError, match="own part"):
        nncore._in_parallel(slow_helper_part, failing_own_part, nncore._MIN_HELPER_MACS)
    assert finished.is_set()
    with pytest.raises(ZeroDivisionError):
        nncore._in_parallel(lambda: 1 / 0, lambda: None, nncore._MIN_HELPER_MACS)


FORK_CHILD = """\
import os, numpy as np
from compresslab import nncore
from compresslab.nncore import build_model, forward
nncore._MIN_HELPER_MACS = 0
model, x = build_model("mnist-cnn", seed=1), np.zeros((4, 28, 28, 1), np.float32)
before = forward(model, x)  # starts the helper thread in this process
pid = os.fork()
if pid == 0:
    os._exit(0 if np.array_equal(forward(model, x), before) else 1)
print(os.waitpid(pid, 0)[1])
"""


@pytest.mark.skipif(not MULTI_CPU or not hasattr(os, "fork"),
                    reason="needs fork and two usable CPUs for the helper thread")
def test_forked_child_gets_its_own_helper():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", FORK_CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "0"


def test_uniform_probabilities_from_zero_weights():
    model = build_model("mnist-cnn", seed=0)
    for name in model.params:
        model.params[name][:] = 0.0
    x = np.random.default_rng(0).random((5, 28, 28, 1), dtype=np.float32)
    probs = forward(model, x)
    np.testing.assert_allclose(probs, 0.1, atol=1e-7)
    loss, _ = loss_and_grad(model, x, np.array([0, 3, 5, 7, 9]))
    assert loss == pytest.approx(math.log(10.0), abs=1e-6)


def test_forward_rows_are_distributions(tiny_trained):
    x = np.random.default_rng(1).random((8, 28, 28, 1), dtype=np.float32)
    probs = forward(tiny_trained, x)
    assert probs.shape == (8, 10)
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)


def test_forward_softmax_overflow_safe():
    model = tiny_model(seed=2, dtype=np.float64)
    model.params["6.weight"] *= 500.0  # drive logits far apart
    x = np.random.default_rng(0).random((3, 6, 6, 2))
    probs = forward(model, x)
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# gradient oracle: central finite differences
#
# The loss is piecewise smooth: relu kinks and maxpool argmax flips make the
# finite-difference quotient meaningless for the few coordinates whose +/-eps
# perturbation lands in different pieces.  We detect those by comparing the
# activation pattern at both perturbed points and exclude them, requiring
# near-complete coverage so the check cannot quietly go vacuous.

def _loss_and_pattern(model, x, labels):
    caches = []
    logits = nncore._logits(model, x, caches)
    n = logits.shape[0]
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    loss = float(np.mean(lse - logits[np.arange(n), labels]))
    pattern = []
    for spec, cache in zip(model.layers[:-1], caches):
        if spec.kind == "relu":
            pattern.append(cache.tobytes())
        elif spec.kind == "maxpool2x2":
            pattern.append(nncore._maxpool_winners(*cache).tobytes())
    return loss, b"".join(pattern)


def numerical_grad(model, x, labels, name, eps=1e-3):
    """Central-difference gradient plus a validity mask (no kink crossed)."""
    w = model.params[name]
    grad = np.zeros_like(w)
    valid = np.ones(w.size, dtype=bool)
    flat = w.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp, pat_p = _loss_and_pattern(model, x, labels)
        flat[i] = orig - eps
        lm, pat_m = _loss_and_pattern(model, x, labels)
        flat[i] = orig
        grad.reshape(-1)[i] = (lp - lm) / (2 * eps)
        valid[i] = pat_p == pat_m
    return grad, valid.reshape(w.shape)


def test_gradients_match_finite_differences_all_layers():
    model = tiny_model(seed=0, dtype=np.float64)
    rng = np.random.default_rng(11)
    x = rng.uniform(-1.0, 1.0, (3, 6, 6, 2))
    labels = np.array([0, 2, 4])
    _, grads = loss_and_grad(model, x, labels)
    assert set(grads) == {"0.weight", "0.bias", "3.weight", "3.bias", "6.weight", "6.bias"}
    for name, g in grads.items():
        g_fd, valid = numerical_grad(model, x, labels, name)
        assert valid.mean() > 0.9, f"{name}: too many kink-crossing coordinates"
        denom = np.maximum(np.maximum(np.abs(g), np.abs(g_fd)), 1e-6)
        rel = (np.abs(g - g_fd) / denom)[valid]
        assert rel.max() < 1e-3, f"{name}: max rel err {rel.max():.2e}"


def test_gradient_nonzero_everywhere_it_should_be():
    model = tiny_model(seed=1, dtype=np.float64)
    x = np.random.default_rng(3).random((8, 6, 6, 2)) + 0.1
    _, grads = loss_and_grad(model, x, np.arange(8) % 5)
    # dense weights always receive signal from a non-degenerate batch
    assert np.abs(grads["6.weight"]).max() > 0


# ---------------------------------------------------------------------------
# training loop behaviour

def test_split_sizes_and_partition():
    data = synthetic_dataset(100, seed=1)
    tr, val = split_train_val(data, 0.3, seed=5)
    assert len(val) == 30 and len(tr) == 70
    joined = np.concatenate([tr.labels, val.labels])
    assert joined.shape == (100,)
    # disjoint and exhaustive: every original image appears exactly once
    all_imgs = np.concatenate([tr.images, val.images])
    assert np.sort(all_imgs.sum(axis=(1, 2, 3))).tolist() == \
        pytest.approx(np.sort(data.images.sum(axis=(1, 2, 3))).tolist())


def test_split_is_seeded_and_validates():
    data = synthetic_dataset(50, seed=2)
    a1, b1 = split_train_val(data, 0.2, seed=9)
    a2, b2 = split_train_val(data, 0.2, seed=9)
    np.testing.assert_array_equal(a1.labels, a2.labels)
    np.testing.assert_array_equal(b1.images, b2.images)
    a3, _ = split_train_val(data, 0.2, seed=10)
    assert not np.array_equal(a1.labels, a3.labels)
    _, empty = split_train_val(data, 0.0, seed=0)
    assert len(empty) == 0
    with pytest.raises(ValueError):
        split_train_val(data, 1.0, seed=0)


def test_round_half_applied_to_val_count():
    data = synthetic_dataset(15, seed=0)
    _, val = split_train_val(data, 0.3, seed=0)
    assert len(val) == round(0.3 * 15)


def test_train_is_bit_deterministic(synth_train):
    cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=0.1, val_split=0.2, seed=11)
    m1 = train(build_model("mnist-cnn", seed=11), synth_train, cfg)
    m2 = train(build_model("mnist-cnn", seed=11), synth_train, cfg)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name], m2.params[name])
    m3 = train(build_model("mnist-cnn", seed=12), synth_train,
               TrainConfig(epochs=2, batch_size=64, learning_rate=0.1,
                           val_split=0.2, seed=12))
    assert any(not np.array_equal(m1.params[n], m3.params[n]) for n in m1.params)


def test_train_does_not_mutate_input_model(synth_train):
    model = build_model("mnist-cnn", seed=4)
    before = {n: p.copy() for n, p in model.params.items()}
    cfg = TrainConfig(epochs=1, batch_size=128, learning_rate=0.1, seed=4)
    trained = train(model, synth_train, cfg)
    for name in before:
        np.testing.assert_array_equal(model.params[name], before[name])


def test_training_learns_synthetic_task(tiny_trained, synth_test):
    acc = evaluate_accuracy(tiny_trained, synth_test)
    assert acc > 90.0, f"synthetic task should be easy, got {acc:.1f}%"


def test_learning_rate_decay_rule():
    assert epoch_learning_rate(0.1, 0) == pytest.approx(0.1)
    assert epoch_learning_rate(0.1, 8) == pytest.approx(0.1)
    assert epoch_learning_rate(0.1, 9) == pytest.approx(0.01)
    assert epoch_learning_rate(0.1, 11) == pytest.approx(0.01)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, 0, 1) == derive_seed(7, 0, 1)
    assert derive_seed(7, 0, 1) != derive_seed(7, 0, 2)
    assert derive_seed(7, 0, 1) != derive_seed(8, 0, 1)
    assert derive_seed(-3, 1, 0) == derive_seed(-3, 1, 0)  # negative seeds allowed


def test_divergence_raises_with_context(synth_train):
    model = build_model("mnist-cnn", seed=0)
    model.params["0.weight"][0, 0, 0, 0] = np.inf
    cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.1, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError, match="epoch 0"):
        train(model, synth_train, cfg)


def test_config_validation():
    data_len = 100
    with pytest.raises(ValueError):
        TrainConfig(epochs=0, batch_size=10, learning_rate=0.1).validate(data_len)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=0, learning_rate=0.1).validate(data_len)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=101, learning_rate=0.1).validate(data_len)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=10, learning_rate=-0.1).validate(data_len)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1, batch_size=10, learning_rate=0.1, val_split=1.0).validate(data_len)


def test_val_split_must_leave_a_training_example():
    data = synthetic_dataset(3, seed=0)
    cfg = TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, val_split=0.9)
    message = "val_split 0.9 holds out all 3 examples"
    with pytest.raises(ValueError, match=message):
        cfg.validate(len(data))
    with pytest.raises(ValueError, match=message):
        train(build_model("mnist-cnn", seed=0), data, cfg)
    with pytest.raises(ValueError, match=message):
        prune_and_finetune(build_model("mnist-cnn", seed=0), data, cfg, 0.5)
    # 0.5 of 3 holds out round(1.5) = 2 examples and trains on the third
    TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, val_split=0.5).validate(3)


# ---------------------------------------------------------------------------
# model structure and validation

def test_registered_architecture_sizes():
    assert sum(p.size for p in build_model("mnist-cnn").params.values()) == 20410
    assert sum(p.size for p in build_model("cifar-smallnet").params.values()) == 291658


def test_param_order_is_layerwise_weight_then_bias():
    model = build_model("cifar-smallnet")
    assert model.param_names() == ["0.weight", "0.bias", "3.weight", "3.bias",
                                   "7.weight", "7.bias"]


def test_glorot_init_bounds_and_seed():
    m1 = build_model("mnist-cnn", seed=5)
    m2 = build_model("mnist-cnn", seed=5)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name], m2.params[name])
    w = m1.params["0.weight"]
    limit = math.sqrt(6.0 / (9 * 1 + 9 * 12))
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.5 * limit  # actually spread out, not collapsed
    np.testing.assert_array_equal(m1.params["0.bias"], 0.0)


def test_unknown_architecture_rejected():
    with pytest.raises(ValueError, match="unknown architecture"):
        build_model("resnet-1000")


def test_model_from_params_and_inference_roundtrip():
    model = build_model("mnist-cnn", seed=1)
    rebuilt = model_from_params(model.params)
    for name in model.params:
        np.testing.assert_array_equal(rebuilt.params[name], model.params[name])
    cifar = build_model("cifar-smallnet")
    rebuilt = model_from_params({name: cifar.params[name].astype(np.float64)
                                 for name in reversed(cifar.param_names())})
    assert list(rebuilt.params) == cifar.param_names()
    for name, p in rebuilt.params.items():
        assert p.dtype == np.float32
        np.testing.assert_array_equal(p, cifar.params[name])
    assert infer_architecture(model.params) == "mnist-cnn"
    assert infer_architecture(build_model("cifar-smallnet").params) == "cifar-smallnet"
    with pytest.raises(ValueError, match="does not match any registered"):
        infer_architecture({"0.weight": np.zeros((3, 3))})


def test_model_from_params_validates_shapes():
    model = build_model("mnist-cnn")
    bad = dict(model.params)
    bad["0.weight"] = np.zeros((2, 2, 1, 12), dtype=np.float32)
    with pytest.raises(ShapeMismatchError, match="does not match any registered"):
        model_from_params(bad)
    missing = dict(model.params)
    del missing["4.bias"]
    with pytest.raises(ShapeMismatchError, match="does not match any registered"):
        model_from_params(missing)


def test_forward_shape_errors_are_loud():
    model = build_model("mnist-cnn")
    with pytest.raises(ShapeMismatchError, match="does not match"):
        forward(model, np.zeros((2, 27, 28, 1), dtype=np.float32))
    with pytest.raises(ShapeMismatchError, match="labels"):
        loss_and_grad(model, np.zeros((2, 28, 28, 1), dtype=np.float32), np.array([1]))
    with pytest.raises(ValueError, match="labels must lie"):
        loss_and_grad(model, np.zeros((2, 28, 28, 1), dtype=np.float32), np.array([0, 10]))


def test_odd_spatial_maxpool_rejected():
    layers = [LayerSpec("conv2d", filters=1, kernel_size=2),
              LayerSpec("maxpool2x2"), LayerSpec("flatten"),
              LayerSpec("dense", units=2)]
    with pytest.raises(ShapeMismatchError, match="must be even"):
        nncore.infer_shapes(layers, (4, 4, 1))  # conv leaves 3x3
    head = [LayerSpec("flatten"), LayerSpec("dense", units=2)]
    for layers, input_shape, message in [
            ([LayerSpec("conv2d", filters=1, kernel_size=5, padding=1), *head], (2, 2, 1),
             r"layer 0 \(conv2d\): kernel 5 too large for \(2, 2, 1\)"),
            ([LayerSpec("dense", units=2)], (2, 2, 1),
             r"layer 0 \(dense\): needs flat input, got \(2, 2, 1\)"),
            ([*head, LayerSpec("conv2d", filters=1, kernel_size=1), *head], (2, 2, 1),
             r"layer 2 \(conv2d\): needs HxWxC input, got \(2,\)")]:
        with pytest.raises(ShapeMismatchError, match=message):
            nncore.infer_shapes(layers, input_shape)


def test_last_layer_must_give_flat_logits():
    with pytest.raises(ShapeMismatchError, match="must give flat logits"):
        nncore.parameter_shapes([LayerSpec("conv2d", filters=2, kernel_size=1)], (2, 2, 1))
    with pytest.raises(ShapeMismatchError, match="must give flat logits"):
        nncore.parameter_shapes([], (2, 2, 1))
    assert nncore.parameter_shapes([LayerSpec("flatten"), LayerSpec("dense", units=3)],
                                   (2, 2, 1)) == {"1.weight": (4, 3), "1.bias": (3,)}
    with pytest.raises(ValueError, match="unknown layer kind 'softmax'"):
        LayerSpec("softmax")
    for bad in [dict(kind="conv2d", filters=0, kernel_size=3),
                dict(kind="conv2d", filters=2, kernel_size=0),
                dict(kind="conv2d", filters=2, kernel_size=3, padding=-1),
                dict(kind="dense", units=0)]:
        with pytest.raises(ValueError, match=f"invalid {bad['kind']} hyperparameters"):
            LayerSpec(**bad)


def test_hand_built_model_must_fit_its_input_shape():
    model = build_model("mnist-cnn")
    x = np.zeros((1, 27, 27, 1), dtype=np.float32)
    odd = Model(layers=model.layers, input_shape=(27, 27, 1), params=model.params)
    with pytest.raises(ShapeMismatchError, match=r"layer 2 \(maxpool2x2\)"):
        forward(odd, x)  # conv leaves 25x25 for the pool
    x = np.zeros((1, 30, 30, 1), dtype=np.float32)
    wide = Model(layers=model.layers, input_shape=(30, 30, 1), params=model.params)
    with pytest.raises(ShapeMismatchError, match=r"4\.weight"):
        loss_and_grad(wide, x, np.array([0]))  # the dense layer now sees 14*14*12 inputs


def test_evaluate_accuracy_in_batches_matches_one_forward(tiny_trained, synth_test):
    n = len(synth_test)
    assert n > nncore._EVAL_BATCH
    probs = forward(tiny_trained, synth_test.images)
    correct = int((probs.argmax(axis=1) == synth_test.labels).sum())
    assert evaluate_accuracy(tiny_trained, synth_test) == 100.0 * correct / n


@pytest.mark.parametrize("arch, dataset", [("mnist-cnn", synthetic_dataset),
                                           ("cifar-smallnet", synthetic_cifar_dataset)],
                         ids=["mnist-cnn", "cifar-smallnet"])
def test_evaluate_accuracy_pads_the_last_batch(arch, dataset, monkeypatch):
    model, data = build_model(arch, seed=3), dataset(2 * nncore._EVAL_BATCH + 1, seed=8)
    calls = []

    def recording_forward(model, batch):
        calls.append(forward(model, batch))
        return calls[-1]

    monkeypatch.setattr(nncore, "forward", recording_forward)
    evaluate_accuracy(model, data)
    assert [len(probs) for probs in calls] == [nncore._EVAL_BATCH] * 3
    # the tail example gets the bits it gets as the last row of a full batch
    full = forward(model, data.images[-nncore._EVAL_BATCH:])
    _assert_same_bits(calls[-1][0], full[-1])


def test_evaluate_accuracy_counts_argmax():
    model = build_model("mnist-cnn", seed=0)
    for name in model.params:
        model.params[name][:] = 0.0
    # all-zero model predicts class 0 for everything (tie goes to lowest index)
    labels = np.array([0, 0, 1, 2], dtype=np.int64)
    data = synthetic_dataset(4, seed=0)
    data = type(data)(data.images, labels)
    assert evaluate_accuracy(model, data) == pytest.approx(50.0)
    with pytest.raises(ValueError, match="empty"):
        evaluate_accuracy(model, data.subset(np.array([], dtype=int)))
