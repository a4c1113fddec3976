"""Pruning tests.  The mask oracle re-derives the expected zero set with a
plain Python sort over (|w|, flat index) pairs, independently of the numpy
implementation.
"""

import math

import numpy as np
import pytest

from compresslab.nncore import (TrainConfig, TrainingDivergedError, build_model,
                                evaluate_accuracy)
from compresslab.pruning import (PruneMask, SparsitySchedule, build_mask,
                                 magnitude_threshold, prune_and_finetune, schedule_sparsity)


def oracle_mask(weights: np.ndarray, sparsity: float) -> np.ndarray:
    """Reference mask: sort (|w|, index) pairs, zero the first floor(s*M)."""
    flat = weights.reshape(-1)
    k = math.floor(sparsity * flat.size)
    order = sorted(range(flat.size), key=lambda i: (abs(flat[i]), i))
    mask = np.ones(flat.size, dtype=bool)
    for i in order[:k]:
        mask[i] = False
    return mask.reshape(weights.shape)


def random_tensor(rng, tie_heavy: bool):
    shape_pool = [(24,), (5, 7), (3, 3, 2, 4), (64,), (10, 10)]
    shape = shape_pool[rng.integers(0, len(shape_pool))]
    if tie_heavy:
        vals = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=shape)
    else:
        vals = rng.standard_normal(shape)
    return vals.astype(np.float32)


def test_mask_matches_oracle_on_random_tensors():
    rng = np.random.default_rng(0)
    for trial in range(200):
        w = random_tensor(rng, tie_heavy=trial % 3 == 0)
        s = float(rng.choice([0.0, 0.1, 0.25, 0.5, 0.77, 0.9, 0.99]))
        got = magnitude_threshold(w, s)
        np.testing.assert_array_equal(got, oracle_mask(w, s),
                                      err_msg=f"trial {trial}, sparsity {s}")


def test_mask_sparsity_is_floor_exact():
    rng = np.random.default_rng(1)
    for m, s in [(10, 0.5), (108, 0.99), (7, 0.3), (20280, 0.75), (130, 0.9)]:
        w = rng.standard_normal(m).astype(np.float32)
        mask = magnitude_threshold(w, s)
        assert (~mask).sum() == math.floor(s * m)


def test_ties_break_by_ascending_index():
    w = np.zeros(8, dtype=np.float32)
    mask = magnitude_threshold(w, 0.5)
    np.testing.assert_array_equal(mask, [False] * 4 + [True] * 4)
    # equal magnitudes, opposite signs: still index order
    w2 = np.array([1.0, -1.0, 1.0, -1.0], dtype=np.float32)
    mask2 = magnitude_threshold(w2, 0.5)
    np.testing.assert_array_equal(mask2, [False, False, True, True])


def argsort_mask(weights: np.ndarray, sparsity: float) -> np.ndarray:
    """Reference mask by a stable argsort of |w|, which orders NaN last; the
    Python-sort oracle cannot order NaN."""
    k = math.floor(sparsity * weights.size)
    mask = np.ones(weights.size, dtype=bool)
    if k:
        mask[np.argsort(np.abs(weights), axis=None, kind="stable")[:k]] = False
    return mask.reshape(weights.shape)


@pytest.mark.parametrize("values", [
    [0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.5, 0.0],
    [np.nan, 1.0, -np.nan, 0.0, np.nan, -2.0, 0.5, np.nan],
    [np.nan, np.nan, -0.0, np.nan, 0.0, np.inf, -np.inf, np.nan, 3.0, -0.0],
    [np.nan] * 9,
])
def test_mask_matches_argsort_with_nan_and_negative_zero(values):
    for dtype in (np.float16, np.float32, np.float64):
        w = np.array(values, dtype=dtype)
        for s in np.linspace(0.0, 0.99, 23):
            np.testing.assert_array_equal(magnitude_threshold(w, s), argsort_mask(w, s),
                                          err_msg=f"{dtype.__name__}, sparsity {s}")


def test_mask_matches_argsort_on_random_nan_tensors():
    rng = np.random.default_rng(5)
    pool = np.array([np.nan, 0.0, -0.0, 0.25, -0.25, 1.0, -1.0, np.inf], dtype=np.float32)
    for trial in range(300):
        w = random_tensor(rng, tie_heavy=trial % 2 == 0)
        w[rng.random(w.shape) < 0.2] = rng.choice(pool)
        s = float(rng.uniform(0.0, 0.999))
        np.testing.assert_array_equal(magnitude_threshold(w, s), argsort_mask(w, s),
                                      err_msg=f"trial {trial}, sparsity {s}")


def test_threshold_validation():
    with pytest.raises(ValueError, match="sparsity"):
        magnitude_threshold(np.ones(4), 1.0)
    with pytest.raises(ValueError, match="sparsity"):
        magnitude_threshold(np.ones(4), -0.1)
    with pytest.raises(ValueError, match="empty"):
        magnitude_threshold(np.zeros(0), 0.5)


def test_zero_sparsity_keeps_everything():
    w = np.zeros(5, dtype=np.float32)
    assert magnitude_threshold(w, 0.0).all()


# ---------------------------------------------------------------------------
# schedule

def test_schedule_endpoints_and_midpoint():
    sched = SparsitySchedule(0.5, 0.9, total_steps=4)
    assert schedule_sparsity(sched, 0) == pytest.approx(0.5)
    assert schedule_sparsity(sched, 4) == pytest.approx(0.9)
    # t=2: 0.9 + (0.5-0.9) * (1/2)^3
    assert schedule_sparsity(sched, 2) == pytest.approx(0.9 - 0.4 * 0.125)


def test_schedule_monotone_toward_target():
    sched = SparsitySchedule(0.5, 0.99, total_steps=11)
    values = [schedule_sparsity(sched, t) for t in range(12)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.5) and values[-1] == pytest.approx(0.99)


def test_schedule_validation():
    with pytest.raises(ValueError):
        SparsitySchedule(1.0, 0.5, 3)
    with pytest.raises(ValueError):
        SparsitySchedule(0.5, 0.9, 0)
    sched = SparsitySchedule(0.5, 0.9, 3)
    with pytest.raises(ValueError, match="outside"):
        schedule_sparsity(sched, 4)
    with pytest.raises(ValueError, match="outside"):
        schedule_sparsity(sched, -1)


# ---------------------------------------------------------------------------
# masks over models

def test_build_mask_covers_weights_only(tiny_trained):
    mask = build_mask(tiny_trained.params, 0.5)
    assert list(mask.masks) == [n for n in tiny_trained.param_names() if n.endswith(".weight")]
    # any tensor map, in its own order
    tensors = {"fc7.bias": np.ones(2, np.float32), "fc7.weight": np.arange(4.0).reshape(2, 2),
               "fc6.weight": np.array([3.0, -1.0])}
    mask = build_mask(tensors, 0.5)
    assert list(mask.masks) == ["fc7.weight", "fc6.weight"]
    np.testing.assert_array_equal(mask.masks["fc7.weight"], [[False, False], [True, True]])
    np.testing.assert_array_equal(mask.masks["fc6.weight"], [True, False])


def test_apply_zeroes_only_masked(tiny_trained):
    model = tiny_trained.copy()
    mask = build_mask(model.params, 0.6)
    before_bias = model.params["0.bias"].copy()
    mask.apply(model.params)
    np.testing.assert_array_equal(model.params["0.bias"], before_bias)
    for name, keep in mask.masks.items():
        assert (model.params[name][~keep] == 0.0).all()


def test_achieved_sparsity_matches_counts():
    masks = {"a": np.array([True, False, False, True]),
             "b": np.array([True, True])}
    assert PruneMask(masks, 0.5).achieved_sparsity() == pytest.approx(2 / 6)


# ---------------------------------------------------------------------------
# prune + fine-tune

def weight_sparsity(model):
    """Fraction of exact zeros across the model's weight tensors."""
    weights = [w for n, w in model.params.items() if n.endswith(".weight")]
    return sum(int((w == 0).sum()) for w in weights) / sum(w.size for w in weights)


def expected_model_sparsity(model, s):
    sizes = [w.size for n, w in model.params.items() if n.endswith(".weight")]
    return sum(math.floor(s * m) for m in sizes) / sum(sizes)


def test_prune_and_finetune_reaches_target(tiny_trained, synth_train, synth_test):
    cfg = TrainConfig(epochs=4, batch_size=64, learning_rate=0.02, val_split=0.2, seed=3)
    pruned, mask = prune_and_finetune(tiny_trained, synth_train, cfg, 0.9)
    target = expected_model_sparsity(tiny_trained, 0.9)
    assert mask.achieved_sparsity() == pytest.approx(target, abs=1e-9)
    assert weight_sparsity(pruned) >= target
    assert abs(weight_sparsity(pruned) - 0.9) < 0.01
    for name, keep in mask.masks.items():
        assert (pruned.params[name][~keep] == 0.0).all()
        # the kept weights were fine-tuned, not just copied
        assert not np.array_equal(pruned.params[name][keep], tiny_trained.params[name][keep])
    # moderate pruning of an easy task should not destroy accuracy
    acc = evaluate_accuracy(pruned, synth_test)
    base = evaluate_accuracy(tiny_trained, synth_test)
    assert acc > base - 15.0


def test_prune_and_finetune_is_deterministic(tiny_trained, synth_train):
    cfg = TrainConfig(epochs=3, batch_size=64, learning_rate=0.02, val_split=0.2, seed=5)
    m1, _ = prune_and_finetune(tiny_trained, synth_train, cfg, 0.8)
    m2, _ = prune_and_finetune(tiny_trained, synth_train, cfg, 0.8)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name], m2.params[name])


def test_prune_single_epoch_jumps_to_target(tiny_trained, synth_train):
    cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.02, seed=1)
    _, mask = prune_and_finetune(tiny_trained, synth_train, cfg, 0.95)
    assert mask.target_sparsity == pytest.approx(0.95)
    assert mask.achieved_sparsity() == pytest.approx(
        expected_model_sparsity(tiny_trained, 0.95), abs=1e-9)


def test_prune_zero_target_is_plain_finetune(tiny_trained, synth_train):
    cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=0.02, seed=2)
    pruned, mask = prune_and_finetune(tiny_trained, synth_train, cfg, 0.0)
    assert mask.achieved_sparsity() == 0.0
    assert weight_sparsity(pruned) < 0.01


def test_prune_input_untouched_and_validation(tiny_trained, synth_train):
    before = {n: p.copy() for n, p in tiny_trained.params.items()}
    cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.02, seed=0)
    prune_and_finetune(tiny_trained, synth_train, cfg, 0.5)
    for name in before:
        np.testing.assert_array_equal(tiny_trained.params[name], before[name])
    with pytest.raises(ValueError, match="target_sparsity"):
        prune_and_finetune(tiny_trained, synth_train, cfg, 1.0)


def test_prune_divergence_names_epoch_and_batch(synth_train):
    model = build_model("mnist-cnn", seed=0)
    model.params["0.weight"][0, 0, 0, 0] = np.inf
    cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=0.02, seed=0)
    with np.errstate(invalid="ignore"), \
            pytest.raises(TrainingDivergedError, match="epoch 0: batch 0: non-finite loss"):
        prune_and_finetune(model, synth_train, cfg, 0.5)
