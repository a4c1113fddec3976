"""Quantization tests: pinned parameter examples, the round-trip error
bound, exact-zero preservation, idempotence, and float16 conversion.
"""

import numpy as np
import pytest

from compresslab.quantization import (QuantParams, QuantizedTensor,
                                      compute_quant_params, convert_float16,
                                      dequantize_params, dequantize_tensor,
                                      quantize_params, quantize_tensor)
from compresslab.nncore import build_model, model_from_params
from compresslab.sizing import parse_model_bytes, serialize_model


def roundtrip(w, mode):
    params = compute_quant_params(w, 8, mode)
    return dequantize_tensor(quantize_tensor(w, params)), params


def stored_model(params, bits, mode="asymmetric"):
    """The model a sweep cell is scored on: rebuilt from its stored tensors."""
    return model_from_params(dequantize_params(quantize_params(params, bits, mode)))


# ---------------------------------------------------------------------------
# parameter derivation

def test_asymmetric_params_pinned_example():
    w = np.array([-1.0, 0.0, 3.0], dtype=np.float32)
    p = compute_quant_params(w, 8, "asymmetric")
    assert p.scale == pytest.approx(4.0 / 255)
    assert p.zero_point == 64
    q = quantize_tensor(w, p)
    assert q.payload.dtype == np.uint8
    # -1 -> rint(-63.75)+64 = 0; 0 -> 64; 3 -> rint(191.25)+64 = 255
    np.testing.assert_array_equal(q.payload, [0, 64, 255])
    deq = dequantize_tensor(q)
    assert deq[1] == 0.0  # zero lands exactly on the zero point


def test_asymmetric_saturates_out_of_range():
    p = compute_quant_params(np.array([-1.0, 3.0], dtype=np.float32), 8, "asymmetric")
    q = quantize_tensor(np.array([10.0, -10.0], dtype=np.float32), p)
    np.testing.assert_array_equal(q.payload, [255, 0])


def test_symmetric_params_pinned_example():
    w = np.array([-2.0, 0.5], dtype=np.float32)
    p = compute_quant_params(w, 8, "symmetric")
    assert p.scale == pytest.approx(2.0 / 127)
    assert p.zero_point == 0
    q = quantize_tensor(w, p)
    assert q.payload.dtype == np.int8
    # -2 -> -127; 0.5 -> rint(31.75) = 32
    np.testing.assert_array_equal(q.payload, [-127, 32])


def test_positive_only_range_still_covers_zero():
    w = np.array([0.5, 1.0], dtype=np.float32)
    p = compute_quant_params(w, 8, "asymmetric")
    # range extended to [0, 1] so zero_point stays on the grid edge
    assert p.scale == pytest.approx(1.0 / 255)
    assert p.zero_point == 0
    deq, _ = roundtrip(w, "asymmetric")
    assert abs(deq[1] - 1.0) < 1e-6


def test_all_zero_tensor_params():
    w = np.zeros(6, dtype=np.float32)
    for mode in ("asymmetric", "symmetric"):
        p = compute_quant_params(w, 8, mode)
        assert p.scale == 1.0 and p.zero_point == 0
        deq, _ = roundtrip(w, mode)
        np.testing.assert_array_equal(deq, 0.0)


def test_constant_tensor_roundtrips_exactly():
    for c in (0.37, -2.5, 1e-4, -640.0):
        w = np.full(9, c, dtype=np.float32)
        for mode in ("asymmetric", "symmetric"):
            deq, p = roundtrip(w, mode)
            np.testing.assert_array_equal(deq, np.float32(c),
                                          err_msg=f"c={c} mode={mode}")
            assert p.scale == pytest.approx(abs(c))


def test_param_validation():
    with pytest.raises(ValueError, match="bits"):
        compute_quant_params(np.ones(3), 4, "symmetric")
    with pytest.raises(ValueError, match="mode"):
        compute_quant_params(np.ones(3), 8, "uniform")
    with pytest.raises(ValueError, match="empty"):
        compute_quant_params(np.zeros(0), 8, "symmetric")
    with pytest.raises(ValueError, match="non-finite"):
        compute_quant_params(np.array([1.0, np.nan]), 8, "asymmetric")
    with pytest.raises(ValueError, match="zero_point"):
        QuantParams(bits=8, mode="symmetric", scale=0.1, zero_point=3)
    with pytest.raises(ValueError, match="zero_point"):
        QuantParams(bits=8, mode="asymmetric", scale=0.1, zero_point=300)
    with pytest.raises(ValueError, match="scale"):
        QuantParams(bits=8, mode="symmetric", scale=0.0)
    with pytest.raises(ValueError, match="float16 mode"):
        QuantParams(bits=8, mode="float16")
    with pytest.raises(ValueError, match="unknown quantization mode 'affine'"):
        QuantParams(bits=8, mode="affine")


def test_zero_point_must_be_an_integer():
    for zero_point in (3.5, 3.0, "3"):
        with pytest.raises(ValueError, match="zero_point must be an integer"):
            QuantParams(8, "asymmetric", 0.5, zero_point)
    # numpy integers are accepted and held as Python ints, so the artifact's
    # zero-point shift cannot wrap them
    payload = np.array([3, 4], dtype=np.uint8)
    for zero_point in (np.uint8(3), np.int8(3), np.int64(3)):
        params = QuantParams(8, "asymmetric", 0.5, zero_point)
        assert type(params.zero_point) is int and params == QuantParams(8, "asymmetric", 0.5, 3)
        parsed = parse_model_bytes(serialize_model({"w": QuantizedTensor(params, payload)}))
        assert parsed["w"].params == params


def test_rounding_is_half_to_even():
    p = QuantParams(bits=8, mode="symmetric", scale=1.0, zero_point=0)
    w = np.array([0.5, 1.5, 2.5, -0.5, -1.5], dtype=np.float32)
    q = quantize_tensor(w, p)
    np.testing.assert_array_equal(q.payload, [0, 2, 2, 0, -2])


# ---------------------------------------------------------------------------
# invariant properties (seeded sweep; the acceptance suite runs 1000 tensors)

def _random_weight_tensor(rng):
    kind = rng.integers(0, 5)
    size = int(rng.integers(2, 400))
    if kind == 0:
        w = rng.standard_normal(size) * float(rng.uniform(0.01, 10))
    elif kind == 1:
        w = rng.uniform(0.2, 3.0, size)          # strictly positive
    elif kind == 2:
        w = -rng.uniform(0.2, 3.0, size)         # strictly negative
    elif kind == 3:
        w = rng.standard_normal(size)
        w[rng.random(size) < 0.6] = 0.0          # sparse, many exact zeros
    else:
        w = rng.choice([-1.5, -0.25, 0.0, 0.25, 1.5], size)
    return w.astype(np.float32)


def test_roundtrip_error_bound_and_zero_preservation():
    rng = np.random.default_rng(42)
    for trial in range(200):
        w = _random_weight_tensor(rng)
        for mode in ("asymmetric", "symmetric"):
            params = compute_quant_params(w, 8, mode)
            qt = quantize_tensor(w, params)
            deq = dequantize_tensor(qt)
            err = np.abs(deq - w).max()
            bound = params.scale / 2 + 1e-7
            assert err <= bound, f"trial {trial} {mode}: err {err} > {bound}"
            zeros = w == 0.0
            assert (deq[zeros] == 0.0).all(), f"trial {trial} {mode}: zero moved"


def test_quantize_is_idempotent_with_same_params():
    rng = np.random.default_rng(43)
    for _ in range(50):
        w = _random_weight_tensor(rng)
        for mode in ("asymmetric", "symmetric"):
            params = compute_quant_params(w, 8, mode)
            q1 = quantize_tensor(w, params)
            q2 = quantize_tensor(dequantize_tensor(q1), params)
            np.testing.assert_array_equal(q1.payload, q2.payload)


def test_symmetric_never_uses_minus_128():
    rng = np.random.default_rng(44)
    for _ in range(50):
        w = _random_weight_tensor(rng)
        qt = quantize_tensor(w, compute_quant_params(w, 8, "symmetric"))
        assert qt.payload.min() >= -127


# ---------------------------------------------------------------------------
# float16

def test_float16_roundtrip_and_dtype():
    w = np.array([0.0, 1.0, -2.5, 0.1, 65504.0], dtype=np.float32)
    qt = convert_float16(w)
    assert qt.payload.dtype == np.float16
    assert qt.params.bits == 16 and qt.params.mode == "float16"
    deq = dequantize_tensor(qt)
    assert deq.dtype == np.float32
    # exactly representable values come back bit-equal
    np.testing.assert_array_equal(deq[[0, 1, 2, 4]], w[[0, 1, 2, 4]])
    assert abs(deq[3] - 0.1) < 1e-4


def test_float16_overflow_names_tensor():
    w = np.array([1e5], dtype=np.float32)
    with pytest.raises(ValueError, match="3.weight"):
        convert_float16(w, name="3.weight")
    with pytest.raises(ValueError, match="float16 range"):
        convert_float16(w)


def test_float16_rounds_to_nearest():
    # 2049 is not representable in binary16 (gap is 2 there); ties to even -> 2048
    w = np.array([2049.0], dtype=np.float32)
    qt = convert_float16(w)
    assert float(qt.payload[0]) == 2048.0


# ---------------------------------------------------------------------------
# whole-model quantization

def test_quantize_params_splits_weights_and_biases(tiny_trained):
    qmap = quantize_params(tiny_trained.params, 8, "asymmetric")
    assert list(qmap) == tiny_trained.param_names()
    for name, v in qmap.items():
        if name.endswith(".weight"):
            assert isinstance(v, QuantizedTensor) and v.payload.dtype == np.uint8
        else:
            assert isinstance(v, np.ndarray) and v.dtype == np.float32
            np.testing.assert_array_equal(v, tiny_trained.params[name])
    with pytest.raises(ValueError, match="bits"):
        quantize_params(tiny_trained.params, 12)


def test_quantize_params_stores_32_bits_as_float32(tiny_trained):
    qmap = quantize_params(tiny_trained.params, 32, "symmetric")
    assert list(qmap) == tiny_trained.param_names()
    for name, v in qmap.items():
        if name.endswith(".weight"):
            assert isinstance(v, QuantizedTensor)
            assert v.params == QuantParams(bits=32, mode="float32")
            assert v.payload.dtype == np.float32
            np.testing.assert_array_equal(v.payload, tiny_trained.params[name])
        else:
            assert isinstance(v, np.ndarray) and v.dtype == np.float32
    # a float32 QuantizedTensor serializes as the plain float32 array does
    assert serialize_model(qmap) == serialize_model(tiny_trained.params)
    eval_model = stored_model(tiny_trained.params, 32)
    assert list(eval_model.params) == list(tiny_trained.params)
    for name, w in tiny_trained.params.items():
        got = eval_model.params[name]
        assert got.dtype == w.dtype and got.tobytes() == w.tobytes()


def test_stored_model_holds_the_dequantized_weights(tiny_trained):
    qmap = quantize_params(tiny_trained.params, 8, "symmetric")
    eval_model = stored_model(tiny_trained.params, 8, "symmetric")
    for name in tiny_trained.param_names():
        if name.endswith(".weight"):
            np.testing.assert_array_equal(eval_model.params[name],
                                          dequantize_tensor(qmap[name]))
            scale = qmap[name].params.scale
            err = np.abs(eval_model.params[name] - tiny_trained.params[name]).max()
            assert err <= scale / 2 + 1e-7
        else:
            np.testing.assert_array_equal(eval_model.params[name],
                                          tiny_trained.params[name])


def test_stored_float16_model_accuracy_is_close(tiny_trained, synth_test):
    from compresslab.nncore import evaluate_accuracy
    eval16 = stored_model(tiny_trained.params, 16)
    base = evaluate_accuracy(tiny_trained, synth_test)
    assert abs(evaluate_accuracy(eval16, synth_test) - base) <= 1.0


def test_sparse_weights_stay_zero_after_int8(tiny_trained):
    from compresslab.pruning import build_mask
    model = tiny_trained.copy()
    mask = build_mask(model.params, 0.9)
    mask.apply(model.params)
    eval_model = stored_model(model.params, 8, "asymmetric")
    for name, keep in mask.masks.items():
        assert (eval_model.params[name][~keep] == 0.0).all()


def test_quantize_params_rejects_an_already_quantized_map():
    params = {"0.weight": np.array([[0.5, -1.0]], dtype=np.float32),
              "0.bias": np.zeros(2, dtype=np.float32)}
    for bits in (8, 16, 32):
        qmap = quantize_params(params, bits)
        with pytest.raises(ValueError, match="tensor 0.weight is already quantized"):
            quantize_params(qmap, 8)


def test_quantize_params_checks_each_weight_once(monkeypatch):
    from compresslab import quantization
    calls = []
    check = quantization._check_weights

    def counting_check(w):
        calls.append(w)
        return check(w)

    monkeypatch.setattr(quantization, "_check_weights", counting_check)
    params = {"0.weight": np.ones((2, 2), dtype=np.float32),
              "0.bias": np.zeros(2, dtype=np.float32),
              "1.weight": np.arange(6, dtype=np.float32)}
    for bits in (8, 16):
        calls.clear()
        quantize_params(params, bits, "symmetric")
        assert len(calls) == 2
    with pytest.raises(ValueError, match="non-finite"):
        quantize_params({"0.weight": np.array([1.0, np.inf])}, 8)
    with pytest.raises(ValueError, match="mode must be asymmetric or symmetric"):
        quantize_params(params, 8, "affine")
