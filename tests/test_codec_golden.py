"""Frozen golden: the artifact bytes of every storage mode must not move.

A seeded tensor map holds one entry per way a tensor reaches the container:
a float32 array, a float16 array, ``quantize_tensor`` at float16, asymmetric and
symmetric int8, an asymmetric tensor whose zero point is 128 (it reads back
as symmetric), a constant negative tensor (zero point 255), all-zero tensors
and 0-d tensors.  The test checks the sha256 of ``serialize_model``'s bytes
and of each parsed tensor's dequantized float32 values.  The hashes were
recorded before the codecs were rewritten and are never regenerated to cover
a change that was meant to keep the bytes.
"""

import hashlib

import numpy as np

from compresslab.quantization import (QuantParams, compute_quant_params, dequantize_tensor,
                                      quantize_tensor)
from compresslab.sizing import parse_model_bytes, serialize_model


def _quantized(w, mode):
    return quantize_tensor(w, compute_quant_params(w, 8, mode))


def codec_map() -> dict:
    rng = np.random.default_rng(2024)
    w = (rng.standard_normal((6, 5)) * 0.3).astype(np.float32)
    skewed = (rng.standard_normal(40) * 0.2 + 0.05).astype(np.float32)
    midpoint = QuantParams(bits=8, mode="asymmetric",
                           scale=float(np.float32(0.8 / 255)), zero_point=128)
    zeros = np.zeros((3, 4), dtype=np.float32)
    scalar = np.array(-0.75, dtype=np.float32)
    return {
        "f32": w,
        "f16_array": w.astype(np.float16),
        "f16_convert": quantize_tensor(w, QuantParams(16, "float16")),
        "asym": _quantized(skewed, "asymmetric"),
        "sym": _quantized(w, "symmetric"),
        "asym_zp128": quantize_tensor(w, midpoint),
        "asym_const_neg": _quantized(np.full((2, 3), -1.25, dtype=np.float32),
                                     "asymmetric"),
        "zeros_f32": zeros,
        "zeros_asym": _quantized(zeros, "asymmetric"),
        "zeros_sym": _quantized(zeros, "symmetric"),
        "scalar_f32": scalar,
        "scalar_asym": _quantized(scalar, "asymmetric"),
        "scalar_sym": _quantized(scalar, "symmetric"),
    }


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GOLDEN_BYTES = "2138c7fcdb97b3fe85ad71f134197e86ffa742dcb49cfcc4f4188c124fa6b857"

_F16 = "f206db62f6ee163f8cf3fca67b4f6bc12ee253f82011deb142d24c79feac5b9c"
_ZEROS = "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1"
_SCALAR = "accdb4bb2acbc6f54c90bfd9199701013573082c919461ac70872e410a4bd44d"

# name -> (parsed mode, or "array" for a plain float32 array; value sha256)
GOLDEN_VALUES = {
    "f32": ("array", "b189128263f04d6c51f3abd9fbb649eea8788a23277c6942d254421dcf001d47"),
    "f16_array": ("float16", _F16),
    "f16_convert": ("float16", _F16),
    "asym": ("asymmetric", "18581727dc062354b78c635fa235b0234cdac9737ebf9016337e6e77a156980a"),
    "sym": ("symmetric", "3d536ce3377aec799d63f1b948e4f76e53359d104c73d7d9d2ed6f885acf736a"),
    "asym_zp128": ("symmetric", "f19bb9c41b19e8fb9cfff89c3a4ee1b76db5a749c6fbd7890b8c725307a3bcc3"),
    "asym_const_neg": ("asymmetric",
                       "245e011bcb07aa75b848b992aee436799de72dd65a76925c84c53b680dc76e54"),
    "zeros_f32": ("array", _ZEROS),
    "zeros_asym": ("asymmetric", _ZEROS),
    "zeros_sym": ("symmetric", _ZEROS),
    "scalar_f32": ("array", _SCALAR),
    "scalar_asym": ("asymmetric", _SCALAR),
    "scalar_sym": ("symmetric", _SCALAR),
}


def test_codec_bytes_and_values_match_frozen_hashes():
    tensors = codec_map()
    assert tensors["asym_zp128"].params.zero_point == 128
    assert tensors["asym_const_neg"].params.zero_point == 255
    data = serialize_model(tensors)
    parsed = parse_model_bytes(data)
    values = {}
    for name, value in parsed.items():
        if isinstance(value, np.ndarray):
            mode, deq = "array", value
        else:
            mode, deq = value.params.mode, dequantize_tensor(value)
        assert deq.dtype == np.float32
        values[name] = (mode, _sha(np.ascontiguousarray(deq).tobytes()))
    assert list(parsed) == list(tensors)
    assert _sha(data) == GOLDEN_BYTES
    assert values == GOLDEN_VALUES
