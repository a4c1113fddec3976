"""Post-training quantization: asymmetric uint8, symmetric int8, and
float16 conversion, all per-tensor with round-half-to-even.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nncore import Model

ASYM_LEVELS = 255          # uint8 grid 0..255
SYM_QMAX = 127             # int8 grid -127..127 (no -128)
FLOAT16_MAX = 65504.0

MODES = ("asymmetric", "symmetric", "float16")


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor quantization parameters."""

    bits: int
    mode: str
    scale: float = 1.0
    zero_point: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown quantization mode {self.mode!r}")
        if self.mode == "float16":
            if self.bits != 16:
                raise ValueError(f"float16 mode requires bits=16, got {self.bits}")
            return
        if self.bits != 8:
            raise ValueError(f"int8 modes require bits=8, got {self.bits}")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.mode == "symmetric" and self.zero_point != 0:
            raise ValueError(f"symmetric zero_point must be 0, got {self.zero_point}")
        if self.mode == "asymmetric" and not 0 <= self.zero_point <= ASYM_LEVELS:
            raise ValueError(f"asymmetric zero_point must lie in [0, 255], got {self.zero_point}")


@dataclass
class QuantizedTensor:
    """Quantized payload plus the parameters needed to dequantize it."""

    shape: tuple[int, ...]
    params: QuantParams
    payload: np.ndarray

    def __post_init__(self):
        self.shape = tuple(self.shape)
        if self.payload.shape != self.shape:
            raise ValueError(f"payload shape {self.payload.shape} != declared {self.shape}")


def _check_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights)
    if w.size == 0:
        raise ValueError("cannot quantize an empty tensor")
    if not np.all(np.isfinite(w)):
        raise ValueError("tensor contains non-finite values")
    return w


def compute_quant_params(weights: np.ndarray, bits: int = 8,
                         mode: str = "asymmetric") -> QuantParams:
    """Derive scale/zero-point from a tensor's value range.

    The asymmetric range is widened to include zero so that exact zeros
    always round-trip exactly.  An all-equal tensor gets scale=|c| (or 1 when
    c=0) with the zero point at the far end of the grid, which makes the
    constant round-trip exactly in both modes.
    """
    if bits != 8:
        raise ValueError(f"int8 quantization requires bits=8, got {bits}")
    if mode not in ("asymmetric", "symmetric"):
        raise ValueError(f"mode must be asymmetric or symmetric, got {mode!r}")
    w = _check_weights(weights)
    lo, hi = float(w.min()), float(w.max())
    # scales are held at float32 precision, matching their serialized width,
    # so artifacts round-trip bit-exactly
    if lo == hi:
        c = lo
        if c == 0.0:
            return QuantParams(bits=8, mode=mode, scale=1.0, zero_point=0)
        scale = float(np.float32(abs(c)))
        if mode == "symmetric":
            return QuantParams(bits=8, mode=mode, scale=scale, zero_point=0)
        return QuantParams(bits=8, mode=mode, scale=scale,
                           zero_point=0 if c > 0 else ASYM_LEVELS)
    if mode == "symmetric":
        scale = float(np.float32(max(abs(lo), abs(hi)) / SYM_QMAX))
        return QuantParams(bits=8, mode=mode, scale=scale, zero_point=0)
    rmin, rmax = min(lo, 0.0), max(hi, 0.0)
    scale = float(np.float32((rmax - rmin) / ASYM_LEVELS))
    zero_point = int(np.clip(np.rint(-rmin / scale), 0, ASYM_LEVELS))
    return QuantParams(bits=8, mode=mode, scale=scale, zero_point=zero_point)


def quantize_tensor(weights: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Map floats onto the int8 grid (round half to even, then clamp)."""
    w = _check_weights(weights)
    if params.mode == "float16":
        return convert_float16(w)
    q = np.rint(w.astype(np.float64) / params.scale)
    if params.mode == "asymmetric":
        payload = np.clip(q + params.zero_point, 0, ASYM_LEVELS).astype(np.uint8)
    else:
        payload = np.clip(q, -SYM_QMAX, SYM_QMAX).astype(np.int8)
    return QuantizedTensor(shape=w.shape, params=params, payload=payload)


def dequantize_tensor(qt: QuantizedTensor) -> np.ndarray:
    """Back to float32: scale * (q - zero_point), or a float16 widen."""
    if qt.params.mode == "float16":
        return qt.payload.astype(np.float32)
    q = qt.payload.astype(np.float64)
    return (qt.params.scale * (q - qt.params.zero_point)).astype(np.float32)


def convert_float16(weights: np.ndarray, name: str = "tensor") -> QuantizedTensor:
    """IEEE binary16 conversion (round to nearest even); overflow is an error."""
    w = _check_weights(weights)
    peak = float(np.abs(w).max())
    if peak > FLOAT16_MAX:
        raise ValueError(
            f"{name}: magnitude {peak:g} exceeds the float16 range ({FLOAT16_MAX:g})")
    return QuantizedTensor(shape=w.shape, params=QuantParams(bits=16, mode="float16"),
                           payload=w.astype(np.float16))


def quantize_params(params: dict[str, np.ndarray], bits: int,
                    mode: str = "asymmetric") -> dict:
    """Quantize every ``*.weight`` tensor per-tensor; other tensors pass through.

    Returns a name-keyed map of QuantizedTensor (weights) and float32
    ndarrays (biases), in the input's iteration order.
    """
    if bits not in (8, 16):
        raise ValueError(f"bits must be 8 or 16, got {bits}")
    out = {}
    for name, arr in params.items():
        if not name.endswith(".weight"):
            out[name] = np.asarray(arr, dtype=np.float32)
            continue
        if bits == 16:
            out[name] = convert_float16(arr, name=name)
        else:
            out[name] = quantize_tensor(arr, compute_quant_params(arr, 8, mode))
    return out


def quantize_model(model: Model, bits: int, mode: str = "asymmetric"):
    """Per-tensor weight quantization of a whole model.

    Returns (quantized parameter map, evaluation model) where the evaluation
    model holds the dequantized float32 weights, so its accuracy is exactly
    what the quantized artifact delivers.
    """
    qmap = quantize_params(model.params, bits, mode)
    eval_params = {name: dequantize_tensor(v) if isinstance(v, QuantizedTensor) else v.copy()
                   for name, v in qmap.items()}
    return qmap, replace(model, params=eval_params)
