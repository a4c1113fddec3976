"""Post-training quantization: asymmetric uint8, symmetric int8 (the
scale/zero-point scheme of Jacob et al., arXiv:1712.05877) and float16
conversion, all per-tensor with round-half-to-even.  Each storage mode is
defined once, in ``_CODECS``, which the artifact codec in ``sizing`` reads too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class _Codec(NamedTuple):
    bits: int
    payload: np.dtype                # in-memory payload dtype, little-endian
    grid: tuple[int, int] | None     # the integer grid; None for a float mode
    zero_points: tuple[int, int]     # the zero points QuantParams accepts
    code: int                        # artifact dtype code
    flag: int                        # artifact quant flag: 1 => scale and zero point follow
    shift: int                       # stored byte = payload ^ shift, zero point - shift


_CODECS = {
    "float32": _Codec(32, np.dtype("<f4"), None, (0, 0), 0, 0, 0),
    "float16": _Codec(16, np.dtype("<f2"), None, (0, 0), 1, 0, 0),
    # uint8 payloads are stored as int8: a -128 shift, which is a flip of the top bit
    "asymmetric": _Codec(8, np.dtype("u1"), (0, 255), (0, 255), 2, 1, 128),
    "symmetric": _Codec(8, np.dtype("i1"), (-127, 127), (0, 0), 2, 1, 0),  # no -128
}

# the storage widths and the modes of 8-bit quantization (the first is the default)
VALID_BITS = tuple(sorted({codec.bits for codec in _CODECS.values()}))
INT8_MODES = tuple(mode for mode, codec in _CODECS.items() if codec.bits == 8)


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor quantization parameters."""

    bits: int
    mode: str
    scale: float = 1.0
    zero_point: int = 0

    def __post_init__(self):
        codec = _CODECS.get(self.mode)
        if codec is None:
            raise ValueError(f"unknown quantization mode {self.mode!r}")
        if self.bits != codec.bits:
            raise ValueError(f"{self.mode} mode requires bits={codec.bits}, got {self.bits}")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not isinstance(self.zero_point, (int, np.integer)):
            raise ValueError(f"zero_point must be an integer, got {self.zero_point!r}")
        object.__setattr__(self, "zero_point", int(self.zero_point))  # a numpy uint8 would wrap
        lo, hi = codec.zero_points
        if not lo <= self.zero_point <= hi:
            raise ValueError(f"{self.mode} zero_point {self.zero_point} lies outside [{lo}, {hi}]")


_FLOAT32 = QuantParams(bits=32, mode="float32")
_FLOAT16 = QuantParams(bits=16, mode="float16")
_FLOATS = {32: _FLOAT32, 16: _FLOAT16}


@dataclass
class QuantizedTensor:
    """Quantized payload plus the parameters needed to dequantize it."""

    params: QuantParams
    payload: np.ndarray


def _check_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights)
    if w.size == 0:
        raise ValueError("cannot quantize an empty tensor")
    if not np.all(np.isfinite(w)):
        raise ValueError("tensor contains non-finite values")
    return w


def compute_quant_params(weights: np.ndarray, bits: int = 8,
                         mode: str = INT8_MODES[0]) -> QuantParams:
    """Derive scale/zero-point from a tensor's value range.

    The asymmetric range is widened to include zero so that exact zeros
    always round-trip exactly.  An all-equal tensor gets scale=|c| (or 1 when
    c=0) with the zero point at the far end of the grid, which makes the
    constant round-trip exactly in both modes.
    """
    if bits != 8:
        raise ValueError(f"int8 quantization requires bits=8, got {bits}")
    return _fit_params(_check_weights(weights), mode)


def _fit_params(w: np.ndarray, mode: str) -> QuantParams:
    if mode not in INT8_MODES:
        raise ValueError(f"mode must be {' or '.join(INT8_MODES)}, got {mode!r}")
    codec = _CODECS[mode]
    (qmin, qmax), (zmin, zmax) = codec.grid, codec.zero_points
    lo, hi = float(w.min()), float(w.max())
    # scales are held at float32 precision, matching their serialized width,
    # so artifacts round-trip bit-exactly
    if lo == hi:
        if lo == 0.0:
            return QuantParams(bits=codec.bits, mode=mode)
        return QuantParams(bits=codec.bits, mode=mode, scale=float(np.float32(abs(lo))),
                           zero_point=zmin if lo > 0 else zmax)
    if zmin == zmax:  # a fixed zero point: the range is symmetric about zero
        rmax = max(-lo, hi)
        rmin = -rmax
    else:             # a free zero point: the range is widened to include zero
        rmin, rmax = min(lo, 0.0), max(hi, 0.0)
    scale = float(np.float32((rmax - rmin) / (qmax - qmin)))
    zero_point = int(np.clip(np.rint(qmin - rmin / scale), zmin, zmax))
    return QuantParams(bits=codec.bits, mode=mode, scale=scale, zero_point=zero_point)


def _quantize(w: np.ndarray, params: QuantParams, name: str) -> QuantizedTensor:
    """``w`` as ``params`` stores it; ``w`` has passed ``_check_weights``."""
    codec = _CODECS[params.mode]
    if codec.grid is None:
        limit, peak = float(np.finfo(codec.payload).max), float(np.abs(w).max())
        if peak > limit:
            raise ValueError(
                f"{name}: magnitude {peak:g} exceeds the {params.mode} range ({limit:g})")
        return QuantizedTensor(params, w.astype(codec.payload))
    q = np.rint(w.astype(np.float64) / params.scale) + params.zero_point
    return QuantizedTensor(params, np.clip(q, *codec.grid).astype(codec.payload))


def quantize_tensor(weights: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """Map floats onto the int8 grid (round half to even, then clamp)."""
    return _quantize(_check_weights(weights), params, "tensor")


def dequantize_tensor(qt: QuantizedTensor) -> np.ndarray:
    """Back to float32: scale * (q - zero_point), or a float widen."""
    p = qt.params
    if _CODECS[p.mode].grid is None:
        return qt.payload.astype(np.float32)
    return (p.scale * (qt.payload.astype(np.float64) - p.zero_point)).astype(np.float32)


def convert_float16(weights: np.ndarray, name: str = "tensor") -> QuantizedTensor:
    """IEEE binary16 conversion (round to nearest even); overflow is an error."""
    return _quantize(_check_weights(weights), _FLOAT16, name)


def quantize_params(params: dict[str, np.ndarray], bits: int,
                    mode: str = INT8_MODES[0]) -> dict:
    """Store every ``*.weight`` tensor per-tensor at ``bits``; other tensors pass through.

    ``bits`` 32 stores weights as float32 and 16 as float16, both ignoring
    ``mode``; 8 quantizes them in ``mode``.  Returns a name-keyed map of
    QuantizedTensor (weights) and float32 ndarrays (biases), in the input's
    iteration order.  A map that already holds a QuantizedTensor is an error.
    """
    if bits not in VALID_BITS:
        raise ValueError(f"bits must be one of {VALID_BITS}, got {bits}")
    out = {}
    for name, arr in params.items():
        if isinstance(arr, QuantizedTensor):
            raise ValueError(f"tensor {name} is already quantized; quantize_params takes floats")
        if not name.endswith(".weight"):
            out[name] = np.asarray(arr, dtype=np.float32)
            continue
        w = _check_weights(arr)
        out[name] = _quantize(w, _fit_params(w, mode) if bits == 8 else _FLOATS[bits], name)
    return out


def dequantize_params(tensors: dict) -> dict:
    """Float32 copies of a tensor map, with every QuantizedTensor dequantized."""
    return {name: dequantize_tensor(v) if isinstance(v, QuantizedTensor)
            else np.array(v, dtype=np.float32) for name, v in tensors.items()}
