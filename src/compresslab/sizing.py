"""Artifact serialization and size measurement.

The on-disk tensor container is a little-endian binary format:

    magic "MCMP" | version u32 | tensor count u32
    per tensor:
        name_len u16, name bytes (UTF-8)
        dtype u8 (0 = float32, 1 = float16, 2 = int8)
        quant flag u8 (1 => scale float32 + zero_point int32 follow)
        ndim u8, then ndim dims as u32
        raw payload, little-endian

Quantized int8 payloads store v with value = scale * (v - zero_point);
asymmetric uint8 grids are shifted by -128 into that convention on write and
shifted back on read.  Sizes are measured as gzip (level 9) byte counts with
zeroed timestamp metadata, so they are reproducible.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .nncore import Model
from .quantization import QuantParams, QuantizedTensor

MAGIC = b"MCMP"
FORMAT_VERSION = 1
DTYPE_F32, DTYPE_F16, DTYPE_I8 = 0, 1, 2
_GZIP_CHUNK = 1 << 24


class ArtifactFormatError(ValueError):
    """An artifact byte stream failed structural validation."""


def _tensor_entries(payload) -> list[tuple[str, object]]:
    if isinstance(payload, Model):
        return [(name, payload.params[name]) for name in payload.param_names()]
    return list(payload.items())


def serialize_model(payload) -> bytes:
    """Serialize a Model or a {name: ndarray | QuantizedTensor} map to bytes.

    Deterministic: equal tensors in equal order produce identical bytes.
    """
    entries = _tensor_entries(payload)
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(entries))]
    for name, value in entries:
        name_bytes = name.encode("utf-8")
        if not 0 < len(name_bytes) <= 0xFFFF:
            raise ValueError(f"tensor name {name!r} must encode to 1..65535 bytes")
        if isinstance(value, QuantizedTensor):
            p = value.params
            if p.mode == "float16":
                dtype, flag, extra = DTYPE_F16, 0, b""
                raw = value.payload.astype("<f2", copy=False).tobytes()
            else:
                # shift asymmetric uint8 grids into the signed container convention
                if p.mode == "asymmetric":
                    stored = (value.payload.astype(np.int16) - 128).astype(np.int8)
                    zero_point = p.zero_point - 128
                else:
                    stored = value.payload.astype(np.int8, copy=False)
                    zero_point = p.zero_point
                dtype, flag = DTYPE_I8, 1
                extra = struct.pack("<fi", p.scale, zero_point)
                raw = stored.tobytes()
            shape = value.shape
        else:
            arr = np.asarray(value)
            if arr.dtype == np.float16:
                dtype, flag, extra = DTYPE_F16, 0, b""
                raw = arr.astype("<f2", copy=False).tobytes()
            else:
                arr = arr.astype(np.float32, copy=False)
                dtype, flag, extra = DTYPE_F32, 0, b""
                raw = arr.astype("<f4", copy=False).tobytes()
            shape = arr.shape
        if len(shape) > 0xFF:
            raise ValueError(f"tensor {name}: too many dimensions ({len(shape)})")
        chunks.append(struct.pack("<H", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<BBB", dtype, flag, len(shape)))
        chunks.append(struct.pack(f"<{len(shape)}I", *shape))
        chunks.append(extra)
        chunks.append(raw)
    return b"".join(chunks)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise ArtifactFormatError(
                f"truncated artifact: need {n} bytes for {what} at offset {self.pos}, "
                f"have {len(self.data) - self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def parse_model_bytes(data: bytes) -> dict:
    """Strict inverse of serialize_model; returns {name: ndarray | QuantizedTensor}."""
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise ArtifactFormatError(f"bad magic at offset 0, expected {MAGIC!r}")
    version, count = r.unpack("<II", "header")
    if version != FORMAT_VERSION:
        raise ArtifactFormatError(f"unsupported format version {version} at offset 4")
    out: dict = {}
    for t in range(count):
        at = r.pos
        try:
            (name_len,) = r.unpack("<H", f"tensor {t} name length")
            name = r.take(name_len, f"tensor {t} name").decode("utf-8")
            if name in out:
                raise ArtifactFormatError(f"duplicate tensor name {name!r} at offset {r.pos}")
            dtype, flag, ndim = r.unpack("<BBB", f"tensor {name} header")
            dims = r.unpack(f"<{ndim}I", f"tensor {name} dims")
            size = math.prod(dims)
            if flag not in (0, 1):
                raise ArtifactFormatError(f"tensor {name}: bad quant flag {flag}")
            if flag == 1 and dtype != DTYPE_I8:
                raise ArtifactFormatError(f"tensor {name}: quant flag on non-int8 dtype {dtype}")
            if flag == 0 and dtype == DTYPE_I8:
                raise ArtifactFormatError(f"tensor {name}: int8 payload without quant parameters")
            if dtype == DTYPE_I8:
                scale, zero_point = r.unpack("<fi", f"tensor {name} quant params")
                raw = r.take(size, f"tensor {name} payload")
                stored = np.frombuffer(raw, dtype=np.int8).reshape(dims)
                if zero_point == 0:
                    params = QuantParams(bits=8, mode="symmetric", scale=float(scale))
                    payload = stored
                else:
                    if not -128 <= zero_point <= 127:
                        raise ArtifactFormatError(
                            f"tensor {name}: zero point {zero_point} outside the int8 container")
                    params = QuantParams(bits=8, mode="asymmetric", scale=float(scale),
                                         zero_point=zero_point + 128)
                    payload = (stored.astype(np.int16) + 128).astype(np.uint8)
                out[name] = QuantizedTensor(shape=tuple(dims), params=params, payload=payload)
            elif dtype == DTYPE_F16:
                raw = r.take(2 * size, f"tensor {name} payload")
                payload = np.frombuffer(raw, dtype="<f2").reshape(dims)
                out[name] = QuantizedTensor(shape=tuple(dims),
                                            params=QuantParams(bits=16, mode="float16"),
                                            payload=payload)
            elif dtype == DTYPE_F32:
                raw = r.take(4 * size, f"tensor {name} payload")
                out[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(np.float32)
            else:
                raise ArtifactFormatError(f"tensor {name}: unknown dtype code {dtype}")
        except ArtifactFormatError:
            raise
        except ValueError as e:  # a non-UTF-8 name, numpy's shape limits, a bad scale
            raise ArtifactFormatError(f"tensor {t} at offset {at}: {e}") from None
    if r.pos != len(data):
        raise ArtifactFormatError(
            f"{len(data) - r.pos} trailing bytes after the last tensor at offset {r.pos}")
    return out


def _gzip_parts(data: bytes):
    """The level-9 gzip stream for ``data`` (zeroed mtime, no filename), piece by piece."""
    comp = zlib.compressobj(9, zlib.DEFLATED, 31)
    for start in range(0, len(data), _GZIP_CHUNK):
        yield comp.compress(data[start:start + _GZIP_CHUNK])
    yield comp.flush()


def gzip_compress(data: bytes) -> bytes:
    """Level-9 gzip bytes with zeroed mtime and no filename, for reproducible sizes."""
    return b"".join(_gzip_parts(data))


def gzipped_size(data: bytes) -> int:
    """Size in bytes of the reproducible gzip stream for ``data``."""
    return sum(len(part) for part in _gzip_parts(data))


def reduction_factor(baseline_size: int, model_size: int) -> float:
    """baseline bytes / compressed bytes; both must be positive."""
    if baseline_size <= 0 or model_size <= 0:
        raise ValueError(
            f"sizes must be positive, got baseline={baseline_size}, model={model_size}")
    return baseline_size / model_size


def save_artifact(path: str, payload) -> int:
    """Serialize to ``path`` (gzipped when it ends in .gz); returns bytes written."""
    data = serialize_model(payload)
    if str(path).endswith(".gz"):
        data = gzip_compress(data)
    with open(path, "wb") as f:
        f.write(data)
    return len(data)


def load_artifact(path: str) -> dict:
    """Read a serialized artifact (gzip detected by magic) back to a tensor map."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = zlib.decompress(raw, 31)
        except zlib.error as e:
            raise ArtifactFormatError(f"{path}: corrupt gzip stream: {e}") from None
    return parse_model_bytes(raw)
