"""Artifact serialization and size measurement.

The on-disk tensor container is a little-endian binary format:

    magic "MCMP" | version u32 | tensor count u32
    per tensor:
        name_len u16, name bytes (UTF-8)
        dtype code u8, quant flag u8 (1 => scale float32 + zero_point int32 follow)
        ndim u8, then ndim dims as u32
        raw payload, little-endian

Each storage mode's dtype code, quant flag and payload encoding come from
the codec table in ``quantization``; serialize_model and parse_model_bytes
only read it.  Sizes are measured as gzip (level 9) byte counts with zeroed
timestamp metadata, so they are reproducible.

gzip_compress and gzipped_size share one compressor that remembers its last
input and stream, so sizing then saving a payload compresses it once.  A
repeat is exact byte equality; the pair stays until another stream replaces
it, from either sweep lane (a miss costs nothing: each cell is gzipped once).
load_artifact reads gzip through the dataset loaders' one reader; artifacts,
like the sweep's results.csv and failures.log, are written whole or not at
all (``_write_file``).
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import struct
import zlib

import numpy as np

from .datasets import _read_file
from .quantization import _CODECS, _FLOAT16, _FLOAT32, QuantParams, QuantizedTensor

MAGIC = b"MCMP"
FORMAT_VERSION = 1


class ArtifactFormatError(ValueError):
    """An artifact byte stream failed structural validation."""


def serialize_model(tensors: dict) -> bytes:
    """Serialize a {name: ndarray | QuantizedTensor} map to bytes, in its
    iteration order (a Model's ``params`` are in parameter order).

    Deterministic: equal tensors in equal order produce identical bytes.
    """
    chunks = [MAGIC, struct.pack("<II", FORMAT_VERSION, len(tensors))]
    for name, value in tensors.items():
        name_bytes = name.encode("utf-8")
        if not 0 < len(name_bytes) <= 0xFFFF:
            raise ValueError(f"tensor name {name!r} must encode to 1..65535 bytes")
        if not isinstance(value, QuantizedTensor):  # a plain array keeps float16
            arr = np.asarray(value)
            value = QuantizedTensor(_FLOAT16 if arr.dtype == np.float16 else _FLOAT32, arr)
        p, codec, shape = value.params, _CODECS[value.params.mode], value.payload.shape
        chunks += [struct.pack("<H", len(name_bytes)), name_bytes,
                   struct.pack(f"<BBB{len(shape)}I", codec.code, codec.flag, len(shape), *shape)]
        if codec.flag:
            chunks.append(struct.pack("<fi", p.scale, p.zero_point - codec.shift))
        stored = value.payload.astype(codec.payload, copy=False)
        chunks.append((stored ^ codec.shift if codec.shift else stored).tobytes())
    return b"".join(chunks)


# dtype code -> quant flag, and (dtype code, stored zero point != 0) -> (mode, codec):
# a symmetric tensor stores zero point 0 and an asymmetric one its zero point - 128
_FLAGS = {codec.code: codec.flag for codec in _CODECS.values()}
_DECODE = {(codec.code, codec.shift != 0): (mode, codec) for mode, codec in _CODECS.items()}


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
            if not name_len:
                raise ArtifactFormatError(f"tensor {t}: empty name at offset {at}")
            name = r.take(name_len, f"tensor {t} name").decode("utf-8")
            if name in out:
                raise ArtifactFormatError(f"duplicate tensor name {name!r} at offset {r.pos}")
            dtype, flag, ndim = r.unpack("<BBB", f"tensor {name} header")
            dims = r.unpack(f"<{ndim}I", f"tensor {name} dims")
            if dtype not in _FLAGS:
                raise ArtifactFormatError(f"tensor {name}: unknown dtype code {dtype}")
            if flag != _FLAGS[dtype]:
                found = "without quant parameters" if flag == 0 else f"with quant flag {flag}"
                raise ArtifactFormatError(f"tensor {name}: dtype code {dtype} {found}")
            scale, zero_point = (r.unpack("<fi", f"tensor {name} quant params") if flag
                                 else (1.0, 0))
            mode, codec = _DECODE[dtype, zero_point != 0]
            raw = r.take(math.prod(dims) * codec.payload.itemsize, f"tensor {name} payload")
            payload = np.frombuffer(raw, dtype=codec.payload).reshape(dims)
            payload = payload ^ codec.shift if codec.shift else payload
            params = QuantParams(codec.bits, mode, scale, zero_point + codec.shift)
            out[name] = payload.astype(np.float32) if params == _FLOAT32 \
                else QuantizedTensor(params, payload)
        except ArtifactFormatError:
            raise
        except ValueError as e:  # a non-UTF-8 name, numpy's shape limits, a bad scale
            raise ArtifactFormatError(f"tensor {t} at offset {at}: {e}") from None
    if r.pos != len(data):
        raise ArtifactFormatError(
            f"{len(data) - r.pos} trailing bytes after the last tensor at offset {r.pos}")
    return out


@functools.lru_cache(maxsize=1)
def _gzip(data: bytes) -> bytes:
    """The level-9 gzip stream for ``data`` (zeroed mtime, no filename).

    Memoized on the last input, so sizing a payload and then saving it
    compresses it once.
    """
    comp = zlib.compressobj(9, zlib.DEFLATED, 31)
    return comp.compress(data) + comp.flush()


def _frozen(data) -> bytes:
    """``data`` as bytes: a bytes object as is, any other buffer as a snapshot,
    so a buffer changed after the call can never match the memo."""
    return data if type(data) is bytes else bytes(memoryview(data))


def gzip_compress(data: bytes) -> bytes:
    """Level-9 gzip bytes with zeroed mtime and no filename, for reproducible sizes."""
    return _gzip(_frozen(data))


def gzipped_size(data: bytes) -> int:
    """Size in bytes of the reproducible gzip stream for ``data``."""
    return len(_gzip(_frozen(data)))


def reduction_factor(baseline_size: int, model_size: int) -> float:
    """baseline bytes / compressed bytes; both must be positive."""
    if baseline_size <= 0 or model_size <= 0:
        raise ValueError(
            f"sizes must be positive, got baseline={baseline_size}, model={model_size}")
    return baseline_size / model_size


def save_artifact(path: str, tensors: dict) -> int:
    """Serialize a tensor map to ``path`` (gzipped when it ends in .gz);
    returns bytes written."""
    data = serialize_model(tensors)
    if str(path).endswith(".gz"):
        data = gzip_compress(data)
    _write_file(path, data)
    return len(data)


def _write_file(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` + ".tmp", then move it over ``path``, so a
    write that fails midway leaves neither a partial ``path`` (an older one
    stays whole) nor the temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_artifact(path: str) -> dict:
    """Read a serialized artifact (gzip detected by magic) back to a tensor map.
    Bytes after the gzip stream other than NUL padding are rejected, a second
    member included: it is inflated, then refused as trailing bytes."""
    return parse_model_bytes(_read_file(path, ArtifactFormatError))
