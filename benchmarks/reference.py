"""Checks that do not go through compresslab's own code paths.

``read_artifact`` parses the container format documented in the README
("Artifact format") with ``struct`` and ``zlib``; ``reference_accuracy`` is a
float64 numpy forward pass written from the two architecture descriptions.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f2"), 2: np.dtype("i1")}


@dataclass
class Tensor:
    dtype: np.dtype
    values: np.ndarray          # the stored payload, in its stored dtype
    scale: float | None = None  # int8 only: value = scale * (stored - zero_point)
    zero_point: int = 0

    def dequantized(self) -> np.ndarray:
        if self.scale is None:
            return self.values.astype(np.float64)
        return self.scale * (self.values.astype(np.float64) - self.zero_point)

    def zeros(self) -> int:
        """Entries whose value is exactly 0."""
        return int((self.values == (0 if self.scale is None else self.zero_point)).sum())


@dataclass
class Artifact:
    file_bytes: int
    payload: bytes       # the serialized container, after gunzip
    tensors: dict[str, Tensor]


def read_artifact(path: str) -> Artifact:
    with open(path, "rb") as f:
        raw = f.read()
    payload = zlib.decompress(raw, 31) if raw[:2] == b"\x1f\x8b" else raw
    if payload[:4] != b"MCMP":
        raise ValueError(f"{path}: bad magic")
    version, count = struct.unpack_from("<II", payload, 4)
    if version != 1:
        raise ValueError(f"{path}: format version {version}")
    pos = 12
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", payload, pos)
        name = payload[pos + 2:pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        code, flag, ndim = struct.unpack_from("<BBB", payload, pos)
        dims = struct.unpack_from(f"<{ndim}I", payload, pos + 3)
        pos += 3 + 4 * ndim
        scale = None
        zero_point = 0
        if flag:
            scale, zero_point = struct.unpack_from("<fi", payload, pos)
            pos += 8
        dtype = _DTYPES[code]
        n = math.prod(dims)
        values = np.frombuffer(payload, dtype, n, pos).reshape(dims)
        pos += n * dtype.itemsize
        tensors[name] = Tensor(dtype, values, scale, zero_point)
    if pos != len(payload):
        raise ValueError(f"{path}: {len(payload) - pos} trailing bytes")
    return Artifact(len(raw), payload, tensors)


def gzip9_size(payload: bytes) -> int:
    """Length of a level-9 gzip stream of ``payload``."""
    comp = zlib.compressobj(9, zlib.DEFLATED, 31)
    return len(comp.compress(payload)) + len(comp.flush())


# (kind, parameter prefix, padding); flatten is implicit before the dense layer
ARCHITECTURES = {
    "mnist-cnn": [("conv", "0", 0), ("pool",), ("dense", "4")],
    "cifar-smallnet": [("conv", "0", 1), ("pool",), ("conv", "3", 1), ("pool",),
                       ("dense", "7")],
}


def _conv_relu(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    # windows (n, oh, ow, c, kh, kw) against weights (kh, kw, c, f)
    windows = np.lib.stride_tricks.sliding_window_view(x, w.shape[:2], axis=(1, 2))
    return np.maximum(np.tensordot(windows, w, axes=([4, 5, 3], [0, 1, 2])) + b, 0.0)


def _logits(arch: str, params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    for layer in ARCHITECTURES[arch]:
        if layer[0] == "conv":
            x = _conv_relu(x, params[layer[1] + ".weight"], params[layer[1] + ".bias"],
                           layer[2])
        elif layer[0] == "pool":
            n, h, w, c = x.shape
            x = x.reshape(n, h // 2, 2, w // 2, 2, c).max(axis=(2, 4))
        else:
            x = x.reshape(len(x), -1) @ params[layer[1] + ".weight"] \
                + params[layer[1] + ".bias"]
    return x


def reference_accuracy(arch: str, artifact: Artifact, pixels: np.ndarray,
                       labels: np.ndarray, batch: int = 64) -> float:
    """Percent of ``pixels`` (uint8, NHWC) whose argmax class equals ``labels``."""
    params = {name: t.dequantized() for name, t in artifact.tensors.items()}
    correct = 0
    for start in range(0, len(labels), batch):
        x = pixels[start:start + batch].astype(np.float64) / 255.0
        pred = _logits(arch, params, x).argmax(axis=1)
        correct += int((pred == labels[start:start + batch]).sum())
    return 100.0 * correct / len(labels)


def check_artifact_file(path: str, art: Artifact, reported_size: int) -> list[str]:
    """File length equals the reported size and an independent recompression."""
    problems = []
    if art.file_bytes != reported_size:
        problems.append(f"{path}: {art.file_bytes} bytes on disk, {reported_size} reported")
    redone = gzip9_size(art.payload)
    if redone != art.file_bytes:
        problems.append(f"{path}: level-9 recompression gives {redone} bytes, "
                        f"file has {art.file_bytes}")
    return problems


def check_compressed_tensors(path: str, ref: dict[str, np.ndarray], art: Artifact,
                             sparsity: float) -> list[str]:
    """A 16- or 8-bit artifact against the float32 tensors it was made from.

    Every weight tensor keeps at least floor(s*M) zeros, float16 payloads are
    numpy's float16 cast of ``ref`` and int8 payloads dequantize to within
    half a step of ``ref``; other tensors are stored unchanged.
    """
    problems = []
    if list(art.tensors) != list(ref):
        return [f"{path}: tensors {list(art.tensors)}, expected {list(ref)}"]
    for name, t in art.tensors.items():
        w = ref[name]
        if t.values.shape != w.shape:
            problems.append(f"{path}: {name} has shape {t.values.shape}, expected {w.shape}")
            continue
        if not name.endswith(".weight"):
            if not np.array_equal(t.values, w):
                problems.append(f"{path}: {name} is not stored unchanged")
            continue
        need = math.floor(sparsity * w.size)
        if t.zeros() < need:
            problems.append(f"{path}: {name} has {t.zeros()} zeros, needs {need}")
        if t.dtype == np.float16:
            if not np.array_equal(t.values, w.astype(np.float16)):
                problems.append(f"{path}: {name} float16 payload differs from the cast")
        elif t.scale is not None:
            err = float(np.abs(t.dequantized() - w).max())
            if err > t.scale / 2 + 1e-7:
                problems.append(f"{path}: {name} dequantizes {err} from the weights, "
                                f"more than scale/2 = {t.scale / 2}")
        else:
            problems.append(f"{path}: {name} is stored as float32")
    return problems
