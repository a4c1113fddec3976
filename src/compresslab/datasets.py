"""Loaders for MNIST (IDX files) and CIFAR-10 (binary batches).

Both return float32 images in [0, 1] with NHWC layout and int64 labels in
[0, 10).  Files may be plain or gzip-compressed; malformed files raise
DatasetFormatError naming the file and byte offset.  ``_read_file`` is the
package's one gzip reader; ``sizing.load_artifact`` reads through it too.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

CIFAR10_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR10_TEST_FILES = ["test_batch.bin"]
CIFAR10_RECORD = 3073  # 1 label byte + 3*32*32 pixel bytes


class DatasetFormatError(ValueError):
    """A dataset file failed structural validation."""


@dataclass
class DatasetSplit:
    """Images (N, H, W, C) float32 in [0, 1] and labels (N,) int64."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, H, W, C), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {self.images.shape[0]} images")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, idx) -> "DatasetSplit":
        return DatasetSplit(self.images[idx], self.labels[idx])


def _read_file(path: str, error: type[ValueError] = DatasetFormatError) -> bytes:
    """``path``'s bytes, gunzipped if they start with the gzip magic.  All
    members are read and NUL padding is allowed, as in the stdlib gzip module;
    other trailing bytes, a cut stream or a bad CRC raise ``error``."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as e:
            raise error(f"{path}: corrupt gzip stream: {e}") from None
    return raw


def _find_file(directory: str, name: str) -> str:
    """Accept the plain file or its .gz sibling, whichever exists."""
    for candidate in (name, name + ".gz"):
        path = os.path.join(directory, candidate)
        if os.path.isfile(path):
            return path
    raise FileNotFoundError(
        f"missing dataset file {name} (or {name}.gz) in {directory}")


def _read_idx(path: str, magic: int) -> np.ndarray:
    raw = _read_file(path)
    header = 4 + 4 * (magic & 0xFF)  # the magic's low byte counts the u32 dims
    if len(raw) < header:
        raise DatasetFormatError(
            f"{path}: truncated header at offset {len(raw)}, need {header} bytes")
    found, *dims = struct.unpack(f">{header // 4}I", raw[:header])
    if found != magic:
        raise DatasetFormatError(
            f"{path}: bad magic 0x{found:08x} at offset 0, expected 0x{magic:08x}")
    expected = header + math.prod(dims)
    if len(raw) != expected:
        raise DatasetFormatError(
            f"{path}: payload length {len(raw)} does not match header, expected {expected}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)


def _labels(path: str, labels: np.ndarray, first: int, stride: int) -> np.ndarray:
    """``labels`` as int64; label i is byte ``first + i * stride`` of the file."""
    if labels.size and labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise DatasetFormatError(
            f"{path}: label {labels[bad]} at offset {first + bad * stride} is outside [0, 9]")
    return labels.astype(np.int64)


def _scale(images: np.ndarray) -> np.ndarray:
    # byte 255 maps exactly to 1.0
    return images.astype(np.float32) / np.float32(255)


def load_mnist(directory: str) -> tuple[DatasetSplit, DatasetSplit]:
    """Load the four canonical IDX files from ``directory``; (train, test)."""
    splits = []
    for img_key, lbl_key in (("train_images", "train_labels"), ("test_images", "test_labels")):
        img_path = _find_file(directory, MNIST_FILES[img_key])
        lbl_path = _find_file(directory, MNIST_FILES[lbl_key])
        images = _read_idx(img_path, IDX_IMAGES_MAGIC)[..., None]
        labels = _labels(lbl_path, _read_idx(lbl_path, IDX_LABELS_MAGIC), 8, 1)
        if images.shape[1:3] != (28, 28):
            raise DatasetFormatError(
                f"{img_path}: images are {images.shape[1]}x{images.shape[2]}, expected 28x28")
        if images.shape[0] != labels.shape[0]:
            raise DatasetFormatError(
                f"{img_path}: {images.shape[0]} images but {labels.shape[0]} labels in {lbl_path}")
        splits.append(DatasetSplit(_scale(images), labels))
    return splits[0], splits[1]


def _read_cifar_batch(path: str) -> tuple[np.ndarray, np.ndarray]:
    raw = _read_file(path)
    if len(raw) == 0 or len(raw) % CIFAR10_RECORD:
        raise DatasetFormatError(
            f"{path}: length {len(raw)} is not a positive multiple of {CIFAR10_RECORD}")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR10_RECORD)
    # stored channel-planar R,G,B; convert to HWC
    images = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    return images, _labels(path, records[:, 0], 0, CIFAR10_RECORD)


def load_cifar10(directory: str) -> tuple[DatasetSplit, DatasetSplit]:
    """Load the binary-format batches from ``directory``; (train, test)."""
    # the canonical archive unpacks into cifar-10-batches-bin/
    nested = os.path.join(directory, "cifar-10-batches-bin")
    if not os.path.isfile(os.path.join(directory, CIFAR10_TRAIN_FILES[0])) \
            and os.path.isdir(nested):
        directory = nested
    splits = []
    for names in (CIFAR10_TRAIN_FILES, CIFAR10_TEST_FILES):
        images, labels = zip(*(_read_cifar_batch(_find_file(directory, name))
                               for name in names))
        splits.append(DatasetSplit(_scale(np.concatenate(images)), np.concatenate(labels)))
    return splits[0], splits[1]
