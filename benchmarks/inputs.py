"""Synthetic inputs for the benchmark workloads, all derived from one seed.

Every generator takes a numpy Generator, so the same seed gives the same
bytes.  The images are built to be learnable but not trivially so: a class is
a fixed blend of smooth blobs, and each example is that prototype shifted,
dimmed and drowned in Gaussian noise, so a short training run reaches a
middling accuracy that magnitude pruning at 99% visibly destroys.
"""

from __future__ import annotations

import gzip
import os
import struct

import numpy as np

NUM_CLASSES = 10


def _blobs(rng: np.random.Generator, count: int, size: int, lo: float, hi: float,
           width: tuple[float, float]) -> np.ndarray:
    """(count, size, size) Gaussian blobs with random centres and widths."""
    yy, xx = np.mgrid[0:size, 0:size]
    cy, cx = rng.uniform(lo, hi, (2, count, 1, 1))
    sy, sx = rng.uniform(width[0], width[1], (2, count, 1, 1))
    return np.exp(-((yy - cy) ** 2 / (2 * sy ** 2) + (xx - cx) ** 2 / (2 * sx ** 2)))


def _to_bytes(images: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(images, 0.0, 1.0) * 255).astype(np.uint8)


def mnist_like(rng: np.random.Generator, n: int, protos: np.ndarray):
    """(pixels uint8 (n, 28, 28), labels uint8 (n,)) drawn around ``protos``."""
    labels = rng.integers(0, NUM_CLASSES, n)
    # shift by -1..1 pixels: crop a 28x28 window out of the zero-padded prototype
    padded = np.pad(protos, ((0, 0), (1, 1), (1, 1)))
    dy, dx = rng.integers(0, 3, (2, n))
    rows = (dy[:, None] + np.arange(28))[:, :, None]
    cols = (dx[:, None] + np.arange(28))[:, None, :]
    images = padded[labels[:, None, None], rows, cols]
    images = images * rng.uniform(0.5, 1.0, (n, 1, 1)) + rng.normal(0.0, 0.3, (n, 28, 28))
    return _to_bytes(images), labels.astype(np.uint8)


def mnist_prototypes(rng: np.random.Generator) -> np.ndarray:
    """Ten 28x28 class prototypes, each the sum of 3 of 30 shared strokes."""
    bank = _blobs(rng, 30, 28, 7, 21, (1.5, 5.0))
    picks = np.array([rng.choice(len(bank), 3, replace=False) for _ in range(NUM_CLASSES)])
    protos = bank[picks].sum(axis=1)
    return protos / protos.max(axis=(1, 2), keepdims=True)


def write_idx(directory: str, prefix: str, pixels: np.ndarray, labels: np.ndarray) -> None:
    """Write one MNIST split as gzipped IDX files, as the real set is shipped."""
    files = {
        f"{prefix}-images-idx3-ubyte.gz": struct.pack(">IIII", 0x803, *pixels.shape)
        + pixels.tobytes(),
        f"{prefix}-labels-idx1-ubyte.gz": struct.pack(">II", 0x801, len(labels))
        + labels.tobytes(),
    }
    for name, blob in files.items():
        with open(os.path.join(directory, name), "wb") as f:
            f.write(gzip.compress(blob, mtime=0))


def cifar_like(rng: np.random.Generator, n: int, protos: np.ndarray):
    """(pixels uint8 (n, 32, 32, 3), labels uint8 (n,)) drawn around ``protos``."""
    labels = rng.integers(0, NUM_CLASSES, n)
    images = protos[labels] * rng.uniform(0.6, 1.0, (n, 1, 1, 1)) \
        + rng.normal(0.0, 0.15, (n, 32, 32, 3))
    return _to_bytes(images), labels.astype(np.uint8)


def cifar_prototypes(rng: np.random.Generator) -> np.ndarray:
    """Ten 32x32x3 class prototypes, each two coloured blobs."""
    blobs = _blobs(rng, 2 * NUM_CLASSES, 32, 8, 24, (4.0, 8.0))
    colours = rng.uniform(0.0, 1.0, (2 * NUM_CLASSES, 1, 1, 3))
    protos = (blobs[..., None] * colours).reshape(NUM_CLASSES, 2, 32, 32, 3).sum(axis=1)
    return protos / protos.max(axis=(1, 2, 3), keepdims=True)


def write_cifar_batch(path: str, pixels: np.ndarray, labels: np.ndarray) -> None:
    """CIFAR-10 binary batch: per record one label byte, then R, G, B planes."""
    planes = pixels.transpose(0, 3, 1, 2).reshape(len(labels), -1)
    with open(path, "wb") as f:
        f.write(np.concatenate([labels[:, None], planes], axis=1).tobytes())


# AlexNet's fully connected layers (9216x4096, 4096x4096, 4096x10 as in the
# acceptance suite's large-model check) with every dimension cut 16-fold.
ALEXNET_FC_SHAPES = {
    "fc6.weight": (576, 256), "fc6.bias": (256,),
    "fc7.weight": (256, 256), "fc7.bias": (256,),
    "fc8.weight": (256, 10), "fc8.bias": (10,),
}


def alexnet_fc_like(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Gaussian float32 tensors (std 0.05) in ALEXNET_FC_SHAPES order."""
    return {name: rng.standard_normal(shape, dtype=np.float32) * np.float32(0.05)
            for name, shape in ALEXNET_FC_SHAPES.items()}
