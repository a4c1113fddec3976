"""Shared fixtures: synthetic datasets shaped like the real ones, so the
whole pipeline is exercised without large downloads, plus opt-in access to
real dataset directories via environment variables.
"""

import errno
import gzip
import os
import struct

import numpy as np
import pytest

from compresslab.datasets import DatasetSplit
from compresslab.nncore import TrainConfig, build_model, train


def synthetic_dataset(n: int, seed: int = 0) -> DatasetSplit:
    """MNIST-shaped 10-class data: a class-specific bright patch plus noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    images = rng.uniform(0.0, 0.3, size=(n, 28, 28, 1)).astype(np.float32)
    for i, y in enumerate(labels):
        r = 2 + (y // 5) * 12
        c = 2 + (y % 5) * 5
        images[i, r:r + 6, c:c + 4, 0] += 0.7
    np.clip(images, 0.0, 1.0, out=images)
    return DatasetSplit(images, labels.astype(np.int64))


def synthetic_cifar_dataset(n: int, seed: int = 0) -> DatasetSplit:
    """CIFAR-shaped 10-class data: a class-coloured square at a class position,
    plus noise, stored at 8-bit precision like the real batches."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    colours = rng.uniform(0.3, 1.0, size=(10, 3)).astype(np.float32)
    images = rng.uniform(0.0, 0.4, size=(n, 32, 32, 3)).astype(np.float32)
    for i, y in enumerate(labels):
        r = 3 + (y // 5) * 16
        c = 1 + (y % 5) * 6
        images[i, r:r + 10, c:c + 6] += colours[y]
    np.clip(images, 0.0, 1.0, out=images)
    images = np.rint(images * 255) / np.float32(255)
    return DatasetSplit(images.astype(np.float32), labels.astype(np.int64))


class DiskFullMidway:
    """``open`` for a write that stores half of what it is given, then fails."""

    def __init__(self, path, mode):
        self.file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.file.write(data[:len(data) // 2])
        self.file.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def write_idx_files(directory: str, train: DatasetSplit, test: DatasetSplit,
                    compress: bool = False) -> None:
    """Write DatasetSplits as the four canonical IDX files."""
    names = {
        "train-images-idx3-ubyte": train.images, "train-labels-idx1-ubyte": train.labels,
        "t10k-images-idx3-ubyte": test.images, "t10k-labels-idx1-ubyte": test.labels,
    }
    for name, arr in names.items():
        if arr.ndim == 4:
            pixels = np.rint(arr[:, :, :, 0] * 255).astype(np.uint8)
            blob = struct.pack(">IIII", 0x803, *pixels.shape) + pixels.tobytes()
        else:
            blob = struct.pack(">II", 0x801, arr.shape[0]) + arr.astype(np.uint8).tobytes()
        path = os.path.join(directory, name)
        if compress:
            with gzip.open(path + ".gz", "wb") as f:
                f.write(blob)
        else:
            with open(path, "wb") as f:
                f.write(blob)


@pytest.fixture(scope="session")
def synth_train() -> DatasetSplit:
    return synthetic_dataset(1500, seed=7)


@pytest.fixture(scope="session")
def synth_test() -> DatasetSplit:
    return synthetic_dataset(400, seed=8)


@pytest.fixture(scope="session")
def tiny_trained(synth_train):
    """A model with realistic (trained) weight distributions for reuse."""
    cfg = TrainConfig(epochs=3, batch_size=64, learning_rate=0.1, val_split=0.2, seed=3)
    return train(build_model("mnist-cnn", seed=3), synth_train, cfg)


def mnist_directory() -> str | None:
    """Real-MNIST location: $MNIST_DIR or ./data/mnist, if the files exist."""
    candidates = [os.environ.get("MNIST_DIR"),
                  os.path.join(os.path.dirname(__file__), "..", "data", "mnist")]
    for d in candidates:
        if not d:
            continue
        have_all = all(
            os.path.isfile(os.path.join(d, name)) or os.path.isfile(os.path.join(d, name + ".gz"))
            for name in ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                         "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"))
        if have_all:
            return os.path.abspath(d)
    return None


@pytest.fixture(scope="session")
def mnist_dir() -> str:
    d = mnist_directory()
    if d is None:
        pytest.skip(
            "real MNIST not found: place train-images-idx3-ubyte, "
            "train-labels-idx1-ubyte, t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte "
            "(plain or .gz) in ./data/mnist or set MNIST_DIR")
    return d
