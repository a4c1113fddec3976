"""Loader tests against synthetic files in both dataset formats, including
the malformed-file diagnostics.
"""

import gzip
import os
import struct

import numpy as np
import pytest

from compresslab.datasets import (DatasetFormatError, DatasetSplit, load_cifar10,
                                  load_mnist)
from conftest import synthetic_dataset, write_idx_files


def test_split_container_validation():
    with pytest.raises(ValueError, match="images must be"):
        DatasetSplit(np.zeros((3, 28, 28)), np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError, match="labels shape"):
        DatasetSplit(np.zeros((3, 28, 28, 1)), np.zeros(4, dtype=np.int64))


def test_subset_indexing():
    data = synthetic_dataset(10, seed=0)
    sub = data.subset(np.array([3, 1]))
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.labels, data.labels[[3, 1]])


# ---------------------------------------------------------------------------
# IDX files

def test_idx_roundtrip_plain_and_gz(tmp_path):
    train = synthetic_dataset(6, seed=1)
    test = synthetic_dataset(3, seed=2)
    plain = tmp_path / "plain"
    zipped = tmp_path / "zipped"
    for d, compress in ((plain, False), (zipped, True)):
        d.mkdir()
        write_idx_files(str(d), train, test, compress=compress)
        tr, te = load_mnist(str(d))
        assert len(tr) == 6 and len(te) == 3
        assert tr.images.shape == (6, 28, 28, 1)
        assert tr.images.dtype == np.float32
        np.testing.assert_array_equal(tr.labels, train.labels)
        # byte k scales to exactly k/255, so 255 -> 1.0
        np.testing.assert_array_equal(
            np.rint(tr.images * 255), np.rint(train.images * 255))
    assert tr.images.min() >= 0.0 and tr.images.max() <= 1.0


def test_idx_extreme_pixels(tmp_path):
    blob = struct.pack(">IIII", 0x803, 1, 28, 28) + bytes([0, 255] * 392)
    (tmp_path / "train-images-idx3-ubyte").write_bytes(blob)
    lbl = struct.pack(">II", 0x801, 1) + bytes([9])
    (tmp_path / "train-labels-idx1-ubyte").write_bytes(lbl)
    (tmp_path / "t10k-images-idx3-ubyte").write_bytes(blob)
    (tmp_path / "t10k-labels-idx1-ubyte").write_bytes(lbl)
    tr, _ = load_mnist(str(tmp_path))
    assert tr.images.min() == 0.0 and tr.images.max() == 1.0
    assert tr.labels[0] == 9


def _write_mnist_dir(tmp_path, images_blob=None, labels_blob=None):
    imgs = images_blob if images_blob is not None else \
        struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(2 * 28 * 28)
    lbls = labels_blob if labels_blob is not None else \
        struct.pack(">II", 0x801, 2) + bytes([1, 2])
    for name, blob in (("train-images-idx3-ubyte", imgs), ("train-labels-idx1-ubyte", lbls),
                       ("t10k-images-idx3-ubyte", imgs), ("t10k-labels-idx1-ubyte", lbls)):
        (tmp_path / name).write_bytes(blob)


def test_idx_bad_magic(tmp_path):
    # 0x1f then not 0x8b: a plain file, not a gzip stream, however it starts
    for magic in (0x1234, 0x1F000803):
        bad = struct.pack(">IIII", magic, 2, 28, 28) + bytes(2 * 28 * 28)
        _write_mnist_dir(tmp_path, images_blob=bad)
        with pytest.raises(DatasetFormatError, match=f"bad magic 0x{magic:08x} at offset 0"):
            load_mnist(str(tmp_path))


def test_idx_truncated_payload(tmp_path):
    short = struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(100)
    _write_mnist_dir(tmp_path, images_blob=short)
    with pytest.raises(DatasetFormatError, match="payload length"):
        load_mnist(str(tmp_path))
    packed = gzip.compress(struct.pack(">IIII", 0x803, 2, 28, 28) + bytes(2 * 28 * 28))
    for corrupt in (packed[:-10], packed[:-8] + bytes(8)):  # cut short; bad CRC
        _write_mnist_dir(tmp_path, images_blob=corrupt)
        with pytest.raises(DatasetFormatError, match="train-images-idx3-ubyte: corrupt gzip"):
            load_mnist(str(tmp_path))


def test_idx_label_out_of_range(tmp_path):
    for label in (12, 10):
        bad = struct.pack(">II", 0x801, 2) + bytes([1, label])
        _write_mnist_dir(tmp_path, labels_blob=bad)
        with pytest.raises(DatasetFormatError, match=rf"label {label} at offset 9"):
            load_mnist(str(tmp_path))


def test_idx_count_mismatch(tmp_path):
    lbls = struct.pack(">II", 0x801, 3) + bytes([1, 2, 3])
    _write_mnist_dir(tmp_path, labels_blob=lbls)
    with pytest.raises(DatasetFormatError, match="2 images but 3 labels"):
        load_mnist(str(tmp_path))


def test_idx_wrong_geometry(tmp_path):
    imgs = struct.pack(">IIII", 0x803, 2, 14, 14) + bytes(2 * 14 * 14)
    _write_mnist_dir(tmp_path, images_blob=imgs)
    with pytest.raises(DatasetFormatError, match="14x14, expected 28x28"):
        load_mnist(str(tmp_path))


def test_idx_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="train-images-idx3-ubyte"):
        load_mnist(str(tmp_path))


# ---------------------------------------------------------------------------
# CIFAR-10 binary batches

def _cifar_record(label, value):
    return bytes([label]) + bytes([value]) * 3072


def _write_cifar_dir(d, per_batch=2):
    os.makedirs(d, exist_ok=True)
    for i in range(1, 6):
        with open(os.path.join(d, f"data_batch_{i}.bin"), "wb") as f:
            for j in range(per_batch):
                f.write(_cifar_record((i + j) % 10, 10 * i + j))
    with open(os.path.join(d, "test_batch.bin"), "wb") as f:
        f.write(_cifar_record(7, 200))


def test_cifar_roundtrip(tmp_path):
    _write_cifar_dir(str(tmp_path))
    train, test = load_cifar10(str(tmp_path))
    assert train.images.shape == (10, 32, 32, 3)
    assert test.images.shape == (1, 32, 32, 3)
    assert train.images.dtype == np.float32
    np.testing.assert_array_equal(train.labels[:2], [1, 2])
    assert test.labels[0] == 7
    np.testing.assert_allclose(test.images[0], 200 / 255, atol=1e-7)


def test_cifar_channel_order(tmp_path):
    # R plane 10, G plane 20, B plane 30
    rec = bytes([3]) + bytes([10]) * 1024 + bytes([20]) * 1024 + bytes([30]) * 1024
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        (tmp_path / name).write_bytes(rec)
    train, _ = load_cifar10(str(tmp_path))
    pixel = np.rint(train.images[0, 0, 0] * 255)
    np.testing.assert_array_equal(pixel, [10, 20, 30])


def test_cifar_nested_directory(tmp_path):
    _write_cifar_dir(str(tmp_path / "cifar-10-batches-bin"))
    train, test = load_cifar10(str(tmp_path))
    assert len(train) == 10 and len(test) == 1


def test_cifar_bad_record_length(tmp_path):
    _write_cifar_dir(str(tmp_path))
    (tmp_path / "data_batch_3.bin").write_bytes(bytes(3072))  # one byte short
    with pytest.raises(DatasetFormatError, match="not a positive multiple of 3073"):
        load_cifar10(str(tmp_path))


def test_cifar_label_out_of_range(tmp_path):
    _write_cifar_dir(str(tmp_path))
    for label in (11, 10):
        (tmp_path / "test_batch.bin").write_bytes(_cifar_record(label, 0))
        with pytest.raises(DatasetFormatError, match=f"label {label} at offset 0"):
            load_cifar10(str(tmp_path))


def test_real_mnist_shapes_if_available(mnist_dir):
    train, test = load_mnist(mnist_dir)
    assert len(train) == 60000 and len(test) == 10000
    assert train.images.shape == (60000, 28, 28, 1)
    assert 0.0 <= train.images.min() and train.images.max() == 1.0
