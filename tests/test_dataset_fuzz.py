"""Property test for the dataset loaders: flipped, truncated and spliced
bytes of plain and gzipped IDX image, IDX label and CIFAR batch files may
only raise DatasetFormatError.

Each mutated file is written into an otherwise valid dataset directory and
loaded through ``load_mnist`` or ``load_cifar10``.  Mutations aim at the
headers, the CIFAR label bytes and the gzip trailer as often as at random
offsets, since most of a file is pixels, where any bytes load.  The run is
derandomized, so the suite stays reproducible.
"""

import gzip
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from compresslab.datasets import (CIFAR10_RECORD, CIFAR10_TEST_FILES,  # noqa: E402
                                  CIFAR10_TRAIN_FILES, MNIST_FILES, DatasetFormatError,
                                  load_cifar10, load_mnist)

_pixels = np.random.default_rng(0).integers(0, 256, size=2 * 3072, dtype=np.uint8)
IDX_IMAGES = struct.pack(">IIII", 0x803, 2, 28, 28) + _pixels[:2 * 784].tobytes()
IDX_LABELS = struct.pack(">II", 0x801, 2) + bytes([3, 7])
CIFAR_BATCH = b"".join(bytes([label]) + _pixels[i * 3072:(i + 1) * 3072].tobytes()
                       for i, label in enumerate([1, 9]))

VALID = {"images": IDX_IMAGES, "labels": IDX_LABELS, "cifar": CIFAR_BATCH}


def _gzipped(data: bytes) -> bytes:
    return gzip.compress(data, mtime=0)


# (file kind, bytes, offsets worth aiming at): each file plain and gzipped;
# a gzip stream's header is at 0 and its CRC and length are its last 8 bytes
_PLAIN = [("images", IDX_IMAGES, [0]), ("labels", IDX_LABELS, [0, 8]),
          ("cifar", CIFAR_BATCH, [0, CIFAR10_RECORD])]
FILES = _PLAIN + [(kind, _gzipped(data), [0, len(_gzipped(data)) - 8])
                  for kind, data, _ in _PLAIN]

# the file each kind is written to; the rest of its directory stays valid
TARGET = {"images": MNIST_FILES["train_images"], "labels": MNIST_FILES["train_labels"],
          "cifar": CIFAR10_TRAIN_FILES[0]}


def _offsets(data: bytes, starts: list[int]):
    last = max(len(data) - 1, 0)
    near_start = st.builds(lambda start, d: min(start + d, last),
                           st.sampled_from(starts), st.integers(0, 23))
    return st.one_of(near_start, st.integers(0, last))


@st.composite
def mutated_files(draw) -> tuple[str, bytes]:
    kind, data, starts = draw(st.sampled_from(FILES))
    offsets = _offsets(data, starts)
    how = draw(st.sampled_from(["flip", "truncate", "splice"]))
    if how == "flip":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(offsets)] ^= draw(st.integers(1, 255))
        return kind, bytes(out)
    if how == "truncate":
        return kind, data[:draw(offsets)]
    _, other, other_starts = draw(st.sampled_from(FILES))
    cut, resume = sorted((draw(offsets), draw(offsets)))
    begin = draw(_offsets(other, other_starts))
    piece = other[begin:begin + draw(st.integers(0, 64))]
    return kind, data[:cut] + piece + data[resume if draw(st.booleans()) else cut:]


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    """A valid MNIST directory and a valid CIFAR directory."""
    mnist, cifar = tmp_path_factory.mktemp("mnist"), tmp_path_factory.mktemp("cifar")
    for key, name in MNIST_FILES.items():
        (mnist / name).write_bytes(VALID[key.split("_")[1]])
    for name in CIFAR10_TRAIN_FILES + CIFAR10_TEST_FILES:
        (cifar / name).write_bytes(CIFAR_BATCH)
    return {"images": (mnist, load_mnist), "labels": (mnist, load_mnist),
            "cifar": (cifar, load_cifar10)}


def test_unmutated_files_load(dirs):
    for kind, data, _ in FILES:
        directory, load = dirs[kind]
        (directory / TARGET[kind]).write_bytes(data)
        train, test = load(str(directory))
        assert len(train) > 0 and len(test) == 2
        (directory / TARGET[kind]).write_bytes(VALID[kind])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_files())
def test_loaders_raise_only_dataset_format_error(dirs, mutated):
    kind, blob = mutated
    directory, load = dirs[kind]
    path = directory / TARGET[kind]
    path.write_bytes(blob)
    try:
        load(str(directory))
    except DatasetFormatError:
        pass
    finally:
        path.write_bytes(VALID[kind])
