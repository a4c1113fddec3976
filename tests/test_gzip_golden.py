"""Frozen golden: the level-9 gzip stream of an input just over 16 MiB.

The other goldens hash only small streams, so nothing else pins what the
compressor emits once its input crosses 16 MiB (the chunk size an earlier
compressor fed zlib).  The input is a seeded 4 KiB block tiled past that
point, with a few seeded bytes changed on both sides of it, so level 9 stays
fast while the stream still has to encode literals there.  The hash was
recorded from a known-good build and is never regenerated to cover a change
that was meant to keep the bytes.
"""

import hashlib
import zlib

import numpy as np

from compresslab.sizing import gzip_compress, gzipped_size

BOUNDARY = 1 << 24
GOLDEN_SHA256 = "4a5a5d90fca3cc54eb1a52c7fc82a3d31bbf4b1bdc2bf5c0fac58d2602904b04"


def large_input() -> bytes:
    rng = np.random.default_rng(16)
    block = rng.integers(0, 256, 4096, dtype=np.uint8)
    data = np.resize(block, BOUNDARY + 3 * 4096 + 777)
    at = np.concatenate([rng.integers(0, data.size, 48),
                         BOUNDARY + rng.integers(-600, 600, 16)])
    data[at] = rng.integers(0, 256, at.size, dtype=np.uint8)
    return data.tobytes()


def test_gzip_stream_over_16_mib_is_frozen():
    data = large_input()
    stream = gzip_compress(data)
    assert hashlib.sha256(stream).hexdigest() == GOLDEN_SHA256
    assert gzipped_size(data) == len(stream)
    assert zlib.decompress(stream, 31) == data
