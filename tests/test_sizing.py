"""Serialization format tests: exact byte layouts, strict parsing,
reproducible gzip sizing, and file round trips.
"""

import gzip
import math
import struct
import zlib

import numpy as np
import pytest

from compresslab.nncore import build_model
from compresslab.quantization import (_CODECS, QuantParams, QuantizedTensor,
                                      compute_quant_params, dequantize_tensor,
                                      quantize_params, quantize_tensor)
from compresslab.sizing import (ArtifactFormatError, gzip_compress, gzipped_size,
                                load_artifact, parse_model_bytes, reduction_factor,
                                save_artifact, serialize_model)


def test_empty_map_is_twelve_bytes():
    data = serialize_model({})
    assert data == b"MCMP" + struct.pack("<II", 1, 0)
    assert len(data) == 12


def test_single_f32_tensor_layout():
    w = np.arange(4, dtype=np.float32)
    data = serialize_model({"w": w})
    # 12 header + 2 name len + 1 name + 3 dtype/flag/ndim + 4 dim + 16 payload
    assert len(data) == 38
    assert data[:4] == b"MCMP"
    assert struct.unpack("<H", data[12:14])[0] == 1
    assert data[14:15] == b"w"
    dtype, flag, ndim = data[15], data[16], data[17]
    assert (dtype, flag, ndim) == (0, 0, 1)
    assert struct.unpack("<I", data[18:22])[0] == 4
    np.testing.assert_array_equal(np.frombuffer(data[22:], dtype="<f4"), w)


def test_two_dim_tensor_adds_a_dim_field():
    data = serialize_model({"w": np.zeros((2, 2), dtype=np.float32)})
    assert len(data) == 42  # one extra u32 dim compared to shape (4,)


def test_roundtrip_all_dtypes(tiny_trained):
    w = tiny_trained.params["0.weight"]
    payload = {
        "f32": w,
        "f16": w.astype(np.float16),
        "sym": quantize_tensor(w, compute_quant_params(w, 8, "symmetric")),
        "asym": quantize_tensor(w, compute_quant_params(w, 8, "asymmetric")),
    }
    data = serialize_model(payload)
    parsed = parse_model_bytes(data)
    assert list(parsed) == ["f32", "f16", "sym", "asym"]
    np.testing.assert_array_equal(parsed["f32"], w)
    # float16 input comes back wrapped as a QuantizedTensor, payload intact
    assert parsed["f16"].params.mode == "float16"
    np.testing.assert_array_equal(parsed["f16"].payload, w.astype(np.float16))
    np.testing.assert_array_equal(parsed["sym"].payload, payload["sym"].payload)
    assert parsed["sym"].params == payload["sym"].params
    np.testing.assert_array_equal(parsed["asym"].payload, payload["asym"].payload)
    assert parsed["asym"].params == payload["asym"].params
    # reserialization is byte-stable
    assert serialize_model(parsed) == data


def test_asymmetric_midpoint_zero_point_keeps_values():
    # zero_point exactly 128 shifts to 0 in the container, so it parses back
    # under the symmetric convention; dequantized values and reserialized
    # bytes must still match exactly
    w = np.array([-1.0, 0.0, 1.0], dtype=np.float32)
    params = QuantParams(bits=8, mode="asymmetric",
                         scale=float(np.float32(2.0 / 255)), zero_point=128)
    qt = quantize_tensor(w, params)
    data = serialize_model({"w": qt})
    parsed = parse_model_bytes(data)
    assert parsed["w"].params.mode == "symmetric"
    np.testing.assert_array_equal(dequantize_tensor(parsed["w"]),
                                  dequantize_tensor(qt))
    assert serialize_model(parsed) == data


@pytest.mark.parametrize("mode", list(_CODECS))
def test_every_codec_round_trips(mode):
    codec = _CODECS[mode]
    rng = np.random.default_rng(11)
    w = (rng.standard_normal((4, 3, 2)) * 0.4 + 0.1).astype(np.float32)
    params = QuantParams(bits=codec.bits, mode=mode) if codec.grid is None \
        else compute_quant_params(w, 8, mode)
    qt = quantize_tensor(w, params)
    data = serialize_model({"w": qt})
    assert (data[15], data[16]) == (codec.code, codec.flag)
    if codec.flag:  # scale and zero point follow the three u32 dims
        assert struct.unpack_from("<fi", data, 30) == (params.scale,
                                                       params.zero_point - codec.shift)
    parsed = parse_model_bytes(data)["w"]
    assert serialize_model({"w": parsed}) == data
    if mode == "float32":  # float32 parses to a plain array
        assert isinstance(parsed, np.ndarray)
        parsed = QuantizedTensor(params, parsed)
    assert parsed.payload.dtype == codec.payload
    assert parsed.params == qt.params
    np.testing.assert_array_equal(dequantize_tensor(parsed), dequantize_tensor(qt))


def test_model_serializes_in_param_order(tiny_trained):
    data = serialize_model(tiny_trained.params)
    parsed = parse_model_bytes(data)
    assert list(parsed) == tiny_trained.param_names()
    for name in parsed:
        np.testing.assert_array_equal(parsed[name], tiny_trained.params[name])


def test_serialize_is_deterministic(tiny_trained):
    assert serialize_model(tiny_trained.params) == serialize_model(tiny_trained.params)
    qmap = quantize_params(tiny_trained.params, 8)
    assert serialize_model(qmap) == serialize_model(qmap)


def test_name_validation():
    with pytest.raises(ValueError, match="name"):
        serialize_model({"": np.zeros(1, dtype=np.float32)})
    bad = bytearray(serialize_model({"w": np.zeros(1, dtype=np.float32)}))
    bad[14] = 0xFF  # the first name byte
    with pytest.raises(ArtifactFormatError, match="tensor 0 at offset 12: 'utf-8' codec"):
        parse_model_bytes(bytes(bad))


# ---------------------------------------------------------------------------
# strict parsing

def test_parse_rejects_bad_magic():
    with pytest.raises(ArtifactFormatError, match="magic"):
        parse_model_bytes(b"XXXX" + bytes(8))


def test_parse_rejects_bad_version():
    with pytest.raises(ArtifactFormatError, match="version 9"):
        parse_model_bytes(b"MCMP" + struct.pack("<II", 9, 0))


def test_parse_rejects_truncation_with_offset():
    data = serialize_model({"w": np.zeros(10, dtype=np.float32)})
    with pytest.raises(ArtifactFormatError, match="offset"):
        parse_model_bytes(data[:-8])
    with pytest.raises(ArtifactFormatError, match="truncated"):
        parse_model_bytes(data[:13])
    # shapes numpy refuses: other dims too big beside a zero dim, too many dims
    for dims in ((0, 0xFFFFFFFF, 0xFFFFFFFF), (1,) * 65):
        blob = b"MCMP" + struct.pack("<II", 1, 1)
        blob += struct.pack("<H", 1) + b"w" + struct.pack("<BBB", 0, 0, len(dims))
        blob += struct.pack(f"<{len(dims)}I", *dims) + bytes(4 * math.prod(dims))
        with pytest.raises(ArtifactFormatError, match="tensor 0 at offset 12"):
            parse_model_bytes(blob)


def test_parse_rejects_trailing_bytes():
    data = serialize_model({"w": np.zeros(2, dtype=np.float32)})
    with pytest.raises(ArtifactFormatError, match="trailing"):
        parse_model_bytes(data + b"\x00")


def test_parse_rejects_duplicate_names():
    one = serialize_model({"w": np.zeros(1, dtype=np.float32)})
    # splice the tensor record in twice and fix the count
    record = one[12:]
    doubled = b"MCMP" + struct.pack("<II", 1, 2) + record + record
    with pytest.raises(ArtifactFormatError, match="duplicate"):
        parse_model_bytes(doubled)


def test_parse_rejects_empty_name():
    # one float32 tensor of shape (1,) whose name length is 0
    blob = b"MCMP" + struct.pack("<II", 1, 1) + struct.pack("<H", 0)
    blob += struct.pack("<BBBI", 0, 0, 1, 1) + struct.pack("<f", 0.0)
    with pytest.raises(ArtifactFormatError, match="tensor 0: empty name at offset 12"):
        parse_model_bytes(blob)


def test_parse_rejects_int8_without_params():
    blob = b"MCMP" + struct.pack("<II", 1, 1)
    blob += struct.pack("<H", 1) + b"w" + struct.pack("<BBB", 2, 0, 1)
    blob += struct.pack("<I", 1) + b"\x00"
    with pytest.raises(ArtifactFormatError, match="without quant"):
        parse_model_bytes(blob)
    blob = b"MCMP" + struct.pack("<II", 1, 1)
    blob += struct.pack("<H", 1) + b"w" + struct.pack("<BBB", 2, 1, 1)
    blob += struct.pack("<I", 1) + struct.pack("<fi", -1.0, 0) + b"\x00"
    with pytest.raises(ArtifactFormatError, match="tensor 0 at offset 12: scale"):
        parse_model_bytes(blob)


def test_parse_rejects_unknown_dtype():
    blob = b"MCMP" + struct.pack("<II", 1, 1)
    blob += struct.pack("<H", 1) + b"w" + struct.pack("<BBB", 7, 0, 1)
    blob += struct.pack("<I", 0)
    with pytest.raises(ArtifactFormatError, match="dtype code 7"):
        parse_model_bytes(blob)


# ---------------------------------------------------------------------------
# gzip sizing

def test_gzip_stream_is_reproducible_and_standard():
    data = serialize_model(build_model("mnist-cnn", seed=0).params)
    z1, z2 = gzip_compress(data), gzip_compress(data)
    assert z1 == z2
    assert gzipped_size(data) == len(z1)
    # valid gzip with zeroed mtime, decodable by the stdlib
    assert z1[:2] == b"\x1f\x8b"
    assert z1[4:8] == b"\x00\x00\x00\x00"
    assert gzip.decompress(z1) == data
    assert zlib.decompress(z1, 31) == data


def fresh_gzip(data: bytes) -> bytes:
    """Reference stream, compressed anew with no memo."""
    comp = zlib.compressobj(9, zlib.DEFLATED, 31)
    return comp.compress(data) + comp.flush()


def test_gzip_memo_interleaved_inputs_match_fresh_streams():
    a = serialize_model(build_model("mnist-cnn", seed=0).params)
    b = serialize_model(build_model("mnist-cnn", seed=1).params)
    for data in (a, b, a, bytes(a), b):
        assert gzip_compress(data) == fresh_gzip(data)
        assert gzipped_size(data) == len(fresh_gzip(data))


def test_gzip_memo_sees_a_buffer_changed_in_place():
    buf = bytearray(b"compresslab " * 500)
    first = gzip_compress(buf)
    assert first == fresh_gzip(bytes(buf))
    buf[100:110] = b"\xff" * 10
    assert gzip_compress(buf) == fresh_gzip(bytes(buf)) != first
    buf[:] = b"\x00" * len(buf)
    assert gzipped_size(buf) == len(fresh_gzip(bytes(buf)))


def test_gzip_of_buffers_equals_gzip_of_bytes():
    data = serialize_model(build_model("mnist-cnn", seed=2).params)
    for view in (memoryview(data), bytearray(data), memoryview(bytearray(data))):
        assert gzip_compress(view) == gzip_compress(data) == fresh_gzip(data)
        assert gzipped_size(view) == gzipped_size(data)
    with pytest.raises(TypeError):
        gzipped_size(5)  # not a byte count: bytes(5) would be five zero bytes


def test_sizing_then_saving_compresses_once(tmp_path, tiny_trained):
    from compresslab.sizing import _gzip
    size = gzipped_size(serialize_model(tiny_trained.params))
    before = _gzip.cache_info()
    assert save_artifact(str(tmp_path / "m.mcmp.gz"), tiny_trained.params) == size
    after = _gzip.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_sparse_models_compress_smaller(tiny_trained):
    from compresslab.pruning import build_mask
    dense_size = gzipped_size(serialize_model(tiny_trained.params))
    sparse = tiny_trained.copy()
    build_mask(sparse.params, 0.9).apply(sparse.params)
    sparse_size = gzipped_size(serialize_model(sparse.params))
    assert sparse_size < dense_size * 0.6


def test_quantized_models_compress_smaller(tiny_trained):
    base = gzipped_size(serialize_model(tiny_trained.params))
    q16 = gzipped_size(serialize_model(quantize_params(tiny_trained.params, 16)))
    q8 = gzipped_size(serialize_model(quantize_params(tiny_trained.params, 8)))
    assert q8 < q16 < base


def test_reduction_factor():
    assert reduction_factor(1000, 100) == pytest.approx(10.0)
    assert reduction_factor(78170, 5331) == pytest.approx(14.66, abs=0.005)
    with pytest.raises(ValueError, match="positive"):
        reduction_factor(0, 10)
    with pytest.raises(ValueError, match="positive"):
        reduction_factor(10, -1)


# ---------------------------------------------------------------------------
# files

def test_save_and_load_artifact(tmp_path, tiny_trained):
    raw_path = str(tmp_path / "model.mcmp")
    gz_path = str(tmp_path / "model.mcmp.gz")
    save_artifact(raw_path, tiny_trained.params)
    save_artifact(gz_path, tiny_trained.params)
    for path in (raw_path, gz_path):
        parsed = load_artifact(path)
        for name in tiny_trained.param_names():
            np.testing.assert_array_equal(parsed[name], tiny_trained.params[name])
    data = open(raw_path, "rb").read()
    assert open(gz_path, "rb").read() == gzip_compress(data)
    cut = tmp_path / "cut.mcmp.gz"
    cut.write_bytes(gzip_compress(data)[:-10])
    with pytest.raises(ArtifactFormatError, match="cut.mcmp.gz: corrupt gzip"):
        load_artifact(str(cut))


def test_load_artifact_rejects_data_after_the_gzip_stream(tmp_path):
    data = serialize_model({"w": np.arange(4, dtype=np.float32)})
    stream = gzip_compress(data)
    junk = tmp_path / "junk.mcmp.gz"
    junk.write_bytes(stream + b"JUNKJUNK")
    with pytest.raises(ArtifactFormatError, match="junk.mcmp.gz: corrupt gzip stream"):
        load_artifact(str(junk))
    # a second member is inflated too, so the container sees trailing bytes
    twice = tmp_path / "twice.mcmp.gz"
    twice.write_bytes(stream + stream)
    with pytest.raises(ArtifactFormatError,
                       match=f"{len(data)} trailing bytes after the last tensor"):
        load_artifact(str(twice))
    padded = tmp_path / "padded.mcmp.gz"
    padded.write_bytes(stream + bytes(16))
    np.testing.assert_array_equal(load_artifact(str(padded))["w"], np.arange(4))


def test_load_artifact_quantized_roundtrip(tmp_path, tiny_trained):
    qmap = quantize_params(tiny_trained.params, 8, "asymmetric")
    path = str(tmp_path / "q.mcmp.gz")
    save_artifact(path, qmap)
    parsed = load_artifact(path)
    for name, v in qmap.items():
        if isinstance(v, QuantizedTensor):
            np.testing.assert_array_equal(dequantize_tensor(parsed[name]),
                                          dequantize_tensor(v))
        else:
            np.testing.assert_array_equal(parsed[name], v)
