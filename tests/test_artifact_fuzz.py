"""Property test for the artifact parser: flipped, truncated and spliced
bytes of mnist-cnn-shaped artifacts in every storage mode may only raise
ArtifactFormatError.

Mutations aim at the tensor headers as often as at random offsets, since
most of an artifact is payload, where any bytes parse.  The run is
derandomized, so the suite stays reproducible.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from compresslab.nncore import build_model  # noqa: E402
from compresslab.quantization import quantize_params  # noqa: E402
from compresslab.sizing import (ArtifactFormatError, parse_model_bytes,  # noqa: E402
                                serialize_model)


def _artifacts():
    params = build_model("mnist-cnn", seed=0).params
    maps = [params, quantize_params(params, 16), quantize_params(params, 8, "asymmetric"),
            quantize_params(params, 8, "symmetric")]
    out = []
    for tensors in maps:
        items = list(tensors.items())
        # each tensor record starts where the artifact of the ones before it ends
        starts = [len(serialize_model(dict(items[:i]))) for i in range(len(items))]
        out.append((serialize_model(tensors), starts))
    return out


ARTIFACTS = _artifacts()


def _offsets(data: bytes, starts: list[int]):
    last = len(data) - 1
    near_header = st.builds(lambda start, d: min(start + d, last),
                            st.sampled_from(starts), st.integers(0, 47))
    return st.one_of(near_header, st.integers(0, last))


@st.composite
def mutated_artifacts(draw) -> bytes:
    data, starts = draw(st.sampled_from(ARTIFACTS))
    offsets = _offsets(data, starts)
    kind = draw(st.sampled_from(["flip", "truncate", "splice"]))
    if kind == "flip":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(offsets)] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "truncate":
        return data[:draw(offsets)]
    other, other_starts = draw(st.sampled_from(ARTIFACTS))
    cut, resume = sorted((draw(offsets), draw(offsets)))
    begin = draw(_offsets(other, other_starts))
    piece = other[begin:begin + draw(st.integers(0, 64))]
    return data[:cut] + piece + data[resume if draw(st.booleans()) else cut:]


def test_unmutated_artifacts_parse():
    for data, _ in ARTIFACTS:
        assert serialize_model(parse_model_bytes(data)) == data


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mutated_artifacts())
def test_parser_raises_only_artifact_format_error(blob):
    try:
        parse_model_bytes(blob)
    except ArtifactFormatError:
        pass
