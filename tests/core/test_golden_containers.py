"""Golden container bytes: the coded output is pinned, not just self-consistent.

A round-trip test cannot catch an encoder change that its own decoder
follows along with; these sha256s can.  Each case fixes an input and a
configuration and pins the exact stored payload.  Any intentional format
change must regenerate the table (``PYTHONPATH=src python
tests/core/test_golden_containers.py`` prints it) and say why.
"""

import hashlib

import pytest

from repro.core.chunks import compress_chunked, decompress_chunk
from repro.core.lepton import (
    FORMAT_DEFLATE,
    FORMAT_LEPTON,
    LeptonConfig,
    compress,
    decompress,
)
from repro.corpus.builder import corpus_jpeg

#: name -> (corpus_jpeg kwargs, LeptonConfig.threads)
LEPTON_CASES = {
    "gray_t1": (dict(seed=2, height=48, width=56, quality=80, grayscale=True), 1),
    "yuv420_t1": (dict(seed=1, height=64, width=64, quality=85), 1),
    "yuv444_t1": (dict(seed=7, height=48, width=64, subsampling="4:4:4"), 1),
    "restart3_t2": (dict(seed=3, height=64, width=80, restart_interval=3), 2),
    "yuv420_t2": (dict(seed=37, height=64, width=96), 2),
    "yuv420_t4": (dict(seed=37, height=64, width=96), 4),
    "yuv444_restart2_t4": (
        dict(seed=8, height=64, width=64, subsampling="4:4:4", restart_interval=2), 4),
    "yuv420_auto": (dict(seed=9, height=40, width=72, quality=70), None),
}

CHUNKED_INPUT = dict(seed=30, height=128, width=160, quality=85, restart_interval=5)
CHUNKED_SIZE = 900
CHUNKED_THREADS = 2

DEFLATE_INPUT = b"this is not a JPEG, so it is stored as Deflate\n" * 40

#: Changing any value here means the encoder now stores different bytes.
GOLDEN = {
    "gray_t1": "9587d656eb4a0253888e8c40f5c1df4a0c12ee9b1336541e418d1e908508f025",
    "yuv420_t1": "393002427d71bfb4628b81a67c9ec229058fccbf1d92fcdb71b0e82b4e7654d5",
    "yuv444_t1": "f90cef3b0eb0046fb48d54c6d613227a4cb64c44d923356b10f6ca510fd91b2d",
    "restart3_t2": "0e19944a006e29d67db7db638a4f1aac96e76adbe4220d75f993e0c815cc8e96",
    "yuv420_t2": "06e6422041fe4093b4eb03f3028f5a65f1ad99189c80a6af51bb0d09d4983ffb",
    "yuv420_t4": "43d3e198c928454f1e1914ca11fc918c650a27df29fdae50d5fd03b3fdef13fa",
    "yuv444_restart2_t4": "daa82f86f580f7785f4e6a81278b45893307bee790cf9a21f8f5059875b46f7a",
    "yuv420_auto": "577da27cb152f58832d22f7215e5733846b4bf40709a4f2c9d58f271fdba9542",
    "chunked_900": "79d94e02ba41c909347533ccb54a8c2951ff6b25bf82a8496fd235e3a627d446",
    "deflate_fallback": "6d3f1e6f8fa9b229a5a1f836ac20e6d4708bfbf6b6b9e890e6657394ccf79e0c",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lepton_payload(name: str) -> "tuple[bytes, bytes]":
    kwargs, threads = LEPTON_CASES[name]
    data = corpus_jpeg(**kwargs)
    result = compress(data, LeptonConfig(threads=threads))
    assert result.format == FORMAT_LEPTON, result.detail
    return data, result.payload


def _chunked():
    data = corpus_jpeg(**CHUNKED_INPUT)
    chunks = compress_chunked(data, CHUNKED_SIZE, LeptonConfig(threads=CHUNKED_THREADS))
    return data, chunks


def _chunked_digest(chunks) -> str:
    """One hash over every chunk's format tag, range and payload, in order."""
    h = hashlib.sha256()
    for chunk in chunks:
        a, b = chunk.original_range
        h.update(f"{chunk.index}:{chunk.format}:{a}-{b}:{len(chunk.payload)};".encode())
        h.update(chunk.payload)
    return h.hexdigest()


def current_table() -> dict:
    table = {name: _sha(_lepton_payload(name)[1]) for name in LEPTON_CASES}
    table["chunked_900"] = _chunked_digest(_chunked()[1])
    table["deflate_fallback"] = _sha(compress(DEFLATE_INPUT).payload)
    return table


@pytest.mark.parametrize("name", sorted(LEPTON_CASES))
def test_lepton_container_bytes_pinned(name):
    data, payload = _lepton_payload(name)
    assert _sha(payload) == GOLDEN[name]
    assert decompress(payload) == data


def test_chunked_container_bytes_pinned():
    data, chunks = _chunked()
    assert len(chunks) >= 3
    assert all(c.format == FORMAT_LEPTON for c in chunks)
    assert _chunked_digest(chunks) == GOLDEN["chunked_900"]
    assert b"".join(decompress_chunk(c) for c in chunks) == data


def test_deflate_fallback_bytes_pinned():
    result = compress(DEFLATE_INPUT)
    assert result.format == FORMAT_DEFLATE
    assert _sha(result.payload) == GOLDEN["deflate_fallback"]
    assert decompress(result.payload) == DEFLATE_INPUT


if __name__ == "__main__":
    for key, value in current_table().items():
        print(f'    "{key}": "{value}",')
