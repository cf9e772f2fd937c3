"""Golden container bytes: the coded output is pinned, not just self-consistent.

A round-trip test cannot catch an encoder change that its own decoder
follows along with; these sha256s can.  Each case fixes an input and a
configuration and pins the exact stored payload.  Any intentional format
change must regenerate the table (``PYTHONPATH=src python
tests/core/test_golden_containers.py`` prints it) and say why.

The whole-file cases also pin the encoder's Fig. 4 accounting: the exact
information charged per category (``stats.bit_costs``, in bits) and the
number of statistic bins touched (``stats.model_bins``).  Neither reaches
the stored bytes, so no sha256 would notice a coded bit being charged to
the wrong ``nnz``/``7x7``/``edge``/``dc`` category.
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

#: name -> (stats.model_bins, stats.bit_costs) of the whole-file encode.
#: Compared exactly: each category sums 2^-16-bit fixed-point costs, which
#: a float holds without rounding at these sizes.
GOLDEN_FIG4 = {
    "gray_t1": (629, {
        "nnz": 137.59854125976562, "7x7": 336.45860290527344,
        "edge": 884.8890533447266, "dc": 157.4601593017578}),
    "yuv420_t1": (1747, {
        "nnz": 283.73072814941406, "7x7": 920.3255157470703,
        "edge": 1858.5623168945312, "dc": 342.6531524658203}),
    "yuv444_t1": (949, {
        "nnz": 255.19952392578125, "7x7": 421.0917205810547,
        "edge": 1394.8454895019531, "dc": 392.08802795410156}),
    "restart3_t2": (1497, {
        "nnz": 345.8775329589844, "7x7": 682.3723907470703,
        "edge": 1442.8253021240234, "dc": 310.15721130371094}),
    "yuv420_t2": (1736, {
        "nnz": 387.1171569824219, "7x7": 696.1144561767578,
        "edge": 2224.552780151367, "dc": 467.6450958251953}),
    "yuv420_t4": (2295, {
        "nnz": 453.03955078125, "7x7": 712.1220245361328,
        "edge": 2401.158493041992, "dc": 532.8181304931641}),
    "yuv444_restart2_t4": (1884, {
        "nnz": 447.4492492675781, "7x7": 477.30931091308594,
        "edge": 2047.3864288330078, "dc": 602.8568420410156}),
    "yuv420_auto": (995, {
        "nnz": 233.42935180664062, "7x7": 445.8571014404297,
        "edge": 1265.9533996582031, "dc": 271.23895263671875}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lepton_result(name: str):
    kwargs, threads = LEPTON_CASES[name]
    data = corpus_jpeg(**kwargs)
    result = compress(data, LeptonConfig(threads=threads))
    assert result.format == FORMAT_LEPTON, result.detail
    return data, result


def _fig4(result) -> tuple:
    return result.stats.model_bins, result.stats.bit_costs


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
    table = {name: _sha(_lepton_result(name)[1].payload) for name in LEPTON_CASES}
    table["chunked_900"] = _chunked_digest(_chunked()[1])
    table["deflate_fallback"] = _sha(compress(DEFLATE_INPUT).payload)
    return table


@pytest.mark.parametrize("name", sorted(LEPTON_CASES))
def test_lepton_container_bytes_pinned(name):
    data, result = _lepton_result(name)
    payload = result.payload
    assert _sha(payload) == GOLDEN[name]
    assert _fig4(result) == GOLDEN_FIG4[name]
    assert decompress(payload) == data
    # The whole file is chunk window [0, len): one chunk, the same bytes.
    config = LeptonConfig(threads=LEPTON_CASES[name][1])
    whole = compress_chunked(data, len(data), config)
    assert [c.payload for c in whole] == [payload]


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
    print()
    for name in LEPTON_CASES:
        print(f'    "{name}": {_fig4(_lepton_result(name)[1])!r},')
