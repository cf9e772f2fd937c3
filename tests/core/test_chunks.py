"""Independent 4-MiB-chunk compression (§3.4): any substring decodable."""

import zlib

import pytest

from repro.core.chunks import (
    StoredChunk,
    chunk_ranges,
    compress_chunked,
    decompress_chunk,
)
from repro.core.lepton import FORMAT_DEFLATE, FORMAT_LEPTON, LeptonConfig
from repro.corpus.builder import corpus_jpeg


def verify_each(data, chunks):
    """Every chunk decodes, on its own, to exactly its byte range."""
    return all(decompress_chunk(c) == data[slice(*c.original_range)]
               for c in chunks)


def reassemble(chunks):
    """A whole file from its stored chunks, in any order."""
    ordered = sorted(chunks, key=lambda c: c.index)
    return b"".join(decompress_chunk(c) for c in ordered)


@pytest.fixture(scope="module")
def medium_jpeg():
    return corpus_jpeg(seed=30, height=128, width=160, quality=85,
                       restart_interval=5)


class TestChunkRanges:
    def test_empty_file(self):
        assert chunk_ranges(0) == []

    def test_exact_multiple(self):
        assert chunk_ranges(200, 100) == [(0, 100), (100, 200)]

    def test_remainder_chunk(self):
        assert chunk_ranges(250, 100) == [(0, 100), (100, 200), (200, 250)]

    def test_single_chunk(self):
        assert chunk_ranges(50, 100) == [(0, 50)]

    @pytest.mark.parametrize("total_size,chunk_size", [(100, 0), (100, -5), (0, -1)])
    def test_non_positive_chunk_size_rejected(self, total_size, chunk_size):
        """A non-positive size would describe a file with no chunks."""
        with pytest.raises(ValueError):
            chunk_ranges(total_size, chunk_size)


@pytest.mark.parametrize("chunk_size", [300, 700, 1500])
def test_each_chunk_decodes_independently(medium_jpeg, chunk_size):
    chunks = compress_chunked(medium_jpeg, chunk_size, LeptonConfig(threads=2))
    assert all(c.format == FORMAT_LEPTON for c in chunks)
    for chunk in chunks:
        a, b = chunk.original_range
        assert decompress_chunk(chunk) == medium_jpeg[a:b]


def test_file_reassembles(medium_jpeg):
    chunks = compress_chunked(medium_jpeg, 900)
    assert reassemble(chunks) == medium_jpeg


def test_verify_chunks_passes(medium_jpeg):
    chunks = compress_chunked(medium_jpeg, 700)
    assert verify_each(medium_jpeg, chunks)


def test_out_of_order_chunks_reassemble(medium_jpeg):
    chunks = compress_chunked(medium_jpeg, 600)
    shuffled = list(reversed(chunks))
    assert reassemble(shuffled) == medium_jpeg


def test_boundary_in_header(medium_jpeg):
    """A chunk boundary inside the JPEG header: chunk 0 is pure header
    bytes plus the scan start."""
    chunks = compress_chunked(medium_jpeg, 100)  # header is several hundred B
    a, b = chunks[0].original_range
    assert decompress_chunk(chunks[0]) == medium_jpeg[:100]
    assert verify_each(medium_jpeg, chunks)


def test_boundary_in_trailer():
    data = corpus_jpeg(seed=31, height=64, width=64) + b"X" * 500
    # Force trailer garbage through the corpus writer instead:
    from repro.corpus.corruptions import append_garbage

    data = append_garbage(corpus_jpeg(seed=31, height=64, width=64), b"Y" * 900)
    chunks = compress_chunked(data, 400)
    assert verify_each(data, chunks)


def test_single_chunk_file_matches_whole_compress(medium_jpeg):
    chunks = compress_chunked(medium_jpeg, 1 << 30)
    assert len(chunks) == 1
    assert decompress_chunk(chunks[0]) == medium_jpeg


def test_non_jpeg_falls_back_to_deflate_chunks():
    data = b"PLAIN TEXT DATA " * 200
    chunks = compress_chunked(data, 512)
    assert all(c.format == FORMAT_DEFLATE for c in chunks)
    assert reassemble(chunks) == data


def test_corrupt_jpeg_falls_back():
    from repro.corpus.corruptions import truncate

    data = truncate(corpus_jpeg(seed=32, height=64, width=64), 0.5)
    chunks = compress_chunked(data, 256)
    assert all(c.format == FORMAT_DEFLATE for c in chunks)
    assert reassemble(chunks) == data


def test_chunks_smaller_than_mcu_byte_span(medium_jpeg):
    """Pathologically small chunks (every boundary mid-MCU) still work."""
    chunks = compress_chunked(medium_jpeg, 64, LeptonConfig(threads=1))
    assert verify_each(medium_jpeg, chunks)


def test_stored_chunk_metadata(medium_jpeg):
    chunks = compress_chunked(medium_jpeg, 700)
    assert [c.index for c in chunks] == list(range(len(chunks)))
    assert sum(c.original_size for c in chunks) == len(medium_jpeg)


def test_grayscale_with_rst_chunked():
    data = corpus_jpeg(seed=33, height=96, width=96, grayscale=True,
                       restart_interval=2)
    chunks = compress_chunked(data, 500)
    assert verify_each(data, chunks)


def test_final_chunk_holding_only_the_pad_byte():
    """Regression (found by hypothesis): a chunk boundary can isolate the
    scan's final pad byte past the last MCU's indexed start offset; the
    start MCU must clamp to the last real MCU instead of planning an
    empty segment range."""
    data = corpus_jpeg(seed=137, height=52, width=15, quality=95,
                       grayscale=True, subsampling="4:4:4")
    chunks = compress_chunked(data, 232, LeptonConfig())
    assert all(c.format == "lepton" for c in chunks)
    assert verify_each(data, chunks)
    assert reassemble(chunks) == data
