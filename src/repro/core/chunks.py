"""Independent 4-MiB chunk compression (§1, §3.4).

The Dropbox back-end stores files as chunks of at most 4 MiB, retrieved
independently by clients — so Lepton "must be able to decompress any
substring of a JPEG file, without access to other substrings".  Compression
sees the whole file (it is done after assembly, off the latency path) and
captures a Huffman handover word wherever a chunk boundary falls, even
mid-symbol; each chunk then becomes a self-contained Lepton container that
re-encodes its MCU span, drops the leading bytes belonging to the previous
chunk, and trims to its exact byte window.
"""

import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional

from repro.core.format import LeptonFile, SegmentRecord, write_container
from repro.core.lepton import (
    FORMAT_DEFLATE,
    FORMAT_LEPTON,
    LeptonConfig,
    decompress,
)
from repro.core.session import (
    RoundtripMismatch,
    code_segment_records,
    verify_and_index,
)
from repro.core.segments import choose_thread_count, plan_segments_range
from repro.jpeg.errors import JpegError
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan

CHUNK_SIZE = 4 * 1024 * 1024


@dataclass
class StoredChunk:
    """One stored chunk: its payload, format, and original byte range."""

    index: int
    format: str  # "lepton" | "deflate"
    payload: bytes
    original_range: "tuple[int, int]"

    @property
    def original_size(self) -> int:
        return self.original_range[1] - self.original_range[0]


def chunk_ranges(total_size: int, chunk_size: int = CHUNK_SIZE) -> List["tuple[int, int]"]:
    """Byte ranges ``[a, b)`` of each chunk of a file.

    A non-positive ``chunk_size`` raises :class:`ValueError`: it would
    otherwise describe a file with no chunks at all.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if total_size == 0:
        return []
    return [
        (start, min(start + chunk_size, total_size))
        for start in range(0, total_size, chunk_size)
    ]


def compress_chunked(
    data: bytes,
    chunk_size: int = CHUNK_SIZE,
    config: Optional[LeptonConfig] = None,
    deadline: Optional[float] = None,
) -> List[StoredChunk]:
    """Split ``data`` into chunks and compress each independently.

    JPEG files get Lepton chunks (each independently decodable); anything
    Lepton rejects is stored as per-chunk Deflate, mirroring production.
    ``deadline`` (a monotonic timestamp) propagates into the segment
    coder, which raises :class:`~repro.core.errors.TimeoutExceeded`
    between segments once it passes — the serve path's end-to-end
    deadline reaching actual codec work.
    """
    config = config or LeptonConfig()
    ranges = chunk_ranges(len(data), chunk_size)
    try:
        chunks = _compress_jpeg_chunked(data, ranges, config,
                                        deadline=deadline)
    except (JpegError, RoundtripMismatch):
        chunks = None
    if chunks is None:
        chunks = [
            StoredChunk(i, FORMAT_DEFLATE, zlib.compress(data[a:b], 6), (a, b))
            for i, (a, b) in enumerate(ranges)
        ]
    return chunks


def _compress_jpeg_chunked(data, ranges, config,
                           deadline=None) -> Optional[List[StoredChunk]]:
    img = parse_jpeg(data, max_components=4 if config.allow_cmyk else 3)
    decode_scan(img)
    positions = verify_and_index(img)
    offsets = [p.byte_offset for p in positions]  # non-decreasing, len = MCUs+1
    header_len = len(img.header_bytes)
    scan_len = len(img.scan_data)
    mcu_count = img.frame.mcu_count
    threads = (
        config.threads if config.threads is not None else choose_thread_count(len(data))
    )

    chunks: List[StoredChunk] = []
    for index, (a, b) in enumerate(ranges):
        # Partition this chunk's window into header / scan / trailer parts.
        prefix_offset = min(a, header_len)
        prefix_length = max(0, min(b, header_len) - prefix_offset)
        scan_lo = max(0, min(a - header_len, scan_len))
        scan_hi = max(0, min(b - header_len, scan_len))
        trailer_lo = max(0, a - header_len - scan_len)
        trailer_hi = max(0, b - header_len - scan_len)
        trailer = img.trailer_bytes[trailer_lo:trailer_hi]

        segments: List[SegmentRecord] = []
        scan_skip = 0
        pad_final = False
        if scan_hi > scan_lo:
            # MCU whose encoding covers byte scan_lo: the last MCU starting
            # at or before it.  bisect_right-1 also skips zero-length MCU
            # starts that share the same byte.  Clamp to the last real MCU:
            # a window holding only the final pad byte (scan_lo >= the
            # end-of-scan offset) is produced by re-encoding the last MCU
            # with pad_final and trimming via scan_skip.
            m_a = min(max(0, bisect_right(offsets, scan_lo) - 1), mcu_count - 1)
            if scan_hi >= scan_len:
                m_b = mcu_count
                pad_final = True
            else:
                m_b = bisect_left(offsets, scan_hi)
                m_b = min(max(m_b, m_a + 1), mcu_count)
            scan_skip = scan_lo - offsets[m_a]
            seg_ranges = plan_segments_range(m_a, m_b, img.frame.mcus_x, threads)
            # The one segment-coding loop (session.py); D6 forbids a fork here.
            segments = code_segment_records(
                img, seg_ranges, positions, config.model, deadline=deadline
            )

        lepton = LeptonFile(
            jpeg_header=img.header_bytes,
            pad_bit=img.pad_bit or 0,
            rst_count=img.rst_count,
            output_size=b - a,
            prefix_offset=prefix_offset,
            prefix_length=prefix_length,
            trailer=trailer,
            scan_skip=scan_skip,
            scan_take=scan_hi - scan_lo,
            pad_final=pad_final,
            segments=segments,
        )
        payload = write_container(lepton)
        chunks.append(StoredChunk(index, FORMAT_LEPTON, payload, (a, b)))
    return chunks


def decompress_chunk(chunk: StoredChunk, parallel: bool = True) -> bytes:
    """Recover one chunk's exact original bytes — no other chunk needed."""
    if chunk.format == FORMAT_LEPTON:
        return decompress(chunk.payload, parallel=parallel)
    return zlib.decompress(chunk.payload)
