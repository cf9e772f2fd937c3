"""Independent 4-MiB chunk compression (§1, §3.4).

The Dropbox back-end stores files as chunks of at most 4 MiB, retrieved
independently by clients — so Lepton "must be able to decompress any
substring of a JPEG file, without access to other substrings".  Compression
sees the whole file (it is done after assembly, off the latency path) and
captures a Huffman handover word wherever a chunk boundary falls, even
mid-symbol; each chunk then becomes a self-contained Lepton container (an
:meth:`~repro.core.session.EncodeSession.window`) that re-encodes its MCU
span, drops the bytes belonging to the previous chunk, and trims to its
exact byte window.
"""

import zlib
from dataclasses import dataclass
from typing import List, Optional

from repro.core.errors import ExitCode, LeptonError, TimeoutExceeded
from repro.core.format import write_container
from repro.core.lepton import (
    _EXIT_SINK,
    FORMAT_DEFLATE,
    FORMAT_LEPTON,
    LeptonConfig,
    _classify_reject,
    decompress,
)
from repro.core.session import EncodeSession
from repro.jpeg.errors import JpegError

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

    Each chunk is a window of one :class:`EncodeSession`; anything
    :func:`~repro.core.lepton.compress` rejects is stored as per-chunk
    Deflate, with the same one §6.2 exit code recorded.  Passing
    ``deadline`` (monotonic) is not a reject: its ``TimeoutExceeded``
    propagates — the serve path's deadline reaching actual codec work.
    """
    ranges = chunk_ranges(len(data), chunk_size)
    if not ranges:
        return []  # an empty file has nothing to convert
    config = config or LeptonConfig()
    session = EncodeSession(model_config=config.model, threads=config.threads,
                            deadline=deadline, allow_cmyk=config.allow_cmyk)
    session.write(data)
    exit_code = ExitCode.SUCCESS
    try:
        chunks = [
            StoredChunk(i, FORMAT_LEPTON, write_container(session.window(a, b)), (a, b))
            for i, (a, b) in enumerate(ranges)
        ]
    except TimeoutExceeded:
        _EXIT_SINK.record(ExitCode.TIMEOUT)
        raise
    except (JpegError, LeptonError) as exc:
        exit_code = _classify_reject(data, exc)[0]
        chunks = [
            StoredChunk(i, FORMAT_DEFLATE, zlib.compress(data[a:b], 6), (a, b))
            for i, (a, b) in enumerate(ranges)
        ]
    _EXIT_SINK.record(exit_code)
    return chunks


def decompress_chunk(chunk: StoredChunk, parallel: bool = True) -> bytes:
    """Recover one chunk's exact original bytes — no other chunk needed."""
    if chunk.format == FORMAT_LEPTON:
        return decompress(chunk.payload, parallel=parallel)
    return zlib.decompress(chunk.payload)
