"""Encoder-side measurement helpers (§3, Figures 4 and 8).

The pipeline itself — parse, Huffman scan decode, the §5.7 round-trip
admission check, segment coding, container assembly — lives in
:class:`repro.core.session.EncodeSession` and is driven by
:func:`repro.core.lepton.compress`.  This module holds the timed variant
the thread-scaling benchmark reads (it runs the *same* session, so it
enforces the same CMYK policy, memory budgets and deadline) and the
Figure-4 Huffman accounting helper, and re-exports the session's encode
types.
"""

from typing import Dict, Optional

from repro.core.model import ModelConfig
from repro.core.session import (
    EncodeSession,
    EncodeStats,
    RoundtripMismatch,
    estimate_decode_memory,
    estimate_encode_memory,
    verify_and_index,
)
from repro.jpeg.parser import JpegImage

__all__ = [
    "EncodeStats",
    "RoundtripMismatch",
    "encode_jpeg_timed",
    "estimate_decode_memory",
    "estimate_encode_memory",
    "huffman_bit_breakdown",
    "verify_and_index",
]


def encode_jpeg_timed(
    data: bytes,
    threads: Optional[int] = None,
    model_config: Optional[ModelConfig] = None,
    decode_memory_limit: Optional[int] = None,
    encode_memory_limit: Optional[int] = None,
    deadline: Optional[float] = None,
    allow_cmyk: bool = False,
) -> "tuple[bytes, float, float]":
    """Encode while measuring the *effective* multithreaded wall clock.

    Returns ``(payload, effective_seconds, serial_seconds)``, with both
    timings read from the session's per-stage obs spans.  Per-segment
    arithmetic coding is independent (parallel in production), but parsing
    and the Huffman decode of the user's original scan are inherently
    serial — "the Lepton encoder must decode the original JPEG serially"
    (§5.4), which is exactly why Figure 8 plateaus between 4 and 8 threads.
    """
    session = EncodeSession(
        model_config=model_config,
        threads=threads,
        decode_memory_limit=decode_memory_limit,
        encode_memory_limit=encode_memory_limit,
        deadline=deadline,
        allow_cmyk=allow_cmyk,
    )
    session.write(data)
    payload = b"".join(session.finish())
    serial_overhead = sum(session.stage_seconds.values())
    serial_total = serial_overhead + sum(session.segment_seconds)
    effective = serial_overhead + max(session.segment_seconds, default=0.0)
    return payload, effective, serial_total


def huffman_bit_breakdown(img: JpegImage) -> Dict[str, float]:
    """Original Huffman bits per component category (Figure 4, column 1).

    Re-walks the coefficients and tallies the exact Huffman bits each
    symbol would use, attributing (run, size) symbols to the zigzag
    category where the run starts; header and trailer bytes are charged to
    'header'.
    """
    from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

    def category_of(zigzag_index: int) -> str:
        raster = int(ZIGZAG_TO_RASTER[zigzag_index])
        u, v = divmod(raster, 8)
        if raster == 0:
            return "dc"
        if u == 0 or v == 0:
            return "edge"
        return "7x7"

    bits = {"header": 8.0 * (len(img.header_bytes) + len(img.trailer_bytes)),
            "dc": 0.0, "edge": 0.0, "7x7": 0.0, "nnz": 0.0}
    frame = img.frame
    from repro.jpeg.scan_decode import mcu_block_layout

    layout = mcu_block_layout(frame)
    dc_tables = [img.dc_huffman(c) for c in frame.components]
    ac_tables = [img.ac_huffman(c) for c in frame.components]
    dc_pred = [0] * len(frame.components)
    interval = img.restart_interval
    rst_emitted = 0
    for mcu in range(frame.mcu_count):
        if interval and mcu > 0 and mcu % interval == 0 and rst_emitted < img.rst_count:
            bits["header"] += 16.0  # the RST marker itself
            rst_emitted += 1
            dc_pred = [0] * len(frame.components)
        mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
        for ci, dy, dx in layout:
            comp = frame.components[ci]
            by = mcu_y * (comp.v if frame.interleaved else 1) + dy
            bx = mcu_x * (comp.h if frame.interleaved else 1) + dx
            block = img.coefficients[ci][by, bx]
            dc = int(block[0])
            diff = dc - dc_pred[ci]
            dc_pred[ci] = dc
            size = abs(diff).bit_length()
            bits["dc"] += dc_tables[ci].encode_symbol(size)[1] + size
            run = 0
            run_start = 1
            for k in range(1, 64):
                value = int(block[ZIGZAG_TO_RASTER[k]])
                if value == 0:
                    if run == 0:
                        run_start = k
                    run += 1
                    continue
                cat = category_of(run_start if run else k)
                while run > 15:
                    bits[cat] += ac_tables[ci].encode_symbol(0xF0)[1]
                    run -= 16
                size = abs(value).bit_length()
                sym_bits = ac_tables[ci].encode_symbol((run << 4) | size)[1]
                bits[category_of(k)] += sym_bits + size
                run = 0
            if run:
                bits[category_of(run_start)] += ac_tables[ci].encode_symbol(0x00)[1]
    return bits
