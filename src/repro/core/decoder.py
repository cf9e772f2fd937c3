"""Decoder-side timing for the speed figures (§3.4, Figures 1 and 7).

Decoding itself is :class:`repro.core.session.DecodeSession`, driven by
:func:`repro.core.lepton.decompress_chunks`: arithmetic-decode one MCU row
band into a sliding :class:`~repro.core.rowbuffer.RowWindow`, Huffman
re-encode it resuming from the segment's handover word, emit, recycle.
This module only reads that session's per-segment timings.
"""

from typing import Optional

from repro.core.model import ModelConfig
from repro.core.session import DecodeSession


def decode_lepton_timed(
    payload: bytes,
    model_config: Optional[ModelConfig] = None,
) -> "tuple[bytes, float, float]":
    """Decode while measuring the *effective* multithreaded wall clock.

    Returns ``(data, effective_seconds, serial_seconds)``, both read from
    the session's obs spans.  Segments are decoded sequentially with
    per-segment timing; the effective time is ``max`` over segments (they
    are fully independent — that is the whole point of the format) plus
    the serial container work.  This simulates the wall clock of the
    paper's thread-per-segment decode, which Python's GIL hides when the
    segments are pure-Python CPU work; the benchmarks document this
    substitution.
    """
    session = DecodeSession(model_config=model_config, parallel=False)
    data = b"".join([*session.write(payload), *session.finish()])
    serial_seconds = session.wall_seconds
    effective = serial_seconds - sum(session.segment_seconds) + (
        max(session.segment_seconds, default=0.0)
    )
    return data, effective, serial_seconds
