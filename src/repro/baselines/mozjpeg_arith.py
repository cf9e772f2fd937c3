"""MozJPEG-arithmetic stand-in: spec-style coding with ~300 bins (§3.2).

The JPEG specification's arithmetic extension uses a small conditioning
set — roughly 300 statistics bins — with no neighbouring-block context for
AC coefficients.  This module codes DC diffs and AC values with exactly
that flavour of context (magnitude-category trees per zigzag index group),
using our range coder.  It demonstrates the paper's Figure 1 point: small
bin counts cost roughly 10 percentage points of savings versus Lepton's
721k-bin model, while remaining pixel- and file-preserving here.
"""

import struct
import zlib
from typing import List

import numpy as np

from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.coefcoder import BitIO, code_value
from repro.core.errors import FormatError
from repro.core.model import Model
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan, mcu_block_layout
from repro.jpeg.scan_encode import encode_scan
from repro.jpeg.zigzag import ZIGZAG_TO_RASTER

MAGIC = b"MA"

# Zigzag positions are grouped into 5 frequency bands (the spec's low/high
# conditioning); together with the DC category tree this yields a bin count
# in the low hundreds.
_BAND_OF = [0] * 64
for _k in range(64):
    if _k == 0:
        _BAND_OF[_k] = 0
    elif _k <= 5:
        _BAND_OF[_k] = 1
    elif _k <= 14:
        _BAND_OF[_k] = 2
    elif _k <= 27:
        _BAND_OF[_k] = 3
    else:
        _BAND_OF[_k] = 4


def _dc_category(diff: int) -> int:
    mag = abs(diff).bit_length()
    return min(mag, 5)


def _code_image(io, frame, coefficients: List[np.ndarray]) -> None:
    layout = mcu_block_layout(frame)
    dc_prev_diff = [0] * len(frame.components)
    dc_pred = [0] * len(frame.components)
    for mcu in range(frame.mcu_count):
        mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
        for ci, dy, dx in layout:
            comp = frame.components[ci]
            by = mcu_y * (comp.v if frame.interleaved else 1) + dy
            bx = mcu_x * (comp.h if frame.interleaved else 1) + dx
            block = coefficients[ci][by, bx]
            # DC: code the diff, conditioned on the previous diff's category
            # (the spec's DC conditioning).
            ctx = _dc_category(dc_prev_diff[ci])
            if io.encoding:
                diff = int(block[0]) - dc_pred[ci]
                code_value(io, (ci, 0, ctx), diff, max_exp=13)
            else:
                diff = code_value(io, (ci, 0, ctx), max_exp=13)
                block[0] = dc_pred[ci] + diff
            dc_pred[ci] += diff
            dc_prev_diff[ci] = diff
            # AC: end-of-band flag then value, per frequency band.
            if io.encoding:
                last_nz = 0
                for k in range(63, 0, -1):
                    if block[ZIGZAG_TO_RASTER[k]]:
                        last_nz = k
                        break
            k = 1
            while k <= 63:
                band = _BAND_OF[k]
                if io.encoding:
                    eob = 1 if k > last_nz else 0
                    io.bit((ci, 1, band), eob)
                else:
                    eob = io.bit((ci, 1, band))
                if eob:
                    break
                r = int(ZIGZAG_TO_RASTER[k])
                if io.encoding:
                    code_value(io, (ci, 2, band), int(block[r]), max_exp=11)
                else:
                    block[r] = code_value(io, (ci, 2, band), max_exp=11)
                k += 1


def compress(data: bytes) -> bytes:
    """Compress a baseline JPEG with the small-bin arithmetic model."""
    img = parse_jpeg(data)
    decode_scan(img)
    scan_bytes, _ = encode_scan(img)
    if scan_bytes != img.scan_data:
        raise FormatError("mozjpeg-arith: scan does not round-trip")
    model = Model()
    encoder = BoolEncoder()
    _code_image(BitIO(model, encoder), img.frame, img.coefficients)
    coded = encoder.finish()
    meta = bytearray()
    meta += struct.pack("<I", len(img.header_bytes))
    meta += img.header_bytes
    meta += struct.pack("<BI", img.pad_bit or 0, img.rst_count)
    meta += struct.pack("<I", len(img.trailer_bytes))
    meta += img.trailer_bytes
    zmeta = zlib.compress(bytes(meta), 9)
    return MAGIC + struct.pack("<II", len(zmeta), len(coded)) + zmeta + coded


def decompress(payload: bytes) -> bytes:
    """Recover the exact original bytes."""
    if payload[:2] != MAGIC:
        raise FormatError("not a mozjpeg-arith payload")
    zlen, clen = struct.unpack_from("<II", payload, 2)
    offset = 10
    meta = zlib.decompress(payload[offset : offset + zlen])
    offset += zlen
    coded = payload[offset : offset + clen]
    pos = 0
    (hlen,) = struct.unpack_from("<I", meta, pos)
    pos += 4
    header = meta[pos : pos + hlen]
    pos += hlen
    pad_bit, rst_count = struct.unpack_from("<BI", meta, pos)
    pos += 5
    (tlen,) = struct.unpack_from("<I", meta, pos)
    pos += 4
    trailer = meta[pos : pos + tlen]
    img = parse_jpeg(header)
    img.pad_bit = pad_bit
    img.rst_count = rst_count
    img.coefficients = [
        np.zeros((c.blocks_h, c.blocks_w, 64), dtype=np.int32)
        for c in img.frame.components
    ]
    model = Model()
    _code_image(BitIO(model, BoolDecoder(coded)), img.frame, img.coefficients)
    scan_bytes, _ = encode_scan(img)
    return header + scan_bytes + trailer
