"""D6 fixture: a hand-rolled segment-coding loop outside the session."""

from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.coefcoder import SegmentCodec


def code_segment_by_hand(img, positions, config, start, end):
    codec = SegmentCodec(img.frame, img.coefficients, config)
    encoder = BoolEncoder()
    codec.encode(encoder, start, end)
    return encoder.finish()


def decode_segment_by_hand(img, payload, config, start, end):
    codec = SegmentCodec(img.frame, img.coefficients, config)
    codec.decode(BoolDecoder(payload), start, end)


def code_window_by_hand(img, seg_ranges, positions, config):
    from repro.core.session import code_segment_records

    return code_segment_records(img, seg_ranges, positions, config)
