"""Shared fixtures: small deterministic JPEGs (cached per session)."""

import pytest

import repro.obs
from repro.corpus.builder import corpus_jpeg
from repro.corpus.images import synthetic_photo
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan, mcu_block_layout
from repro.jpeg.scan_encode import encode_scan
from repro.jpeg.writer import encode_baseline_jpeg


@pytest.fixture(autouse=True)
def _reset_observability():
    """Each test gets a clean global registry and tracer (docs/observability.md)."""
    repro.obs.reset()
    yield
    repro.obs.reset()


@pytest.fixture(scope="session")
def small_jpeg() -> bytes:
    """64x64 colour 4:2:0 JPEG — the workhorse input."""
    return corpus_jpeg(seed=1, height=64, width=64, quality=85)


@pytest.fixture(scope="session")
def gray_jpeg() -> bytes:
    return corpus_jpeg(seed=2, height=48, width=56, quality=80, grayscale=True)


@pytest.fixture(scope="session")
def rst_jpeg() -> bytes:
    """JPEG with restart markers every 3 MCUs."""
    return corpus_jpeg(seed=3, height=64, width=80, quality=85, restart_interval=3)


@pytest.fixture(scope="session")
def odd_jpeg() -> bytes:
    """Odd dimensions + 4:2:0: exercises MCU padding."""
    pixels = synthetic_photo(37, 61, seed=4)
    return encode_baseline_jpeg(pixels, quality=85, subsampling="4:2:0")


@pytest.fixture(scope="session")
def trailer_jpeg() -> bytes:
    """JPEG with a comment segment and appended garbage (§A.3)."""
    pixels = synthetic_photo(40, 40, seed=5)
    return encode_baseline_jpeg(
        pixels, quality=85, comment=b"shot on a synthetic camera",
        trailer=b"\x00\x01TV-FORMAT-TRAILER" * 3,
    )


@pytest.fixture(scope="session")
def dc_overflow_jpeg() -> bytes:
    """A valid baseline JPEG whose luma DC climbs by 1000 per block (capped
    at 30000): it parses, scan-decodes and round-trips, but its Lepton DC
    residuals overflow the coder's range (§6.2 "AC values out of range")."""
    img = parse_jpeg(corpus_jpeg(seed=11, height=64, width=64))
    decode_scan(img)
    frame = img.frame
    luma = frame.components[0]
    k = 0
    for mcu in range(frame.mcu_count):
        mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
        for ci, dy, dx in mcu_block_layout(frame):
            if ci == 0:
                block = (mcu_y * luma.v + dy, mcu_x * luma.h + dx)
                img.coefficients[0][block][0] = min(1000 * k, 30000)
                k += 1
    scan, _ = encode_scan(img)
    return img.header_bytes + scan + img.trailer_bytes
