"""Seeded benchmark inputs.

The seed picks image *content*; the shape of every input set (how many
files, their dimensions, quality, subsampling, restart interval, and a
size band around a nominal byte count) is fixed.  Synthetic photos vary
in detail from seed to seed -- a 640 px q95 file can come out at half
its usual size -- and codec speed per bit moves with detail, so each
slot draws content seeds until the encoded size lands within
:data:`BAND` of the slot's nominal size.  Different seeds then give
different bytes with the same amount of work.

Choosing content seeds (:func:`choose`) is separate from generating the
files (:func:`render`): how many draws a slot needs depends on the seed,
so only :func:`render`, which does the same work for every seed, belongs
in a timed set-up.
"""

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.corpus.builder import corpus_jpeg

#: Accepted encoded size, as a share of the slot's nominal size.
BAND = (0.9, 1.1)
#: Content seeds tried per slot before taking the closest one.
MAX_TRIES = 24


@dataclass(frozen=True)
class Spec:
    """One corpus slot: how to draw a JPEG and the size it should have."""

    height: int
    width: int
    quality: int
    subsampling: str = "4:2:0"
    grayscale: bool = False
    restart_interval: int = 0
    nominal: int = 0  # bytes
    #: Smallest accepted size, e.g. to stay above a segment cutoff.
    floor: int = 0


@dataclass(frozen=True)
class Item:
    """A generated input."""

    name: str
    data: bytes


#: ``codec_corpus``: one file above the 64 KiB ``choose_thread_count``
#: cutoff (two segments under production defaults) and small files
#: covering 4:2:0 / 4:4:4, grayscale, restart intervals and q75-q95,
#: so bytes split roughly evenly across the cutoff.
CODEC_SPECS: Sequence[Spec] = (
    Spec(672, 672, 95, nominal=74000, floor=66 * 1024),
    Spec(96, 96, 85, nominal=1500),
    Spec(128, 128, 75, "4:4:4", nominal=1830),
    Spec(160, 160, 90, grayscale=True, nominal=3500),
    Spec(192, 192, 80, restart_interval=4, nominal=2920),
    Spec(224, 224, 95, "4:4:4", nominal=12980),
    Spec(256, 256, 85, nominal=5030),
    Spec(256, 256, 90, "4:4:4", restart_interval=8, nominal=9290),
    Spec(320, 320, 85, grayscale=True, nominal=8380),
    Spec(160, 224, 88, nominal=3910),
    Spec(96, 96, 85, nominal=1500),
    Spec(128, 128, 75, "4:4:4", nominal=1830),
    Spec(192, 192, 80, restart_interval=4, nominal=2920),
    Spec(160, 224, 88, nominal=3910),
)

#: Photos for the serving workloads: 1-4 chunks of 4 KiB each, the way
#: production photos span a few 4 MiB chunks.  Listed by popularity rank
#: for ``serve_read``'s Zipf draw: small photos are the popular ones, so
#: most reads are cheap and a run holds enough of them for a steady median.
PHOTO_SPECS: Sequence[Spec] = (
    Spec(96, 96, 85, nominal=1500),
    Spec(128, 128, 75, "4:4:4", nominal=1830),
    Spec(160, 160, 90, grayscale=True, nominal=3500),
    Spec(192, 192, 80, restart_interval=4, nominal=2920),
    Spec(256, 256, 85, nominal=5030),
    Spec(256, 256, 90, "4:4:4", restart_interval=8, nominal=9290),
    Spec(224, 224, 95, "4:4:4", nominal=12980),
)

#: Small new photos uploaded during the serving workloads (1-2 chunks).
UPLOAD_SPECS: Sequence[Spec] = (
    Spec(160, 160, 90, grayscale=True, nominal=3500),
    Spec(192, 192, 80, restart_interval=4, nominal=2920),
    Spec(160, 224, 88, nominal=3910),
    Spec(256, 256, 85, nominal=5030),
)


@dataclass(frozen=True)
class Drawn:
    """A slot and the content seed chosen for it."""

    spec: Spec
    content_seed: int


def _encode(spec: Spec, content_seed: int) -> bytes:
    return corpus_jpeg(
        seed=content_seed,
        height=spec.height,
        width=spec.width,
        quality=spec.quality,
        subsampling=spec.subsampling,
        grayscale=spec.grayscale,
        restart_interval=spec.restart_interval,
    )


def choose_seed(spec: Spec, rng: np.random.Generator) -> int:
    """Draw content seeds from ``rng`` until one encodes within the band;
    after :data:`MAX_TRIES` take the closest.  Deterministic in ``rng``."""
    lo = max(spec.nominal * BAND[0], spec.floor)
    hi = spec.nominal * BAND[1]
    best = None
    for _ in range(MAX_TRIES):
        content_seed = int(rng.integers(0, 2**31 - 1))
        size = len(_encode(spec, content_seed))
        if lo <= size <= hi:
            return content_seed
        miss = abs(size - spec.nominal)
        if size >= spec.floor and (best is None or miss < best[0]):
            best = (miss, content_seed)
    if best is None:
        raise RuntimeError(f"no content seed reached {spec.floor} bytes")
    return best[1]


def choose(seed: int, label: str, specs: Sequence[Spec],
           count: int = 0) -> List[Drawn]:
    """Content seeds for ``count`` slots cycling through ``specs``
    (default: one per spec).

    ``label`` keeps sets drawn from one benchmark seed independent.
    """
    rng = np.random.default_rng([seed, _label_key(label)])
    return [Drawn(spec, choose_seed(spec, rng))
            for spec in (specs[i % len(specs)]
                         for i in range(count or len(specs)))]


def render(label: str, drawn: Sequence[Drawn]) -> List[Item]:
    """Generate the chosen JPEGs, one encode per slot."""
    return [Item(f"{label}_{i:03d}", _encode(d.spec, d.content_seed))
            for i, d in enumerate(drawn)]


#: Words for the non-JPEG blobs: text-like bytes that Deflate shrinks,
#: as documents stored next to photos do.
_WORDS = (
    b"lepton", b"chunk", b"photo", b"storage", b"block", b"server", b"the",
    b"of", b"and", b"to", b"image", b"jpeg", b"file", b"user", b"backup",
    b"sync", b"folder", b"shared", b"link", b"version", b"2017", b"dropbox",
)


def blob_set(seed: int, count: int, sizes: Sequence[int]) -> List[bytes]:
    """``count`` non-JPEG documents cycling through ``sizes`` bytes.

    Mostly words with a random-byte tail, so each blob takes the Deflate
    fallback and compresses to a seed-independent ratio.
    """
    rng = np.random.default_rng([seed, _label_key("blob")])
    blobs = []
    for i in range(count):
        size = sizes[i % len(sizes)]
        words = []
        length = 0
        while length < size - size // 8:
            word = _WORDS[int(rng.integers(0, len(_WORDS)))]
            words.append(word)
            length += len(word) + 1
        text = b" ".join(words)[: size - size // 8]
        tail = rng.integers(0, 256, size - len(text), dtype=np.uint8).tobytes()
        blobs.append(b"DOC" + text[3:] + tail)
    return blobs


def _label_key(label: str) -> int:
    return int.from_bytes(label.encode()[:8].ljust(8, b"\0"), "little")
