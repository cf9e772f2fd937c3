"""The three workloads: what each sets up, drives, and checks.

Every workload runs against the public APIs of ``repro.core``,
``repro.storage`` and ``repro.serve`` with production defaults, except
``ServeConfig(chunk_size=4096)``: the scaled-down photos then span 1-4
chunks the way production photos span a few 4 MiB chunks.

A wrong output byte raises :class:`~common.WrongBytes` and aborts the
run; a refused or failed request is counted as failed.
"""

import asyncio
import contextlib
import functools
import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional

import numpy as np

from common import ROOT, Op, RunResult, WrongBytes
from corpus import (CODEC_SPECS, PHOTO_SPECS, UPLOAD_SPECS, Drawn, Item,
                    blob_set, choose, render)
from loadgen import (Arrival, closed_loop, open_loop, poisson_times,
                     stratified_choice, zipf_weights)
from repro.core.lepton import FORMAT_LEPTON, compress, decompress_stream
from repro.corpus.builder import corpus_jpeg
from repro.serve.app import LeptonServer, ServeConfig
from repro.serve.client import ServeClient

#: Chunk size of the serving workloads (see module docstring).
CHUNK_SIZE = 4096
#: Connections or callers the load uses (one per core of a 2-core host).
CONNECTIONS = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: ``serve_read``: arrivals per second, fixed so later runs compare.  The
#: closed-loop capacity at c=2 on the same mix (``run.py --capacity``)
#: measured 6.7 req/s on a 2-core x86 host when the benchmark was
#: defined; at half of it, queueing amplified that host's CPU-speed
#: swings past every allowed bound, so the rate is about a quarter.
READ_RATE = 1.5
#: ``serve_read``: share of arrivals that upload a new JPEG.
READ_PUT_SHARE = 0.10
#: ``serve_read``: share of GETs that ask for a slice inside one chunk.
READ_RANGE_SHARE = 1.0 / 3.0
#: ``serve_read``: Zipf exponent of file popularity.
READ_ZIPF = 1.1
#: ``serve_read``: bytes asked for by a ranged GET.
RANGE_BYTES = 1024

#: ``serve_write``: one caller's repeating request pattern.  Six of ten
#: requests upload a new JPEG (one of them through a resumable upload
#: session), two a non-JPEG blob, one re-uploads the caller's last JPEG
#: byte for byte (a dedup hit), and one reads that JPEG back.
WRITE_PATTERN = ("put_jpeg", "put_blob", "put_jpeg", "upload", "put_jpeg",
                 "dedup", "put_jpeg", "put_blob", "put_jpeg", "get_jpeg")
#: ``serve_write``: replicas under the durable store.
WRITE_REPLICAS = 2
#: ``serve_write``: blob sizes, 1-2 chunks like the new JPEGs.
BLOB_SIZES = (2500, 3500, 4500, 6000)
#: ``serve_write``: generated JPEGs and blobs that new files vary.
WRITE_BASES = 8
#: ``serve_write``: part size of resumable uploads (1-2 parts each).
UPLOAD_PART = 4096


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scratch_dir() -> str:
    """A fresh directory inside the checkout's build area."""
    base = ROOT / ".bench_build"
    base.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="perfbench-", dir=str(base))


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# -- codec_corpus ------------------------------------------------------------

def codec_inputs(seed: int) -> List[Drawn]:
    return choose(seed, "codec", CODEC_SPECS)


def codec_setup(drawn: List[Drawn]) -> List[Item]:
    corpus_jpeg.cache_clear()
    return render("codec", drawn)


def codec_pass(items: List[Item], result: RunResult) -> List[bytes]:
    """``compress`` then ``decompress_stream`` on every file, once; each
    decoded file must equal its input.  Returns the containers."""
    payloads = []
    for item in items:
        t0 = time.perf_counter()
        encoded = compress(item.data)
        t1 = time.perf_counter()
        ok = encoded.ok and encoded.format == FORMAT_LEPTON
        result.ops.append(Op("encode", len(item.data), t0, t0, t1, ok=ok))
        payloads.append(encoded.payload)
        t0 = time.perf_counter()
        pieces = decompress_stream(encoded.payload)
        first = next(pieces)
        first_at = time.perf_counter()
        decoded = first + b"".join(pieces)
        t1 = time.perf_counter()
        if decoded != item.data:
            raise WrongBytes(f"{item.name}: decompress differs from input")
        result.ops.append(Op("decode", len(item.data), t0, t0, t1,
                             first_byte=first_at))
    return payloads


def codec_run(setup: Callable[[], List[Item]], seconds: float,
              result: RunResult, hook: Callable[[], ContextManager],
              setups: int) -> None:
    """Whole passes of compress-then-decompress over the corpus.

    Every pass follows a set-up of its own, and set-ups after the last
    pass make up ``setups``: the host's speed wanders over seconds, so
    set-ups spread across the run, like the passes, give a steadier
    median than set-ups taken back to back.  One untimed warm-up round
    trip on the smallest file comes before the first pass, which sets how
    many passes fill ``seconds`` (at least one): a run codes a whole
    number of identical passes and the file mix is the same in every run.
    Every pass must reproduce the first pass's containers exactly.
    ``hook`` is entered around each pass only.
    """
    items = setup()
    smallest = min(items, key=lambda item: len(item.data))
    b"".join(decompress_stream(compress(smallest.data).payload))
    containers: Optional[List[bytes]] = None
    passes = target = 0
    start = time.perf_counter()
    while passes < max(target, 1):
        if passes:
            items = setup()
        with hook():
            payloads = codec_pass(items, result)
        if containers is None:
            containers = payloads
            target = round(seconds / (time.perf_counter() - start))
        elif payloads != containers:
            raise WrongBytes("a later pass produced different containers")
        passes += 1
    while len(result.setup_seconds) < setups:
        setup()
    result.user_bytes = sum(len(item.data) for item in items)
    result.stored_bytes = sum(len(p) for p in containers)
    result.notes.update(
        passes=passes,
        files=len(items),
        multi_segment_files=sum(len(i.data) >= 64 * 1024 for i in items),
        corpus_bytes=result.user_bytes,
        containers_sha256=sha(b"".join(containers)),
    )


# -- shared serving helpers --------------------------------------------------

@dataclass
class ServeState:
    server: LeptonServer
    data_dir: Optional[str] = None
    extra: dict = field(default_factory=dict)

    def connect(self):
        return ServeClient(self.server.config.host, self.server.port)


async def stop_server(state: ServeState) -> None:
    server = state.server
    await server.drain()
    for journal in (server.store.journal, server.uploads.journal):
        if journal is not None:
            journal.close()
    if state.data_dir is not None:
        shutil.rmtree(state.data_dir, ignore_errors=True)


def _check_stored(response, data: bytes, statuses=(201,)) -> bool:
    """An upload's response: accepted, and named by its content hash."""
    if response.status not in statuses:
        return False
    if response.json()["id"] != sha(data):
        raise WrongBytes("upload acknowledged under the wrong id")
    return True


def _check_body(body: bytes, expected: bytes, what: str) -> None:
    if sha(body) != sha(expected):
        raise WrongBytes(f"{what}: body differs from the original")


# -- serve_read --------------------------------------------------------------

@dataclass(frozen=True)
class ReadRequest:
    kind: str                 # "get" | "range" | "put"
    file: int = 0             # popularity rank for get/range
    start: int = 0
    stop: int = 0             # exclusive
    upload: int = 0           # index into the upload pool for put


def read_schedule(seed: int, seconds: float, photos: List[Item]) -> List[Arrival]:
    """Seeded Poisson arrivals with a stratified request mix."""
    rng = np.random.default_rng([seed, 1])
    times = poisson_times(rng, READ_RATE, seconds)
    count = len(times)
    puts = int(round(READ_PUT_SHARE * count))
    gets = count - puts
    ranged = int(round(READ_RANGE_SHARE * gets))
    kinds = ["put"] * puts + ["range"] * ranged + ["get"] * (gets - ranged)
    rng.shuffle(kinds)
    files = iter(stratified_choice(rng, zipf_weights(len(photos), READ_ZIPF),
                                   gets))
    arrivals = []
    uploads = 0
    for at, kind in zip(times, kinds):
        if kind == "put":
            arrivals.append(Arrival(at, ReadRequest("put", upload=uploads)))
            uploads += 1
            continue
        rank = next(files)
        if kind == "get":
            arrivals.append(Arrival(at, ReadRequest("get", file=rank)))
            continue
        size = len(photos[rank].data)
        chunk = int(rng.integers(0, -(-size // CHUNK_SIZE)))
        lo = chunk * CHUNK_SIZE
        hi = min(lo + CHUNK_SIZE, size)
        length = min(RANGE_BYTES, hi - lo)
        start = lo + int(rng.integers(0, hi - lo - length + 1))
        arrivals.append(Arrival(at, ReadRequest("range", file=rank,
                                                start=start,
                                                stop=start + length)))
    return arrivals


def read_inputs(seed: int, seconds: float) -> dict:
    photos = choose(seed, "photo", PHOTO_SPECS)
    arrivals = read_schedule(seed, seconds, render("photo", photos))
    uploads = choose(seed, "upload", UPLOAD_SPECS,
                     count=sum(a.request.kind == "put" for a in arrivals))
    return {"photos": photos, "uploads": uploads, "arrivals": arrivals}


async def read_setup(inputs: dict) -> ServeState:
    corpus_jpeg.cache_clear()
    photos = render("photo", inputs["photos"])
    uploads = render("upload", inputs["uploads"])
    server = LeptonServer(ServeConfig(chunk_size=CHUNK_SIZE))
    await server.start()
    state = ServeState(server)
    async with state.connect() as client:
        for photo in photos:
            response = await client.put_file(photo.data)
            if not _check_stored(response, photo.data):
                raise RuntimeError(f"pre-population refused: {response.status}")
    state.extra.update(photos=photos, uploads=uploads,
                       arrivals=inputs["arrivals"])
    return state


async def read_run(state: ServeState, result: RunResult) -> None:
    photos: List[Item] = state.extra["photos"]
    uploads: List[Item] = state.extra["uploads"]

    async def execute(client, request: ReadRequest, op: Op) -> None:
        op.kind = request.kind
        if request.kind == "put":
            data = uploads[request.upload].data
            response = await client.put_file(data)
            op.user_bytes = len(data)
            op.ok = _check_stored(response, data)
            return
        photo = photos[request.file]
        if request.kind == "get":
            response = await client.get_file(sha(photo.data))
            expected, status = photo.data, 200
        else:
            response = await client.get_file(
                sha(photo.data),
                byte_range=f"bytes={request.start}-{request.stop - 1}")
            expected, status = photo.data[request.start:request.stop], 206
        op.ok = response.status == status
        if op.ok:
            _check_body(response.body, expected, f"GET {photo.name}")
            op.user_bytes = len(response.body)
            op.first_byte = op.sent + response.ttfb

    result.ops.extend(await open_loop(state.extra["arrivals"], CONNECTIONS,
                                      state.connect, execute))
    store = state.server.store
    result.user_bytes = sum(r.size for r in store.files.values())
    result.stored_bytes = (store.stored_bytes
                           + sum(len(v) for v in store.originals.values()))
    result.notes.update(rate_per_s=READ_RATE,
                        arrivals=len(state.extra["arrivals"]),
                        stored_files=len(store.files),
                        degraded_fallbacks=store.degraded_fallbacks,
                        rejected_roundtrips=store.rejected_roundtrips)


async def read_capacity(state: ServeState, seconds: float) -> float:
    """Closed-loop requests per second at c=2 over ``serve_read``'s mix."""
    arrivals = state.extra["arrivals"]

    def next_request(caller: int, i: int):
        index = i * CONNECTIONS + caller
        return arrivals[index].request if index < len(arrivals) else None

    async def execute(client, request, op):
        photo = state.extra["photos"][request.file]
        if request.kind == "put":
            data = state.extra["uploads"][request.upload].data
            op.ok = _check_stored(await client.put_file(data), data)
        elif request.kind == "get":
            op.ok = (await client.get_file(sha(photo.data))).status == 200
        else:
            response = await client.get_file(
                sha(photo.data),
                byte_range=f"bytes={request.start}-{request.stop - 1}")
            op.ok = response.status == 206
    start = time.perf_counter()
    ops = await closed_loop(CONNECTIONS, seconds, state.connect,
                            next_request, execute)
    return len(ops) / (time.perf_counter() - start)


def measure_capacity(seed: int, seconds: float) -> float:
    """``serve_read``'s closed-loop capacity at c=2, in requests/s.

    :data:`READ_RATE` was set from this once and then fixed.
    """
    async def main():
        # Schedule enough requests that the closed loop never runs dry.
        state = await read_setup(read_inputs(seed, 10 * seconds))
        try:
            return await read_capacity(state, seconds)
        finally:
            await stop_server(state)

    return asyncio.run(main())


# -- serve_write -------------------------------------------------------------

@dataclass(frozen=True)
class WriteRequest:
    kind: str
    data: bytes = b""


def write_inputs(seed: int) -> List[Drawn]:
    return choose(seed, "new", UPLOAD_SPECS, count=WRITE_BASES)


async def write_setup(seed: int, drawn: List[Drawn]) -> ServeState:
    corpus_jpeg.cache_clear()
    jpegs = render("new", drawn)
    blobs = blob_set(seed, WRITE_BASES, BLOB_SIZES)
    data_dir = scratch_dir()
    server = LeptonServer(ServeConfig(chunk_size=CHUNK_SIZE, data_dir=data_dir,
                                      replicas=WRITE_REPLICAS))
    await server.start()
    state = ServeState(server, data_dir=data_dir)
    state.extra.update(jpegs=[j.data for j in jpegs], blobs=blobs)
    return state


def tagged_jpeg(base: bytes, tag: bytes) -> bytes:
    """``base`` with a COM segment holding ``tag`` right after SOI: a new
    file with the same scan, as a re-saved photo with new metadata is."""
    return base[:2] + b"\xff\xfe" + (len(tag) + 2).to_bytes(2, "big") + tag + base[2:]


class WritePlan:
    """Hands each caller its next request, tracking what it stored.

    New files are variants of a few generated bases, so inputs never run
    out however fast the store gets.  A variant's tag has a length unique
    among its base's variants: every byte after it shifts by a different
    amount, so no two variants share a 4 KiB chunk and chunk dedup only
    happens where the pattern asks for it.
    """

    def __init__(self, state: ServeState):
        self.jpegs = state.extra["jpegs"]
        self.blobs = state.extra["blobs"]
        self.uses: Dict[tuple, int] = {}
        self.stored: Dict[int, Dict[str, bytes]] = {}

    def _tag(self, kind: str, base: int, label: str) -> bytes:
        use = self.uses.get((kind, base), 0)
        self.uses[(kind, base)] = use + 1
        return label.encode().ljust(24 + use, b".")

    def next_request(self, caller: int, i: int) -> WriteRequest:
        cycle, step = divmod(i, len(WRITE_PATTERN))
        kind = WRITE_PATTERN[step]
        mine = self.stored.setdefault(caller, {})
        label = f"perfbench {caller} {cycle} {step}"
        base = (cycle * CONNECTIONS + caller + step) % WRITE_BASES
        if kind in ("put_jpeg", "upload"):
            data = tagged_jpeg(self.jpegs[base], self._tag("jpeg", base, label))
            mine["jpeg"] = data
            return WriteRequest(kind, data)
        if kind == "put_blob":
            data = self._tag("blob", base, label) + b"\n" + self.blobs[base]
            mine["blob"] = data
            return WriteRequest(kind, data)
        return WriteRequest(kind, mine["jpeg"])  # dedup, get_jpeg


async def write_run(state: ServeState, seconds: float,
                    result: RunResult) -> None:
    plan = WritePlan(state)
    acked = 0

    async def execute(client, request: WriteRequest, op: Op) -> None:
        nonlocal acked
        op.kind = request.kind
        data = request.data
        op.user_bytes = len(data)
        if request.kind.startswith("get"):
            response = await client.get_file(sha(data))
            op.ok = response.status == 200
            if op.ok:
                _check_body(response.body, data, "GET after PUT")
                op.first_byte = op.sent + response.ttfb
            return
        if request.kind == "upload":
            response = await client.upload_file(data, part_size=UPLOAD_PART)
        else:
            response = await client.put_file(data)
        op.ok = _check_stored(response, data,
                              (200,) if request.kind == "dedup" else (201,))
        if op.ok:
            acked += len(data)

    result.ops.extend(await closed_loop(CONNECTIONS, seconds, state.connect,
                                        plan.next_request, execute))
    result.user_bytes = acked
    result.stored_bytes = _tree_bytes(state.data_dir)
    store = state.server.store
    result.notes.update(callers=CONNECTIONS, replicas=WRITE_REPLICAS,
                        stored_files=len(store.files),
                        degraded_fallbacks=store.degraded_fallbacks,
                        rejected_roundtrips=store.rejected_roundtrips)


# -- running a workload ------------------------------------------------------

WORKLOADS = ("codec_corpus", "serve_read", "serve_write")


def run_workload(name: str, seed: int, seconds: float,
                 hook: Callable[[], ContextManager] = contextlib.nullcontext,
                 setups: int = SETUPS) -> RunResult:
    """Choose the inputs, set up at least ``setups`` times, measure, tear
    down.

    Choosing content seeds is not timed (see :mod:`corpus`); each timed
    set-up generates the chosen inputs afresh.  ``codec_corpus`` spreads
    its set-ups over the run (:func:`codec_run`); the serving workloads
    set up back to back and measure on the last set-up.  ``hook()`` (the
    traced run's wrappers) is active only while measuring.
    """
    result = RunResult()
    if name == "codec_corpus":
        drawn = codec_inputs(seed)

        def setup() -> List[Item]:
            t0 = time.perf_counter()
            items = codec_setup(drawn)
            result.setup_seconds.append(time.perf_counter() - t0)
            return items

        codec_run(setup, seconds, result, hook, setups)
        return result
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")

    async def main():
        if name == "serve_read":
            setup = functools.partial(read_setup, read_inputs(seed, seconds))
        else:
            setup = functools.partial(write_setup, seed, write_inputs(seed))
        state = None
        try:
            for _ in range(setups):
                if state is not None:
                    await stop_server(state)
                    state = None
                t0 = time.perf_counter()
                state = await setup()
                result.setup_seconds.append(time.perf_counter() - t0)
            with hook():
                if name == "serve_read":
                    await read_run(state, result)
                else:
                    await write_run(state, seconds, result)
        finally:
            if state is not None:
                await stop_server(state)

    asyncio.run(main())
    return result
