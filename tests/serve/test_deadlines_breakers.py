"""End-to-end deadlines and per-endpoint breakers (docs/serve.md).

The ``X-Lepton-Deadline`` header carries the request's remaining budget;
it is parsed once at dispatch and the resulting monotonic deadline
propagates through admission, the executor codec work, and storage
reads.  Expiry anywhere is a ``504`` — and crucially the codec *stops*:
a decode cancelled mid-file must not burn CPU finishing output nobody
is waiting for.  Breaker-opened endpoints answer ``503`` with a
``Retry-After`` computed from the breaker's half-open time, which the
client obeys ahead of its own backoff schedule.
"""

import asyncio
import time

import pytest

from repro.core.errors import TimeoutExceeded
from repro.core.lepton import LeptonConfig, compress
from repro.core.session import DecodeSession
from repro.corpus.builder import corpus_jpeg
from repro.obs import get_registry
from repro.serve.admission import AdmissionGate, AdmitTimeout, Saturated
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient
from repro.storage.retry import RetryPolicy

from tests.serve.conftest import with_server

pytestmark = pytest.mark.serve


def _config(**kwargs):
    return ServeConfig(chunk_size=4096, **kwargs)


def _decode_bytes_out():
    return sum(c.value for _l, c in
               get_registry().series("lepton.session.decode.bytes_out"))


# -- deadline propagation --------------------------------------------------

def test_expired_deadline_is_504(small_jpeg):
    async def scenario(server, client):
        put = await client.put_file(small_jpeg)
        file_id = put.json()["id"]
        expired_get = await client.get_file(file_id, deadline=0)
        assert expired_get.status == 504
        assert expired_get.json()["error"] == "deadline_exceeded"
        expired_put = await client.put_file(small_jpeg, deadline=-1.0)
        assert expired_put.status == 504
        # Deadline 504s are the *caller's* budget, not endpoint health:
        # the breaker must not have counted them as failures.
        healthy_get = await client.get_file(file_id)
        assert healthy_get.status == 200 and healthy_get.body == small_jpeg

    with_server(scenario)


def test_unparseable_deadline_is_400(small_jpeg):
    async def scenario(server, client):
        bad = await client.request(
            "GET", "/files/" + "a" * 64,
            headers={"X-Lepton-Deadline": "soonish"})
        assert bad.status == 400

    with_server(scenario)


def test_mid_codec_deadline_cancels_decode():
    """The acceptance criterion: a GET whose budget expires inside the
    codec answers 504 *without completing the decode* — visible as the
    ``lepton.session.decode.bytes_out`` counter advancing by less than
    the file (the put-time verification decode is snapshotted out)."""
    jpeg = corpus_jpeg(seed=7, height=128, width=128)

    async def scenario(server, client):
        put = await client.put_file(jpeg)
        assert put.status == 201
        file_id = put.json()["id"]
        before = _decode_bytes_out()
        cancelled = await client.get_file(file_id, deadline=0.01)
        assert cancelled.status == 504
        assert cancelled.json()["error"] == "deadline_exceeded"
        decoded = _decode_bytes_out() - before
        assert decoded < len(jpeg)  # the decode never finished
        exceeded = sum(
            c.value for labels, c in
            server.registry.series("serve.deadline_exceeded")
            if labels.get("route") == "/files/{id}")
        assert exceeded >= 1
        # The same file still reads fine with budget to spare.
        unhurried = await client.get_file(file_id, deadline=60)
        assert unhurried.status == 200 and unhurried.body == jpeg

    with_server(scenario)


def test_decode_session_deadline_is_cooperative():
    """Deterministic unit half of the mid-codec criterion: a session
    whose deadline already passed raises between row bands instead of
    decoding to completion."""
    jpeg = corpus_jpeg(seed=7, height=96, width=96)
    payload = compress(jpeg, LeptonConfig(threads=1)).payload
    session = DecodeSession(deadline=time.monotonic() - 1.0)
    with pytest.raises(TimeoutExceeded):
        out = [piece for piece in session.write(payload)]
        out.extend(session.finish())


# -- Retry-After: the server's estimate beats the client's guess ----------

def test_client_obeys_retry_after_over_policy(small_jpeg):
    """Open the GET breaker, then fetch through a client whose *policy*
    backoff is 30s: only the server's 1s ``Retry-After`` can explain the
    request succeeding in a couple of seconds."""
    config = _config(breaker_threshold=2, breaker_reset=0.2)

    async def scenario(server, client):
        put = await client.put_file(small_jpeg)
        file_id = put.json()["id"]
        for _ in range(2):
            server.breakers.failure("/files/{id}")
        refused = await client.get_file(file_id)
        assert refused.status == 503
        assert refused.json()["error"] == "breaker_open"
        assert int(refused.headers["retry-after"]) >= 1

        patient = ServeClient(
            server.config.host, server.port,
            retry=RetryPolicy(max_attempts=3, base_delay=30.0, jitter=0.0))
        try:
            started = time.monotonic()
            recovered = await patient.get_file(file_id)
            elapsed = time.monotonic() - started
        finally:
            await patient.close()
        assert recovered.status == 200 and recovered.body == small_jpeg
        assert elapsed < 10.0  # policy backoff alone would be 30s+
        rendered = server.registry.render()
        assert "serve.breaker.rejected" in rendered

    with_server(scenario, config)


def test_client_falls_back_to_policy_without_retry_after():
    """Both halves of the satellite: with no ``Retry-After`` on the 503
    the client's own policy paces the retries, and when attempts run out
    the last 503 is returned (not raised)."""
    responses = [b"HTTP/1.1 503 Service Unavailable\r\n"
                 b"Content-Length: 0\r\n\r\n",
                 b"HTTP/1.1 503 Service Unavailable\r\n"
                 b"Content-Length: 0\r\n\r\n",
                 b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"]
    served = []

    async def _stub(reader, writer):
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            if not head:
                break
            writer.write(responses[min(len(served), len(responses) - 1)])
            served.append(head.split(b" ", 1)[0])
            await writer.drain()

    async def _main():
        stub = await asyncio.start_server(_stub, "127.0.0.1", 0)
        port = stub.sockets[0].getsockname()[1]
        client = ServeClient(
            "127.0.0.1", port,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0))
        try:
            before = get_registry().counter(
                "retry.attempts", scope="serve_client").value
            response = await client.request("GET", "/thing")
            assert response.status == 200 and response.body == b"ok"
            assert len(served) == 3  # two policy-paced retries
            attempts = get_registry().counter(
                "retry.attempts", scope="serve_client").value - before
            assert attempts == 2

            served.clear()
            responses[2] = responses[0]  # now the stub never recovers
            exhausted = await client.request("GET", "/thing")
            assert exhausted.status == 503  # returned, not raised
            assert len(served) == 3  # max_attempts bounds the loop
        finally:
            await client.close()
            stub.close()
            await stub.wait_closed()

    asyncio.run(_main())


# -- drain lets in-flight streams finish (satellite regression) -----------

def test_drain_finishes_inflight_streaming_get():
    """A drain arriving mid-stream must not sever the response: the
    in-flight GET holds the admission gate open and delivers every byte
    before the connection is released."""
    jpeg = corpus_jpeg(seed=11, height=128, width=128)

    async def scenario(server, client):
        put = await client.put_file(jpeg)
        file_id = put.json()["id"]
        # Slow each streamed piece down so the drain demonstrably lands
        # while the response body is still going out.
        original = server.store.stream_range

        def dripping(*args, **kwargs):
            for piece in original(*args, **kwargs):
                time.sleep(0.02)
                yield piece

        server.store.stream_range = dripping
        fetch = asyncio.ensure_future(client.get_file(file_id))
        await asyncio.sleep(0.05)          # the stream is mid-flight
        drain = asyncio.ensure_future(server.drain())
        response = await fetch
        assert response.status == 200
        assert response.body == jpeg       # every byte, despite the drain
        await drain

    with_server(scenario)


# -- AdmissionGate: cancellation releases exactly once (satellite) ---------

def test_gate_concurrent_cancellation_releases_exactly_once():
    async def _main():
        gate = AdmissionGate(max_inflight=1, queue_depth=4)
        await gate.admit()                 # occupy the only slot
        assert gate.inflight == 1

        # A queued waiter cancelled mid-wait surrenders its queue slot.
        waiter = asyncio.ensure_future(gate.admit())
        await asyncio.sleep(0)
        assert gate.waiting == 1
        waiter.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiter
        assert gate.waiting == 0

        # A timed-out waiter does the same via AdmitTimeout.
        with pytest.raises(AdmitTimeout):
            await gate.admit(timeout=0.01)
        assert gate.waiting == 0
        assert gate.inflight == 1          # the holder's slot is untouched

        # The race the satellite pins: the timeout fires and the waiter
        # is cancelled in the same breath; the slot must be given back
        # exactly once — a double release would let TWO of the following
        # admits through the 1-wide gate.
        racer = asyncio.ensure_future(gate.admit(timeout=0.01))
        await asyncio.sleep(0.03)          # timeout has fired inside
        racer.cancel()                     # ...and the caller cancels too
        with pytest.raises((AdmitTimeout, asyncio.CancelledError)):
            await racer
        assert gate.waiting == 0

        gate.release()                     # the original holder finishes
        assert gate.inflight == 0

        # Prove the semaphore balance: exactly one of two fresh admits
        # may proceed.
        first = asyncio.ensure_future(gate.admit())
        second = asyncio.ensure_future(gate.admit())
        await asyncio.sleep(0.01)
        assert gate.inflight == 1 and gate.waiting == 1
        gate.release()
        await asyncio.gather(first, second)
        assert gate.inflight == 1          # the queued one took the slot
        gate.release()
        await asyncio.wait_for(gate.drained(timeout=1.0), timeout=2.0)

    asyncio.run(_main())


def test_rejected_jpeg_puts_leave_breaker_closed(dc_overflow_jpeg, small_jpeg):
    """A JPEG the codec rejects (its DC residuals overflow) is stored as
    Deflate, so repeated uploads of it are successes, not 500s that trip
    the ``/files`` breaker against every other tenant."""
    async def scenario(server, client):
        for i in range(5):
            put = await client.put_file(dc_overflow_jpeg, tenant=f"t{i}")
            assert put.status in (200, 201), put.body
        got = await client.get_file(put.json()["id"])
        assert got.status == 200 and got.body == dc_overflow_jpeg
        other = await client.put_file(small_jpeg, tenant="other")
        assert other.status == 201
        health = (await client.request("GET", "/healthz")).json()
        assert health["breakers"]["/files"]["state"] == "closed"

    with_server(scenario, _config())


# -- /healthz carries the breaker board (satellite) ------------------------

def test_healthz_reports_breaker_state_per_endpoint(small_jpeg):
    config = _config(breaker_threshold=2, breaker_reset=60.0)

    async def scenario(server, client):
        put = await client.put_file(small_jpeg)
        assert put.status == 201
        for _ in range(2):
            server.breakers.failure("/files/{id}")
        health = (await client.request("GET", "/healthz")).json()
        board = health["breakers"]
        assert board["/files"]["state"] == "closed"   # traffic, no faults
        tripped = board["/files/{id}"]
        assert tripped["state"] == "open"
        assert tripped["trips"] == 1
        assert 0 < tripped["retry_after"] <= 60.0
        # The Retry-After a refused request carries is the same truth.
        refused = await client.get_file(put.json()["id"])
        assert refused.status == 503
        assert int(refused.headers["retry-after"]) >= 1

    with_server(scenario, config)
