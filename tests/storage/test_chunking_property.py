"""Property tests on the content-addressing layer."""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import chunk_ranges
from repro.storage.backfill import Metaserver, UserFile


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=4096), st.integers(1, 600))
def test_split_partitions_exactly(data, chunk_size):
    chunks = [data[a:b] for a, b in chunk_ranges(len(data), chunk_size)]
    assert b"".join(chunks) == data
    assert all(len(c) <= chunk_size for c in chunks)
    assert all(len(c) == chunk_size for c in chunks[:-1])


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=2048), st.integers(1, 500))
def test_refs_match_manual_hashes(data, chunk_size):
    """The metaserver's chunk hashes are the sha256 of each chunk range."""
    meta = Metaserver({1: [UserFile("f.jpg", data)]}, n_shards=1,
                      chunk_size=chunk_size)
    response = meta.request_work(0)
    chunks = [data[a:b] for a, b in chunk_ranges(len(data), chunk_size)]
    assert len(response.chunk_hashes) == len(chunks)
    for sha, chunk in zip(response.chunk_hashes, chunks):
        assert sha == hashlib.sha256(chunk).hexdigest()
        assert meta.chunk_data(sha) == chunk
