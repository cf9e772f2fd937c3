"""Self-tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import asyncio
import contextlib
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from common import MIN_BEYOND, Op, percentile  # noqa: E402
from layers import (Span, SpanRecorder, bindings_for, patched,  # noqa: E402
                    self_times, wrap)
from loadgen import Arrival, open_loop, stratified_choice  # noqa: E402


# -- percentiles -------------------------------------------------------------

@pytest.mark.parametrize("n,q,resolved", [
    (19, 0.5, False), (20, 0.5, True), (21, 0.5, True),
    (91, 0.9, False), (92, 0.9, True), (100, 0.9, True),
])
def test_percentile_unresolved_below_ten_beyond(n, q, resolved):
    result = percentile([float(i) for i in range(n)], q)
    assert result.resolved is resolved
    assert (result.beyond >= MIN_BEYOND) is resolved
    if not resolved:
        assert "unresolved" in result.describe()


def test_percentile_counts_ties_as_not_beyond():
    result = percentile([1.0] * 30 + [2.0] * 5, 0.5)
    assert result.value == 1.0
    assert result.beyond == 5
    assert not result.resolved


def test_percentile_interpolates_and_rejects_bad_quantiles():
    assert percentile([0.0, 10.0], 0.5).value == 5.0
    assert percentile([], 0.5).samples == 0
    with pytest.raises(ValueError):
        percentile([1.0], 1.0)


# -- open-loop timing --------------------------------------------------------

class _StubClient:
    async def __aenter__(self):
        return self

    async def __aexit__(self, *exc):
        return False


def test_open_loop_counts_latency_from_due_time():
    """One stalled request delays those queued behind it, and the delay
    shows in their latency even though their own service is instant."""
    stall = 0.3

    async def execute(client, request, op: Op):
        op.kind = request
        if request == "stall":
            await asyncio.sleep(stall)

    arrivals = [Arrival(0.0, "stall"), Arrival(0.05, "quick"),
                Arrival(0.10, "quick")]
    ops = asyncio.run(open_loop(arrivals, 1, _StubClient, execute))
    quick = [op for op in ops if op.kind == "quick"]
    assert len(quick) == 2
    for op in quick:
        assert op.sent - op.due >= stall - 0.12        # waited for the stall
        assert op.latency >= stall - 0.12              # and it counts
        assert op.done - op.sent < 0.05                # service was quick
        assert op.lag is not None and op.lag < 0.05    # generator on time


def test_stratified_choice_matches_weights():
    import numpy as np

    picks = stratified_choice(np.random.default_rng(3), [0.5, 0.3, 0.2], 10)
    assert sorted(picks) == [0] * 5 + [1] * 3 + [2] * 2


# -- wrappers ----------------------------------------------------------------

def _module_with_function():
    module = types.ModuleType("repro_fake_for_test")

    def work(x):
        return x + 1

    module.work = work
    return module


class _Thing:
    def method(self):
        return "original"

    @staticmethod
    def helper():
        return "static"


def test_patched_restores_every_binding_on_exception():
    module = _module_with_function()
    original_fn = module.work
    original_method = _Thing.__dict__["method"]
    original_static = _Thing.__dict__["helper"]
    recorder = SpanRecorder("test")
    bindings = [
        (module, "work", wrap(recorder, "fake.work", original_fn)),
        (_Thing, "method", wrap(recorder, "fake.method", original_method)),
        (_Thing, "helper", staticmethod(lambda: "patched")),
    ]
    with pytest.raises(RuntimeError):
        with patched(bindings):
            assert module.work(1) == 2
            assert _Thing().method() == "original"
            assert _Thing.helper() == "patched"
            raise RuntimeError("boom")
    assert module.work is original_fn
    assert _Thing.__dict__["method"] is original_method
    assert _Thing.__dict__["helper"] is original_static
    assert [s.name for s in recorder.spans] == ["fake.work", "fake.method"]


def test_patched_restores_earlier_bindings_when_a_later_one_fails():
    module = _module_with_function()
    original_fn = module.work
    bindings = [(module, "work", lambda x: x),
                (object(), "missing", None)]   # getattr fails
    with pytest.raises(AttributeError):
        with patched(bindings):
            pass  # pragma: no cover - never entered
    assert module.work is original_fn


def test_bindings_reach_by_name_imports_and_are_restored():
    import repro.core.session as session
    import repro.jpeg.parser as parser

    original = parser.parse_jpeg
    assert session.parse_jpeg is original   # imported by name
    recorder = SpanRecorder("test")
    with contextlib.suppress(KeyError):
        with patched(bindings_for(recorder)):
            assert session.parse_jpeg is not original
            assert parser.parse_jpeg is not original
            raise KeyError("leave early")
    assert session.parse_jpeg is original
    assert parser.parse_jpeg is original


def test_generator_wrapper_times_each_resumption_and_closes_on_error():
    recorder = SpanRecorder("test")

    def pieces():
        yield b"a"
        yield b"b"
        raise ValueError("rotten")

    wrapped = wrap(recorder, "gen", pieces)
    stream = wrapped()
    assert next(stream) == b"a"
    assert next(stream) == b"b"
    with pytest.raises(ValueError):
        next(stream)
    assert len(recorder.spans) == 3
    assert recorder.spans[-1].attrs["error"] == "ValueError"


def test_spans_nest_by_thread_stack():
    recorder = SpanRecorder("test")
    inner = wrap(recorder, "inner", lambda: None)
    outer = wrap(recorder, "outer", lambda: inner())
    outer()
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_only_covered_child_intervals():
    def span(id_, start, end, parent=None):
        return Span(id_, f"s{id_}", start, end, parent=parent,
                    cpu=end - start)

    spans = [
        span(1, 0.0, 10.0),
        span(2, 2.0, 4.0, parent=1),
        span(4, 8.0, 12.0, parent=1),     # outlives the parent by half
        span(5, 1.0, 9.0),                # not a child: ignored
        span(6, 2.5, 3.5, parent=2),      # a grandchild: only its parent's
    ]
    selfs = self_times(spans)
    # the parent covers 2 s of child 2 and 2 of child 4's 4 s
    assert selfs[1] == pytest.approx(6.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(4.0)
    assert selfs[5] == pytest.approx(8.0)


def test_spans_record_thread_cpu_time():
    recorder = SpanRecorder("test")

    def spin():
        total = 0
        for i in range(200000):
            total += i
        return total

    wrap(recorder, "spin", spin)()
    (only,) = recorder.spans
    assert 0 < only.cpu <= only.duration + 0.01


# -- inputs ------------------------------------------------------------------

def test_inputs_and_containers_repeat_for_a_seed():
    """Same seed, same bytes in, same containers out: compression_ratio
    is identical across runs of one seed."""
    from corpus import Spec, choose, render
    from repro.core.lepton import compress
    from repro.corpus.builder import corpus_jpeg

    specs = [Spec(64, 64, 85, nominal=900), Spec(48, 64, 75, "4:4:4",
                                                 nominal=800)]
    first = render("t", choose(7, "t", specs))
    corpus_jpeg.cache_clear()
    second = render("t", choose(7, "t", specs))
    assert [i.data for i in first] == [i.data for i in second]
    other = render("t", choose(8, "t", specs))
    assert [i.data for i in other] != [i.data for i in first]
    a = [compress(i.data).payload for i in first]
    b = [compress(i.data).payload for i in second]
    assert a == b


def test_tagged_variants_share_no_chunk():
    from workloads import CHUNK_SIZE, WritePlan

    import numpy as np

    rng = np.random.default_rng(0)
    bases = [rng.integers(0, 256, 9000, dtype=np.uint8).tobytes()
             for _ in range(8)]
    state = types.SimpleNamespace(extra={
        "jpegs": [b"\xff\xd8" + base for base in bases], "blobs": bases})
    plan = WritePlan(state)
    seen = set()
    for i in range(40):
        request = plan.next_request(0, i)
        if request.kind not in ("put_jpeg", "upload", "put_blob"):
            continue
        data = request.data
        chunks = {data[k:k + CHUNK_SIZE] for k in range(0, len(data), CHUNK_SIZE)}
        assert not chunks & seen
        seen |= chunks


# -- the recorded contract ---------------------------------------------------

def test_declared_metrics_are_the_ones_emitted():
    import json

    import run
    from common import RunResult
    from perlayer import per_layer

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = RunResult(setup_seconds=[1.0])
    assert (sorted(run.end_to_end(result))
            == sorted(m["name"] for m in declared["end_to_end"]))
    for workload in (w["name"] for w in declared["workloads"]):
        assert (sorted(per_layer(workload, [], result, result, {}))
                == sorted(m["name"] for m in declared["per_layer"]))
    import workloads
    record = json.loads((HERE / "workloads.json").read_text())
    assert ([w["name"] for w in declared["workloads"]]
            == [w for w in workloads.WORKLOADS if record[w]["gated"]])


def test_workload_record_matches_the_code():
    import json

    import workloads

    record = json.loads((HERE / "workloads.json").read_text())
    assert record["serve_read"]["rate_per_s"] == workloads.READ_RATE
    assert record["serve_read"]["connections"] == workloads.CONNECTIONS
    assert record["serve_write"]["callers"] == workloads.CONNECTIONS
    assert record["serve_write"]["replicas"] == workloads.WRITE_REPLICAS
    assert list(record["serve_write"]["pattern"]) == list(workloads.WRITE_PATTERN)
    for name in ("serve_read", "serve_write"):
        assert record[name]["chunk_size"] == workloads.CHUNK_SIZE
