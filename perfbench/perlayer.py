"""The traced run: per-layer metrics from spans and the profile pass.

Each metric is named after the layer it measures; README.md lists which
end-to-end metric it should move, and on which workload.  A layer a
workload never calls reports 0.
"""

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List

from common import ROOT, RunResult, percentile
from layers import (SpanRecorder, bindings_for, decode_table, fold_profile,
                    has_ancestor, outermost, patched, profile_call, self_times)
from repro.core.lepton import compress, decompress
from repro.core.segments import choose_thread_count
from repro.corpus.builder import corpus_jpeg
import workloads

#: Profile-derived metrics (codec_corpus only; 0 elsewhere).
PROFILE_METRICS = (
    ("core.model.share", "share"),
    ("core.bool_coder.share", "share"),
    ("core.coefcoder.share", "share"),
    ("core.predictors.share", "share"),
    ("core.format.share", "share"),
    ("jpeg.huffman.share", "share"),
    ("core.bool_coder.bits", "count"),
    ("core.model.branch_calls", "count"),
)


@dataclass
class Traced:
    rows: Dict[str, tuple]      # name -> (value, unit, note)
    result: RunResult


def traced_run(workload: str, seed: int, seconds: float,
               untraced: RunResult) -> Traced:
    """Run ``workload`` again with every layer wrapper installed, then
    (codec_corpus only) one corpus pass under cProfile, untraced.  The
    spans are written to ``.bench_build/spans-<workload>-<seed>.jsonl``."""
    recorder = SpanRecorder(workload)
    traced = workloads.run_workload(
        workload, seed, seconds, setups=1,
        hook=lambda: patched(bindings_for(recorder)))
    profile: Dict[str, float] = {}
    if workload == "codec_corpus":
        items = workloads.codec_setup(workloads.codec_inputs(seed))
        stats = profile_call(lambda: workloads.codec_pass(items, RunResult()))
        profile = fold_profile(stats)
    path = ROOT / ".bench_build" / f"spans-{workload}-{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(asdict(span)) + "\n")
    return Traced(per_layer(workload, recorder.spans, traced, untraced,
                            profile), traced)


def per_layer(workload: str, spans, traced: RunResult, untraced: RunResult,
              profile: Dict[str, float]) -> Dict[str, tuple]:
    by_id = {span.id: span for span in spans}

    def calls(name):
        return float(sum(1 for s in spans if s.name == name))

    def busy(name):
        return sum(s.duration for s in outermost(spans, name))

    rows: Dict[str, tuple] = {}

    def add(name, value, unit, note=""):
        rows[name] = (float(value), unit, note)

    add("jpeg.parse.calls", calls("jpeg.parse"), "count")
    add("jpeg.parse.s", busy("jpeg.parse"), "s")
    add("jpeg.scan_decode.s", busy("jpeg.scan_decode"), "s")
    add("jpeg.scan_encode.s", busy("jpeg.scan_encode"), "s")
    add("core.verify_index.s", busy("core.verify_index"), "s")
    add("core.segment_encode.s", busy("core.segment_encode"), "s")
    add("core.segment_decode.s", busy("core.segment_decode"), "s")
    add("core.container.s", busy("core.container"), "s")
    for name, unit in PROFILE_METRICS:
        add(name, profile.get(name, 0.0), unit,
            "profile pass" if profile else "")

    # Segment parallelism: segment CPU time over decode wall time, on the
    # files production defaults split into several segments.  CPU, not
    # span wall time: segment threads' spans overlap while they take
    # turns holding the GIL.
    windows = [(op.due, op.done) for op in traced.ops
               if op.kind == "decode" and choose_thread_count(op.user_bytes) > 1]
    segment_busy = sum(
        s.cpu for s in spans
        if s.name in ("core.segment_decode", "jpeg.scan_encode")
        and any(a <= s.start and s.end <= b for a, b in windows))
    wall = sum(b - a for a, b in windows)
    add("core.segment_parallelism", segment_busy / wall if wall else 0.0,
        "ratio", f"{len(windows)} multi-segment decodes")

    put_spans = [s for s in spans if s.name == "storage.put_file"]
    add("storage.put_file.calls", len(put_spans), "count")
    add("storage.put_file.s", busy("storage.put_file"), "s")
    add("storage.compress_chunked.s", busy("storage.compress_chunked"), "s")
    add("storage.verify_gate.s", sum(
        s.duration for s in outermost(spans, "storage.decompress_chunk")
        if has_ancestor(s, by_id, lambda p: p.name == "storage.put_file")),
        "s")
    add("storage.dedup_hits", sum(1 for s in put_spans if s.attrs.get("dedup")),
        "count")
    add("storage.stream_range.s", busy("storage.stream_range"), "s")
    add("storage.get_chunk.calls", calls("storage.get_chunk"), "count")

    writes = [s for s in spans if s.name == "storage.backend.write"]
    written = sum(s.attrs.get("bytes", 0) for s in writes)
    add("storage.backend.write.calls", len(writes), "count")
    add("storage.backend.write.s", busy("storage.backend.write"), "s")
    add("storage.backend.bytes_written", written, "bytes")
    add("storage.write_amp", written / traced.user_bytes
        if traced.user_bytes else 0.0, "ratio", "bytes written / user bytes")
    add("storage.journal.append.calls", calls("storage.journal.append"), "count")
    add("storage.journal.append.s", busy("storage.journal.append"), "s")
    add("storage.uploads.append.s", busy("storage.uploads.append"), "s")
    add("storage.degraded_fallbacks",
        traced.notes.get("degraded_fallbacks", 0), "count", "must stay 0")
    add("storage.rejected_roundtrips",
        traced.notes.get("rejected_roundtrips", 0), "count", "must stay 0")

    admits = [s for s in spans if s.name == "serve.admission"]
    wait = percentile([s.duration for s in admits], 0.9)
    add("serve.admission.wait_p90_ms", 1e3 * wait.value, "ms", wait.describe())
    add("serve.admission.shed",
        sum(1 for s in admits if s.attrs.get("error") == "Saturated"), "count")
    # Client latency minus admission wait minus storage busy time: what
    # the HTTP front-end, the executor hand-offs and the socket cost.
    storage_busy = sum(
        s.duration for s in spans
        if s.name.startswith("storage.")
        and not has_ancestor(s, by_id, lambda p: p.name.startswith("storage.")))
    serve_self = (sum(op.done - op.sent for op in traced.ops)
                  - sum(s.duration for s in admits) - storage_busy) if admits else 0.0
    add("serve.self_s", serve_self, "s")

    if workload == "serve_read":
        # Only the open loop has a schedule to be late against; the
        # metric is not declared for the closed-loop workloads.
        lag = percentile([op.lag for op in traced.ops], 0.9)
        add("loadgen.lag_p90_ms", 1e3 * lag.value, "ms", lag.describe())

    add("trace.overhead", _mean_latency(traced) / _mean_latency(untraced)
        if _mean_latency(untraced) else 0.0, "ratio",
        "traced / untraced mean operation latency")
    add("trace.residue_share", _residue_share(spans, traced), "share",
        "codec op wall time no layer span accounts for")
    return rows


def _mean_latency(result: RunResult) -> float:
    ok = [op.latency for op in result.ops if op.ok]
    return sum(ok) / len(ok) if ok else 0.0


def _residue_share(spans, traced: RunResult) -> float:
    """On codec_corpus (one caller, no server): the share of encode and
    decode wall time outside every layer's self CPU time."""
    windows = [(op.due, op.done) for op in traced.ops
               if op.kind in ("encode", "decode")]
    wall = sum(b - a for a, b in windows)
    if not wall:
        return 0.0
    selfs = self_times(spans)
    attributed = sum(selfs[s.id] for s in spans
                     if any(a <= s.start and s.end <= b for a, b in windows))
    return 1.0 - attributed / wall


def decode_profile_table(seed: int) -> dict:
    """ROADMAP's baseline table, measured: one 256 px q85 corpus file's
    decode under cProfile, grouped by layer, plus unprofiled wall times."""
    data = corpus_jpeg(seed=seed, height=256, width=256, quality=85)
    payload = compress(data).payload

    def best_of(fn, n=3):
        best = None
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        return best

    encode_s = best_of(lambda: compress(data))
    decode_s = best_of(lambda: decompress(payload))
    stats = profile_call(lambda: decompress(payload))
    rows: List[dict] = decode_table(stats)
    return {
        "file": {"corpus_jpeg": {"seed": seed, "height": 256, "width": 256,
                                 "quality": 85},
                 "jpeg_bytes": len(data), "lepton_bytes": len(payload)},
        "encode_s_best_of_3": encode_s,
        "decode_s_best_of_3": decode_s,
        "encode_mbps": 8 * len(data) / encode_s / 1e6,
        "decode_mbps": 8 * len(data) / decode_s / 1e6,
        "profiled_decode_total_s": fold_profile(stats)["profile.total_s"],
        "rows": rows,
    }
