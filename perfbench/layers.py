"""Per-layer attribution: spans around public layer functions, and a
cProfile pass folded by module for the per-bit code.

The wrappers live here, in the benchmark, not in ``src/``.  They patch
the binding each caller actually uses -- ``repro.core.session`` and
``repro.core.chunks`` import ``parse_jpeg`` and friends by name, so
patching ``repro.jpeg.parser.parse_jpeg`` alone would miss them -- and
:func:`patched` restores every binding on the way out, also when the
body raises.  Per-bit functions (``BoolEncoder.put``, ``Model.branch``,
...) are never wrapped: a span per coded bit would swamp the coder.
Only the profile pass sees them.
"""

import contextlib
import cProfile
import functools
import importlib
import inspect
import itertools
import pstats
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call into a layer.  ``parent`` is the enclosing span on
    the same thread (``None`` at the top, and for coroutine spans, which
    suspend and so cannot nest on a thread's stack)."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    workload: str = ""
    thread: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)
    #: CPU seconds of the span's thread between open and close (0 for
    #: coroutine spans).  Under the GIL, threads' wall-clock spans overlap
    #: while only one runs; CPU time counts the work actually done.
    cpu: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; a per-thread stack supplies parents."""

    def __init__(self, workload: str = ""):
        self.workload = workload
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, time.perf_counter(),
                    parent=stack[-1].id if stack else None,
                    workload=self.workload, thread=threading.get_ident(),
                    attrs=attrs, cpu=time.thread_time())
        stack.append(span)
        return span

    def close(self, span: Span, error: Optional[BaseException] = None) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        if error is not None:
            span.attrs["error"] = type(error).__name__
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def leaf(self, name: str, start: float, end: float,
             error: Optional[BaseException] = None) -> None:
        """Record a span that never sat on a thread's stack."""
        attrs = {"error": type(error).__name__} if error is not None else {}
        with self._lock:
            self.spans.append(Span(next(self._ids), name, start, end,
                                   workload=self.workload,
                                   thread=threading.get_ident(), attrs=attrs))


# -- wrappers ----------------------------------------------------------------

AttrsHook = Callable[[tuple, dict], Dict[str, object]]


def wrap(recorder: SpanRecorder, name: str, fn: Callable,
         attrs: Optional[AttrsHook] = None) -> Callable:
    """A wrapper recording a span per call of ``fn``.

    Generator functions get one span per resumption, so the busy time of
    a stream consumed piece by piece (possibly from several threads) is
    counted where it is spent.  Coroutine functions get one leaf span
    from call to completion.
    """
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            start = time.perf_counter()
            error = None
            try:
                return await fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                recorder.leaf(name, start, time.perf_counter(), error)
        return async_wrapper

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs else {}
            return _traced_pieces(recorder, name, fn(*args, **kwargs), extra)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name, **(attrs(args, kwargs) if attrs else {}))
        error = None
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = exc
            raise
        finally:
            recorder.close(span, error)
    return wrapper


def _traced_pieces(recorder, name, gen, extra):
    try:
        while True:
            span = recorder.open(name, **extra)
            error = None
            try:
                item = next(gen)
            except StopIteration:
                return
            except BaseException as exc:
                error = exc
                raise
            finally:
                recorder.close(span, error)
            yield item
    finally:
        gen.close()


Binding = Tuple[object, str, object]  # (owner, attribute, replacement)


@contextlib.contextmanager
def patched(bindings: Iterable[Binding]):
    """Install ``bindings`` and restore every original on exit.

    Originals are read from the owner's ``__dict__`` for classes, so a
    ``staticmethod`` or ``classmethod`` comes back as the same
    descriptor.  If installing one binding fails, those already
    installed are restored before the error propagates.
    """
    saved = []
    try:
        for owner, attr, replacement in bindings:
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            setattr(owner, attr, replacement)
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass(frozen=True)
class Target:
    """A public layer function to time: ``module:qualname`` -> span name."""

    span: str
    module: str
    qualname: str
    attrs: Optional[AttrsHook] = None


def _put_attrs(args, kwargs):
    store, name = args[0], args[1]
    data = args[2] if len(args) > 2 else kwargs["data"]
    return {"dedup": name in store.files, "bytes": len(data)}


def _write_attrs(args, kwargs):
    data = args[2] if len(args) > 2 else kwargs["data"]
    return {"bytes": len(data)}


#: The layer boundaries the traced run times.
TARGETS: Sequence[Target] = (
    Target("jpeg.parse", "repro.jpeg.parser", "parse_jpeg"),
    Target("jpeg.scan_decode", "repro.jpeg.scan_decode", "decode_scan"),
    Target("jpeg.scan_encode", "repro.jpeg.scan_encode", "encode_scan"),
    Target("jpeg.scan_encode", "repro.jpeg.scan_encode", "ScanEncoder.encode_to"),
    Target("core.verify_index", "repro.core.session", "verify_and_index"),
    Target("core.segment_encode", "repro.core.coefcoder", "SegmentCodec.encode"),
    Target("core.segment_decode", "repro.core.coefcoder", "SegmentCodec.decode"),
    Target("core.container", "repro.core.format", "write_container"),
    Target("core.container", "repro.core.format", "iter_container"),
    Target("core.container", "repro.core.format", "ContainerReader.feed"),
    Target("core.container", "repro.core.format", "ContainerReader.finish"),
    Target("storage.put_file", "repro.storage.blockstore",
           "BlockStore.put_file", _put_attrs),
    Target("storage.compress_chunked", "repro.core.chunks", "compress_chunked"),
    Target("storage.decompress_chunk", "repro.core.chunks", "decompress_chunk"),
    Target("storage.stream_range", "repro.storage.blockstore",
           "BlockStore.stream_range"),
    Target("storage.get_chunk", "repro.storage.blockstore", "BlockStore.get_chunk"),
    Target("storage.backend.write", "repro.storage.backends",
           "FilesystemBackend.write", _write_attrs),
    Target("storage.journal.append", "repro.storage.journal", "Journal.append"),
    Target("storage.uploads.append", "repro.storage.uploads", "UploadLedger.append"),
    Target("serve.admission", "repro.serve.admission", "AdmissionGate.admit"),
)


def bindings_for(recorder: SpanRecorder,
                 targets: Sequence[Target] = TARGETS) -> List[Binding]:
    """Every binding to replace so each target is timed wherever called.

    A module-level function is replaced in every loaded ``repro`` module
    that holds it under any name; a method is replaced on its class.
    """
    bindings: List[Binding] = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            fn = cls.__dict__[attr]
            bindings.append((cls, attr, wrap(recorder, target.span, fn,
                                             target.attrs)))
            continue
        fn = getattr(module, attr)
        replacement = wrap(recorder, target.span, fn, target.attrs)
        for holder in list(sys.modules.values()):
            if not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(holder).items()):
                if value is fn:
                    bindings.append((holder, name, replacement))
    return bindings


# -- span arithmetic ---------------------------------------------------------

def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its CPU time minus the part of its children's CPU time
    that falls inside it.

    Only a span's own children count, each in proportion to how much of
    its interval the span covers: a child that outlived its parent is
    subtracted only for the overlap, and unrelated spans never are.
    """
    by_id = {span.id: span for span in spans}
    covered: Dict[int, float] = {}
    for child in spans:
        parent = by_id.get(child.parent)
        if parent is None or child.duration <= 0:
            continue
        overlap = min(child.end, parent.end) - max(child.start, parent.start)
        if overlap > 0:
            covered[parent.id] = (covered.get(parent.id, 0.0)
                                  + child.cpu * overlap / child.duration)
    return {span.id: span.cpu - covered.get(span.id, 0.0) for span in spans}


def has_ancestor(span: Span, by_id: Dict[int, Span],
                 match: Callable[[Span], bool]) -> bool:
    """Does any span above ``span`` on its thread satisfy ``match``?"""
    parent = by_id.get(span.parent)
    while parent is not None:
        if match(parent):
            return True
        parent = by_id.get(parent.parent)
    return False


def outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {span.id: span for span in spans}
    return [span for span in spans if span.name == name
            and not has_ancestor(span, by_id, lambda p: p.name == name)]


# -- the per-bit profile pass ------------------------------------------------

#: Module groups the profile folds self time into (path suffix -> layer).
PROFILE_GROUPS: Sequence[Tuple[str, str]] = (
    ("repro/core/model.py", "core.model"),
    ("repro/core/bool_coder.py", "core.bool_coder"),
    ("repro/core/coefcoder.py", "core.coefcoder"),
    ("repro/core/predictors.py", "core.predictors"),
    ("repro/core/format.py", "core.format"),
    ("repro/jpeg/huffman.py", "jpeg.huffman"),
    ("repro/jpeg/bitio.py", "jpeg.huffman"),
    ("repro/jpeg/scan_decode.py", "jpeg.huffman"),
    ("repro/jpeg/scan_encode.py", "jpeg.huffman"),
)


def profile_call(fn: Callable[[], object]) -> pstats.Stats:
    """Run ``fn`` under cProfile and return its statistics."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    return pstats.Stats(profiler)


def _entries(stats: pstats.Stats):
    for (path, _line, func), (_cc, ncalls, tottime, cumtime, _callers) in \
            stats.stats.items():
        yield path.replace("\\", "/"), func, ncalls, tottime, cumtime


def fold_profile(stats: pstats.Stats) -> Dict[str, float]:
    """Self-time shares per module group, plus exact per-bit call counts.

    Shares are of the total self time under the profiler; ``*.bits`` and
    ``*.branch_calls`` are call counts, identical for identical inputs.
    """
    total = 0.0
    groups: Dict[str, float] = {layer: 0.0 for _suffix, layer in PROFILE_GROUPS}
    bits = branch_calls = 0
    for path, func, ncalls, tottime, _cum in _entries(stats):
        total += tottime
        for suffix, layer in PROFILE_GROUPS:
            if path.endswith(suffix):
                groups[layer] += tottime
                break
        if path.endswith("repro/core/bool_coder.py") and func in ("put", "get"):
            bits += ncalls
        elif path.endswith("repro/core/model.py") and func == "branch":
            branch_calls += ncalls
    out = {f"{layer}.share": (seconds / total if total else 0.0)
           for layer, seconds in groups.items()}
    out["core.bool_coder.bits"] = float(bits)
    out["core.model.branch_calls"] = float(branch_calls)
    out["profile.total_s"] = total
    return out


#: The rows of the ROADMAP's decode profile table: (row, the
#: ``(path suffix, function)`` pairs whose self time the row sums).
DECODE_TABLE_ROWS: Sequence[Tuple[str, Tuple[Tuple[str, str], ...]]] = (
    ("Per-bit model plumbing", (
        ("repro/core/coefcoder.py", "bit"),        # DecodeIO.bit
        ("repro/core/model.py", "branch"),         # Model.branch
        ("repro/core/model.py", "prob_zero"),      # Branch.prob_zero
        ("repro/core/model.py", "charge"),         # Model.charge
        ("repro/core/model.py", "record"),         # Branch.record
    )),
    ("Arithmetic coder", (("repro/core/bool_coder.py", "get"),)),
    ("DC prediction", (("repro/core/predictors.py", "dc_predictions"),)),
    ("Huffman re-encode", (("repro/jpeg/scan_encode.py", "_encode_block"),)),
)


def decode_table(stats: pstats.Stats) -> List[dict]:
    """The ROADMAP profile table's rows, measured: self and cumulative
    seconds under the profiler, and call counts."""
    entries = list(_entries(stats))
    rows = []
    for label, functions in DECODE_TABLE_ROWS:
        tot = cum = 0.0
        calls = 0
        for path, func, ncalls, tottime, cumtime in entries:
            if any(path.endswith(suffix) and func == name
                   for suffix, name in functions):
                tot += tottime
                cum += cumtime
                calls += ncalls
        row = {"layer": label,
               "functions": [name for _suffix, name in functions],
               "tottime_s": round(tot, 4), "calls": calls}
        if len(functions) == 1:
            # Members of a multi-function row call each other, so their
            # cumulative times overlap; only a lone function's is given.
            row["cumtime_s"] = round(cum, 4)
        rows.append(row)
    return rows
