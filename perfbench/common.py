"""Shared helpers: percentiles, operation samples, environment, memory."""

import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

#: A percentile is reported as resolved only with this many samples
#: strictly beyond it; fewer, and the tail is a guess.
MIN_BEYOND = 10


class WrongBytes(AssertionError):
    """An output byte differed from the generated original: abort the run."""


@dataclass(frozen=True)
class Quantile:
    """A percentile together with the evidence behind it."""

    value: float
    samples: int
    beyond: int

    @property
    def resolved(self) -> bool:
        return self.beyond >= MIN_BEYOND

    def describe(self) -> str:
        if self.resolved:
            return f"n={self.samples}"
        return f"n={self.samples}, unresolved: {self.beyond} beyond"


def percentile(values: Sequence[float], q: float) -> Quantile:
    """``repro.analysis.stats.percentile`` at ``q`` (0 < q < 1), with the
    count of samples strictly greater than the value; the result is
    *unresolved* when fewer than :data:`MIN_BEYOND` lie there.  An empty
    input gives value 0 with nothing beyond.
    """
    from repro.analysis.stats import percentile as interpolate

    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    if not values:
        return Quantile(0.0, 0, 0)
    value = interpolate(values, 100.0 * q)
    return Quantile(value, len(values), sum(1 for v in values if v > value))


@dataclass
class Op:
    """One timed operation as its caller saw it.

    ``due`` is when the operation was scheduled (the open loop's arrival
    time; the start time in a closed loop), so ``latency`` includes any
    wait a stall imposed before it could be sent.
    """

    kind: str                 # e.g. "encode", "decode", "get", "put_jpeg"
    user_bytes: int           # original bytes the user sent or received
    due: float
    sent: float
    done: float
    first_byte: Optional[float] = None
    #: When the open loop's generator handed the operation to a
    #: connection; ``None`` in a closed loop, which has no schedule.
    dispatched: Optional[float] = None
    ok: bool = True

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ttfb(self) -> Optional[float]:
        if self.first_byte is None:
            return None
        return self.first_byte - self.due

    @property
    def lag(self) -> Optional[float]:
        """How late the generator ran against the schedule."""
        if self.dispatched is None:
            return None
        return self.dispatched - self.due


@dataclass
class RunResult:
    """Everything a workload run measured, before it becomes metrics."""

    ops: List[Op] = field(default_factory=list)
    setup_seconds: List[float] = field(default_factory=list)
    stored_bytes: int = 0
    user_bytes: int = 0
    #: Workload-specific facts for the report (counts, parameters).
    notes: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def environment() -> dict:
    """The facts a recorded run needs to be compared with another."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def log(message: str) -> None:
    """Progress goes to stderr; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)
