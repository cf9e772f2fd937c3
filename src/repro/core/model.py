"""Lepton's adaptive probability model: statistic bins and their contexts.

A "statistic bin" (§3.2) tracks how often a particular binary decision came
out 0 vs 1 in a particular context, and supplies the probability for the
next occurrence.  Production Lepton preallocates 721,564 bins; we allocate
them lazily in a dict keyed by context tuples, which is behaviourally
identical (untouched bins would stay at 50/50 anyway) and keeps the Python
working set proportional to the contexts actually seen.

Bins are *independent*: learning in one context never leaks into another
(§3.2).  Each thread segment gets a fresh :class:`Model`, which is exactly
why adding threads costs compression (§3.4) — an effect measured by
``benchmarks/bench_fig8_encode_speed_threads.py``.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

# --- fixed-point information accounting -----------------------------------

#: Fractional bits of the fixed-point Shannon costs below.
COST_FRAC_BITS = 16


def _log2_fix(x: int, frac_bits: int = COST_FRAC_BITS) -> int:
    """⌊log₂(x) · 2^frac_bits⌋ by shift-and-square, in exact integer
    arithmetic — no libm, so the value is identical on every platform
    (rule D1: the coded path and its tables never touch floats)."""
    if x <= 0:
        raise ValueError("log2 of a non-positive value")
    int_part = x.bit_length() - 1
    result = int_part << frac_bits
    # Mantissa in [1, 2) as a Q31 fixed-point value.
    if int_part <= 31:
        mantissa = x << (31 - int_part)
    else:
        mantissa = x >> (int_part - 31)
    for i in range(frac_bits):
        mantissa = (mantissa * mantissa) >> 31
        if mantissa >= (2 << 31):
            mantissa >>= 1
            result |= 1 << (frac_bits - 1 - i)
    return result


#: Shannon cost (in bits scaled by 2^16) of coding a *zero* bit under
#: probability ``p/256``: −log₂(p/256) = 8 − log₂(p).  A *one* bit under
#: probability ``p`` costs ``_BIT_COST[256 − p]``.
_BIT_COST = [0] * 257
for _p in range(1, 256):
    _BIT_COST[_p] = (8 << COST_FRAC_BITS) - _log2_fix(_p)


@dataclass
class ModelConfig:
    """Tunable model behaviour; defaults reproduce the paper's design.

    The alternates exist for the §4.3 ablations: ``edge_mode="avg"`` uses
    the same weighted-average prediction for the 7x1/1x7 coefficients as for
    the 7x7 block (baseline-PackJPG style), and ``dc_mode="packjpg"`` /
    ``"median8"`` downgrade DC prediction to the left-neighbour delta or the
    first-cut median-of-8 border match.
    """

    edge_mode: str = "lakhani"  # "lakhani" | "avg"
    dc_mode: str = "gradient"  # "gradient" | "median8" | "packjpg"
    max_value_exponent: int = 14  # unary exponent cap (values < 2^14)


class Model:
    """One segment's statistic bins plus the encoder's information costs.

    ``bins`` maps a context tuple to the bin's mutable ``[zeros, ones]``
    counts, created at ``[1, 1]`` on first use by
    :class:`~repro.core.coefcoder.BitIO`.  ``costs`` maps a context's
    section id (``key[1]``) to the Shannon information of the bits encoded
    under it, in 2^16 fixed point so the coded path stays integer-exact;
    :attr:`~repro.core.coefcoder.SegmentCodec.bit_costs` folds it into the
    Figure-4 categories.
    """

    __slots__ = ("bins", "costs")

    def __init__(self):
        self.bins: Dict[Tuple, List[int]] = {}
        self.costs: Dict[object, int] = {}

    @property
    def bin_count(self) -> int:
        return len(self.bins)


# --- shared context-bucketing helpers (encoder and decoder must agree) ----

# ⌊log₁.₅₉ n⌋ capped to 9, built in exact integer arithmetic: with
# 1.59 = 159/100, bucket(n) is the largest k ≤ 9 with 159^k ≤ n·100^k.
# (tests/core/test_model.py pins this table against the real-log formula.)
_NNZ_BUCKET = [0] * 50
for _n in range(1, 50):
    _k = 0
    while _k < 9 and 159 ** (_k + 1) <= _n * 100 ** (_k + 1):
        _k += 1
    _NNZ_BUCKET[_n] = _k


def nnz_bucket(n: int) -> int:
    """⌊log₁.₅₉ n⌋ capped to 0..9 — the paper's non-zero-count bucketing."""
    if n <= 0:
        return 0
    if n >= 50:
        return 9
    return _NNZ_BUCKET[n]


def avg_bucket(total_abs: int) -> int:
    """⌊log₂(weighted |neighbour| average)⌋ capped to 0..11 (§3.3)."""
    return min(total_abs.bit_length(), 11)


def pred_bucket(pred: int, cap: int = 11) -> int:
    """Signed log bucket of a predicted value: sign × ⌈log₂⌉, ±cap."""
    mag = min(abs(pred).bit_length(), cap)
    return mag if pred >= 0 else -mag


def confidence_bucket(spread: int) -> int:
    """Bucket the max−min spread of the 16 DC predictions (§A.2.3)."""
    return min(spread.bit_length(), 13)
