"""Coefficient coding: Exp-Golomb values over adaptive bins (§A.2).

One code path serves both directions: every context computation is shared
between encoder and decoder through one :class:`BitIO`, which is the
classic way to guarantee the two sides can never derive different contexts
(the determinism bugs of §6.1 were exactly such divergences).

Coding order per block (§3.3): the 7x7 non-zero count, the 49 interior AC
coefficients in zigzag order, the 7x1/1x7 edge coefficients (delta against
the Lakhani prediction), and finally the DC coefficient (delta against the
gradient prediction) — DC last so that every AC coefficient can inform it.
"""

from typing import Dict, List, Optional

import numpy as np

from repro.core.bool_coder import BoolDecoder, BoolEncoder
from repro.core.errors import FormatError, ValueOutOfRange
from repro.core.model import (
    COST_FRAC_BITS,
    _BIT_COST,
    Model,
    ModelConfig,
    avg_bucket,
    confidence_bucket,
    nnz_bucket,
    pred_bucket,
)
from repro.core.predictors import (
    dc_prediction_median8,
    dc_predictions,
    lakhani_col_prediction,
    lakhani_row_prediction,
    weighted_avg_abs,
    weighted_avg_value,
    _div_round,
)
from repro.jpeg.scan_decode import mcu_block_layout
from repro.jpeg.zigzag import (
    LEFT_COL_RASTER,
    RASTER_TO_ZIGZAG,
    SEVEN_BY_SEVEN_RASTER,
    SEVEN_BY_SEVEN_ZIGZAG_ORDER,
    TOP_ROW_RASTER,
)

# Section ids used in bin context keys.
_SEC_DC = 0
_SEC_77 = 1
_SEC_EDGE = 2
_SEC_NNZ77 = 3
_SEC_NNZ_EDGE = 4

#: The Fig. 4 component category each section's coded bits are charged to.
SECTION_CATEGORY = {
    _SEC_NNZ77: "nnz",
    _SEC_77: "7x7",
    _SEC_EDGE: "edge",
    _SEC_NNZ_EDGE: "edge",
    _SEC_DC: "dc",
}

_DC_CLAMP = 1 << 11
_EDGE_CLAMP = 1 << 10


class BitIO:
    """Codes one bit at a time through the model's adaptive bins.

    The same object drives both directions — ``put`` on a
    :class:`BoolEncoder`, ``get`` on a :class:`BoolDecoder` — so encoder and
    decoder share every context computation above it.  Encoding also
    charges each bit's Shannon cost to its context's section (``key[1]``)
    for the Fig. 4 breakdown; decoding charges nothing.
    """

    __slots__ = ("bins", "costs", "coder", "encoding")

    def __init__(self, model: Model, coder):
        self.bins = model.bins
        self.costs = model.costs
        self.coder = coder
        self.encoding = isinstance(coder, BoolEncoder)

    def bit(self, key: tuple, bit: int = 0) -> int:
        """Code ``bit`` (encode) or return the decoded bit, under ``key``'s
        bin, then update that bin's counts."""
        counts = self.bins.get(key)
        if counts is None:
            counts = self.bins[key] = [1, 1]
        zeros, ones = counts
        # Both counts stay in 1..255, so prob is always in 1..255.
        prob = (zeros << 8) // (zeros + ones)
        if self.encoding:
            self.coder.put(bit, prob)
            section = key[1]
            self.costs[section] = self.costs.get(section, 0) + (
                _BIT_COST[256 - prob] if bit else _BIT_COST[prob])
        else:
            bit = self.coder.get(prob)
        # Lepton's u8 counters: on overflow, halve both counts.
        if bit:
            if ones < 255:
                counts[1] = ones + 1
            else:
                counts[0] = (zeros + 1) >> 1
                counts[1] = 128
        elif zeros < 255:
            counts[0] = zeros + 1
        else:
            counts[0] = 128
            counts[1] = (ones + 1) >> 1
        return bit


def code_value(io, base: tuple, value: Optional[int] = None, max_exp: int = 14) -> int:
    """Code one signed value: unary exponent, sign bit, residual bits.

    Each bit has its own adaptive bin under ``base``.  On encode, ``value``
    is required and returned; on decode the reconstructed value is returned.
    """
    if io.encoding:
        mag = abs(value)
        exp = mag.bit_length()
        if exp > max_exp:
            raise ValueOutOfRange(f"value {value} exceeds exponent cap {max_exp}")
        i = 0
        while True:
            bit = 1 if i < exp else 0
            io.bit(base + (0, i), bit)
            if not bit:
                break
            i += 1
            if i >= max_exp:
                break
    else:
        exp = 0
        while True:
            if not io.bit(base + (0, exp)):
                break
            exp += 1
            if exp >= max_exp:
                break
    if exp == 0:
        return 0
    if io.encoding:
        sign = 1 if value < 0 else 0
        io.bit(base + (1, 0), sign)
    else:
        sign = io.bit(base + (1, 0))
    mag_out = 1 << (exp - 1)
    for j in range(exp - 2, -1, -1):
        if io.encoding:
            bit = (abs(value) >> j) & 1
            io.bit(base + (2, exp, j), bit)
        else:
            bit = io.bit(base + (2, exp, j))
        mag_out |= bit << j
    return -mag_out if sign else mag_out


def code_counter(io, base: tuple, nbits: int, value: Optional[int] = None) -> int:
    """Code an ``nbits``-wide counter through a bin tree (prefix-contexted).

    This is the paper's non-zero-count scheme: each bit's bin is further
    indexed by the previously coded bits, giving ``2^nbits − 1`` tree nodes
    per outer context (§A.2.1).
    """
    prefix = 0
    for b in range(nbits - 1, -1, -1):
        if io.encoding:
            bit = (value >> b) & 1
            io.bit(base + (b, prefix), bit)
        else:
            bit = io.bit(base + (b, prefix))
        prefix = (prefix << 1) | bit
    return prefix


class ComponentState:
    """Per-component coding state shared across a segment."""

    def __init__(self, index: int, coefficients: np.ndarray, qtable: np.ndarray):
        self.index = index
        self.coefficients = coefficients  # (blocks_h, blocks_w, 64) int32
        self.qtable = qtable  # raster, int32, len 64
        self.q8 = qtable.reshape(8, 8).astype(np.int64)
        self.q_dc = int(qtable[0])
        blocks_h, blocks_w = coefficients.shape[:2]
        self.nnz_grid = np.zeros((blocks_h, blocks_w), dtype=np.int32)


class SegmentCodec:
    """Codes all blocks of a contiguous MCU range against one model.

    A fresh :class:`SegmentCodec` (and hence fresh model) is created per
    thread segment and per chunk; context neighbours above the segment's
    first block row are treated as absent, which is precisely the
    compression cost of multithreading the paper quantifies (§3.4).
    """

    def __init__(self, frame, quant_tables, coefficients: List[np.ndarray],
                 config: Optional[ModelConfig] = None):
        self.frame = frame
        self.config = config or ModelConfig()
        self.model = Model()
        self.layout = mcu_block_layout(frame)
        self.components = [
            ComponentState(ci, coefficients[ci], quant_tables[comp.quant_table_id])
            for ci, comp in enumerate(frame.components)
        ]
        self._seg_start = 0

    # -- public entry points ------------------------------------------------

    def encode(self, encoder: BoolEncoder, mcu_start: int, mcu_end: int,
               seg_start: Optional[int] = None) -> None:
        """Encode MCUs ``[mcu_start, mcu_end)`` into ``encoder``.

        ``seg_start`` pins the segment's true first MCU when coding an
        incremental sub-range (the row-bounded streaming path); context
        visibility must always be computed against the segment start, not
        the sub-range start.
        """
        self._run(BitIO(self.model, encoder), mcu_start, mcu_end, seg_start)

    def decode(self, decoder: BoolDecoder, mcu_start: int, mcu_end: int,
               seg_start: Optional[int] = None) -> None:
        """Decode MCUs ``[mcu_start, mcu_end)``, filling coefficient arrays."""
        self._run(BitIO(self.model, decoder), mcu_start, mcu_end, seg_start)

    @property
    def bit_costs(self) -> Dict[str, float]:
        """Information the encoder charged per Fig. 4 category, in bits.

        Folds the model's per-section fixed-point costs through
        :data:`SECTION_CATEGORY`.  Reporting only, hence the one sanctioned
        float conversion off the coded path.
        """
        fixed = dict.fromkeys(SECTION_CATEGORY.values(), 0)
        for section, cost in self.model.costs.items():
            fixed[SECTION_CATEGORY[section]] += cost
        scale = 1 << COST_FRAC_BITS
        return {k: v / scale for k, v in fixed.items()}  # lint: disable=D1

    # -- machinery ------------------------------------------------------

    def _run(self, io, mcu_start: int, mcu_end: int,
             seg_start: Optional[int] = None) -> None:
        frame = self.frame
        self._seg_start = mcu_start if seg_start is None else seg_start
        for mcu in range(mcu_start, mcu_end):
            mcu_y, mcu_x = divmod(mcu, frame.mcus_x)
            for ci, dy, dx in self.layout:
                comp = frame.components[ci]
                by = mcu_y * (comp.v if frame.interleaved else 1) + dy
                bx = mcu_x * (comp.h if frame.interleaved else 1) + dx
                self._code_block(io, ci, by, bx)

    def _block_mcu(self, ci: int, by: int, bx: int) -> int:
        """MCU index that codes component block (by, bx)."""
        if self.frame.interleaved:
            comp = self.frame.components[ci]
            return (by // comp.v) * self.frame.mcus_x + (bx // comp.h)
        return by * self.frame.mcus_x + bx

    def _neighbours(self, state: ComponentState, by: int, bx: int):
        """Neighbour blocks *visible within this segment*.

        A neighbour counts only if its MCU lies inside the current segment
        range: thread segments decode concurrently, and chunks decode on
        different machines, so context must never reach across a segment
        boundary — on either side of the codec (the determinism rule).
        """
        ci = state.index
        start = self._seg_start
        above = (
            state.coefficients[by - 1, bx]
            if by > 0 and self._block_mcu(ci, by - 1, bx) >= start
            else None
        )
        left = (
            state.coefficients[by, bx - 1]
            if bx > 0 and self._block_mcu(ci, by, bx - 1) >= start
            else None
        )
        above_left = (
            state.coefficients[by - 1, bx - 1]
            if above is not None and left is not None
            and self._block_mcu(ci, by - 1, bx - 1) >= start
            else None
        )
        return above, left, above_left

    def _code_block(self, io, ci: int, by: int, bx: int) -> None:
        state = self.components[ci]
        cur = state.coefficients[by, bx]
        above, left, above_left = self._neighbours(state, by, bx)

        # --- 7x7 non-zero count (§A.2.1) --------------------------------
        n_above = int(state.nnz_grid[by - 1, bx]) if above is not None else 0
        n_left = int(state.nnz_grid[by, bx - 1]) if left is not None else 0
        ctx = nnz_bucket((n_above + n_left) // 2)
        if io.encoding:
            nnz = int(np.count_nonzero(cur[SEVEN_BY_SEVEN_RASTER]))
            nnz = code_counter(io, (ci, _SEC_NNZ77, ctx), 6, nnz)
        else:
            nnz = code_counter(io, (ci, _SEC_NNZ77, ctx), 6)
            if nnz > 49:
                raise FormatError(f"decoded 7x7 non-zero count {nnz} > 49")

        # --- 49 interior AC coefficients, zigzag order ------------------
        remaining = nnz
        for r in SEVEN_BY_SEVEN_ZIGZAG_ORDER:
            if remaining == 0:
                break
            r = int(r)
            a = int(above[r]) if above is not None else None
            l = int(left[r]) if left is not None else None
            al = int(above_left[r]) if above_left is not None else None
            abuck = avg_bucket(weighted_avg_abs(a, l, al))
            base = (ci, _SEC_77, int(RASTER_TO_ZIGZAG[r]), abuck, nnz_bucket(remaining))
            if io.encoding:
                value = code_value(io, base, int(cur[r]), max_exp=11)
            else:
                value = code_value(io, base, max_exp=11)
                cur[r] = value
            if value != 0:
                remaining -= 1
        state.nnz_grid[by, bx] = nnz

        # --- 7x1 / 1x7 edge coefficients (§A.2.2) ------------------------
        nnz77_bucket = nnz_bucket(nnz)
        self._code_edge(io, state, cur, above, left, above_left,
                        horizontal=True, nnz77_bucket=nnz77_bucket)
        self._code_edge(io, state, cur, above, left, above_left,
                        horizontal=False, nnz77_bucket=nnz77_bucket)

        # --- DC, last (§A.2.3) -------------------------------------------
        self._code_dc(io, state, cur, above, left)

    def _code_edge(self, io, state: ComponentState, cur: np.ndarray,
                   above, left, above_left, horizontal: bool,
                   nnz77_bucket: int) -> None:
        rasters = TOP_ROW_RASTER if horizontal else LEFT_COL_RASTER
        orient = 0 if horizontal else 1
        count_key = (state.index, _SEC_NNZ_EDGE, orient, nnz77_bucket)
        if io.encoding:
            count = int(np.count_nonzero(cur[rasters]))
            count = code_counter(io, count_key, 3, count)
        else:
            count = code_counter(io, count_key, 3)
        use_lakhani = self.config.edge_mode == "lakhani"
        cur_deq = None
        neighbour_deq = None
        if use_lakhani:
            neighbour = above if horizontal else left
            if neighbour is not None:
                cur_deq = cur.reshape(8, 8).astype(np.int64) * state.q8
                neighbour_deq = neighbour.reshape(8, 8).astype(np.int64) * state.q8
        remaining = count
        for k, r in enumerate(rasters, start=1):
            if remaining == 0:
                break
            r = int(r)
            if neighbour_deq is not None:
                if horizontal:
                    pred_deq = lakhani_row_prediction(neighbour_deq, cur_deq, k)
                else:
                    pred_deq = lakhani_col_prediction(neighbour_deq, cur_deq, k)
                pred = _div_round(pred_deq, int(state.qtable[r]))
            else:
                a = int(above[r]) if above is not None else None
                l = int(left[r]) if left is not None else None
                al = int(above_left[r]) if above_left is not None else None
                pred = weighted_avg_value(a, l, al)
            pred = max(-_EDGE_CLAMP, min(_EDGE_CLAMP, pred))
            base = (state.index, _SEC_EDGE, orient, k, pred_bucket(pred),
                    nnz_bucket(remaining))
            if io.encoding:
                value = int(cur[r])
                code_value(io, base, value - pred, max_exp=12)
            else:
                value = code_value(io, base, max_exp=12) + pred
                cur[r] = value
            if value != 0:
                remaining -= 1
            if cur_deq is not None:
                # Keep the dequantised view current for later predictions.
                cur_deq[r // 8, r % 8] = value * int(state.qtable[r])

    def _code_dc(self, io, state: ComponentState, cur: np.ndarray, above, left) -> None:
        mode = self.config.dc_mode
        if mode == "packjpg":
            # Baseline-PackJPG-style: plain neighbour DC as the prediction.
            if left is not None:
                pred = int(left[0])
            elif above is not None:
                pred = int(above[0])
            else:
                pred = 0
            conf = 0
        else:
            cur_deq = cur.reshape(8, 8).astype(np.int64) * state.q8
            cur_deq[0, 0] = 0
            above_deq = (
                above.reshape(8, 8).astype(np.int64) * state.q8
                if above is not None else None
            )
            left_deq = (
                left.reshape(8, 8).astype(np.int64) * state.q8
                if left is not None else None
            )
            if mode == "median8":
                pred, spread = dc_prediction_median8(
                    cur_deq, above_deq, left_deq, state.q_dc
                )
            else:
                _, pred, spread = dc_predictions(
                    cur_deq, above_deq, left_deq, state.q_dc
                )
            conf = confidence_bucket(spread)
        pred = max(-_DC_CLAMP, min(_DC_CLAMP, pred))
        base = (state.index, _SEC_DC, conf)
        if io.encoding:
            code_value(io, base, int(cur[0]) - pred, max_exp=14)
        else:
            cur[0] = code_value(io, base, max_exp=14) + pred
