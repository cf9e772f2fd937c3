"""Adaptive statistic bins and context bucketing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bool_coder import BoolEncoder
from repro.core.coefcoder import BitIO, SegmentCodec
from repro.core.model import (
    COST_FRAC_BITS,
    Model,
    ModelConfig,
    avg_bucket,
    confidence_bucket,
    nnz_bucket,
    pred_bucket,
)
from repro.jpeg.parser import parse_jpeg
from repro.jpeg.scan_decode import decode_scan

KEY = ("k", 0)


class _Probe(BoolEncoder):
    """An encoder that records the probability each bit was coded under."""

    def __init__(self):
        super().__init__()
        self.probs = []

    def put(self, bit: int, prob: int) -> None:
        self.probs.append(prob)
        super().put(bit, prob)


def _prob_zero(io: BitIO, key=KEY) -> int:
    """P(bit == 0) the bin under ``key`` offers its next bit."""
    io.bit(key, 0)
    return io.coder.probs[-1]


def _bin(bits, key=KEY):
    """The model and its BitIO after coding ``bits`` under ``key``."""
    model = Model()
    io = BitIO(model, _Probe())
    for bit in bits:
        io.bit(key, bit)
    return model, io


def _bits_charged(model: Model, section) -> float:
    """Information the encoder charged to ``section``, in bits."""
    return model.costs[section] / (1 << COST_FRAC_BITS)


class TestBranch:
    def test_starts_at_even_odds(self):
        assert _prob_zero(_bin([])[1]) == 128

    def test_zeros_raise_prob_zero(self):
        assert _prob_zero(_bin([0] * 20)[1]) > 200

    def test_ones_lower_prob_zero(self):
        assert _prob_zero(_bin([1] * 20)[1]) < 56

    def test_prob_clamped_to_valid_range(self):
        assert 1 <= _prob_zero(_bin([0] * 10_000)[1]) <= 255

    def test_renormalisation_keeps_counts_in_byte(self):
        model, _io = _bin([int(i % 3 == 0) for i in range(10_000)])
        zeros, ones = model.bins[KEY]
        assert 1 <= zeros <= 255
        assert 1 <= ones <= 255

    def test_renormalisation_preserves_skew(self):
        _model, io = _bin([0] * 300)
        before = _prob_zero(io)  # codes the first of three more zeros
        for _ in range(2):
            io.bit(KEY, 0)
        assert _prob_zero(io) >= before - 2  # halving must not flip the skew

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=2000))
    def test_prob_always_valid(self, bits):
        # BitIO does not clamp: this is the proof the coder always gets a
        # probability in its 1..255 domain.
        _model, io = _bin(bits)
        _prob_zero(io)
        assert all(1 <= prob <= 255 for prob in io.coder.probs)


class TestModel:
    def test_bins_created_lazily(self):
        m = Model()
        assert m.bin_count == 0
        io = BitIO(m, BoolEncoder())
        io.bit(("a", 1))
        io.bit(("a", 2))
        io.bit(("a", 1))  # same context: no new bin
        assert m.bin_count == 2

    def test_bins_are_independent(self):
        _model, io = _bin([0], key=("x", 0))
        assert _prob_zero(io, ("y", 0)) == 128

    def test_charge_accumulates_information(self):
        m = Model()
        io = BitIO(m, BoolEncoder())
        io.bit(("a", "dc"), 0)  # a fresh bin codes at 50/50: one bit
        assert _bits_charged(m, "dc") == pytest.approx(1.0)
        io.bit(("b", "dc"), 1)
        assert _bits_charged(m, "dc") == pytest.approx(2.0)

    def test_charge_weights_by_surprise(self):
        m = Model()
        m.bins[KEY] = [250, 6]  # P(0) = 250/256
        BitIO(m, BoolEncoder()).bit(KEY, 0)  # expected: cheap
        cheap = _bits_charged(m, KEY[1])
        m2 = Model()
        m2.bins[KEY] = [250, 6]
        BitIO(m2, BoolEncoder()).bit(KEY, 1)  # surprising: expensive
        assert _bits_charged(m2, KEY[1]) > cheap * 5

    def test_default_config(self):
        assert ModelConfig().edge_mode == "lakhani"
        assert ModelConfig().dc_mode == "gradient"

    def test_config_carried(self, gray_jpeg):
        img = parse_jpeg(gray_jpeg)
        decode_scan(img)
        config = ModelConfig(edge_mode="avg", dc_mode="packjpg")
        codec = SegmentCodec(img.frame, img.quant_tables, img.coefficients, config)
        assert codec.config.dc_mode == "packjpg"


class TestBuckets:
    def test_nnz_bucket_zero(self):
        assert nnz_bucket(0) == 0

    def test_nnz_bucket_monotone(self):
        values = [nnz_bucket(n) for n in range(50)]
        assert values == sorted(values)
        assert max(values) == 8  # 1.59^9 ≈ 64 > 49
        assert nnz_bucket(64) == 9  # large counts saturate the last bucket

    def test_nnz_bucket_matches_log159(self):
        for n in (1, 2, 5, 10, 30, 49):
            assert nnz_bucket(n) == min(int(math.log(n) / math.log(1.59)), 9)

    def test_avg_bucket_caps(self):
        assert avg_bucket(0) == 0
        assert avg_bucket(1) == 1
        assert avg_bucket(10**9) == 11

    def test_pred_bucket_signed(self):
        assert pred_bucket(5) == 3
        assert pred_bucket(-5) == -3
        assert pred_bucket(0) == 0

    def test_pred_bucket_caps(self):
        assert pred_bucket(10**9) == 11
        assert pred_bucket(-(10**9)) == -11

    def test_confidence_bucket(self):
        assert confidence_bucket(0) == 0
        assert confidence_bucket(1) == 1
        assert confidence_bucket(1 << 20) == 13


class TestFixedPointCosts:
    """Regressions for the D1 fix: the information accounting moved from
    math.log2 to exact integer arithmetic; it must still agree with the
    float reference it replaced (and be bit-identical across platforms)."""

    def test_log2_fix_matches_libm(self):
        from repro.core.model import COST_FRAC_BITS, _log2_fix

        scale = 1 << COST_FRAC_BITS
        for x in (1, 2, 3, 7, 128, 255, 1000, (1 << 40) + 12345):
            assert _log2_fix(x) / scale == pytest.approx(
                math.log2(x), abs=2.0 / scale
            )

    def test_log2_fix_exact_on_powers_of_two(self):
        from repro.core.model import COST_FRAC_BITS, _log2_fix

        for k in range(0, 64, 7):
            assert _log2_fix(1 << k) == k << COST_FRAC_BITS

    def test_log2_fix_rejects_nonpositive(self):
        from repro.core.model import _log2_fix

        with pytest.raises(ValueError):
            _log2_fix(0)

    def test_bit_cost_table_matches_shannon(self):
        from repro.core.model import _BIT_COST, COST_FRAC_BITS

        scale = 1 << COST_FRAC_BITS
        for p in range(1, 256):
            assert _BIT_COST[p] / scale == pytest.approx(
                -math.log2(p / 256.0), abs=2.0 / scale
            )

    def test_nnz_bucket_table_matches_float_construction(self):
        from repro.core.model import _NNZ_BUCKET

        log159 = math.log(1.59)
        for n in range(1, 50):
            assert _NNZ_BUCKET[n] == min(int(math.log(n) / log159), 9)

    def test_charge_state_is_integer(self, gray_jpeg):
        img = parse_jpeg(gray_jpeg)
        decode_scan(img)
        codec = SegmentCodec(img.frame, img.quant_tables, img.coefficients)
        codec.encode(BoolEncoder(), 0, img.frame.mcu_count)
        assert codec.model.costs
        assert all(isinstance(v, int) for v in codec.model.costs.values())
        # The public property still reports float bits.
        assert codec.bit_costs["edge"] > 0.0
