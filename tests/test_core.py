"""Unit behavior: response curve, voltage codec, saturation, quantization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pbitsim.core import (
    CLAMPED_HIGH,
    CLAMPED_LOW,
    FREE,
    SAT_LIMIT,
    V_RAIL,
    CouplingMatrix,
    QuantizationConfig,
    Wired,
    retention_time_from_barrier,
    sigmoid,
    weight_inputs,
)
from pbitsim.errors import ConfigurationError


# The scalar steps of the weight logic, the reference its vectorized form
# is checked against (TestSummationOrder).


def encode_input(i: float) -> float:
    """Bipolar drive to input voltage: v = (i + 5) / 2, so [-5,5] -> [0,5] V.

    A unit decodes its input back as 2*v - 5 (see ``dynamics``).
    """
    return (i + 5.0) / 2.0


def saturate(x: float) -> float:
    """Clip a weighted sum to the drive range [-SAT_LIMIT, +SAT_LIMIT]."""
    if x > SAT_LIMIT:
        return SAT_LIMIT
    if x < -SAT_LIMIT:
        return -SAT_LIMIT
    return x


def quantize_voltage(v: float, bits: int, vref: float = V_RAIL) -> float:
    """Round ``v`` to the nearest DAC code (ties away from zero).

    Codes are clamped to [0, 2**bits - 1]; code*vref/2**bits is the published
    voltage. bits == 0 is the identity (ideal converter).
    """
    if bits == 0:
        return v
    steps = 1 << bits
    code = math.floor(v / vref * steps + 0.5)
    code = min(max(code, 0), steps - 1)
    return code * vref / steps


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_rail_values(self):
        # closed-form logistic values at the +-5 input extremes
        assert sigmoid(5.0) == pytest.approx(0.9999546021312976, abs=1e-15)
        assert sigmoid(-5.0) == pytest.approx(4.5397868702434395e-05, abs=1e-18)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(-50, 50))
    def test_tanh_identity(self, x):
        assert sigmoid(x) == pytest.approx((1.0 + math.tanh(x)) / 2.0, abs=1e-12)

    @given(st.floats(-1e6, 1e6))
    def test_bounded_and_monotone(self, x):
        y = sigmoid(x)
        assert 0.0 <= y <= 1.0
        assert sigmoid(x + 1.0) >= y


class TestVoltageCodec:
    def test_encode_examples(self):
        assert encode_input(0.0) == 2.5
        assert encode_input(5.0) == 5.0
        assert encode_input(-5.0) == 0.0

    @given(st.floats(0.0, 5.0))
    def test_round_trip(self, v):
        # a unit decodes its input voltage as the drive 2*v - 5
        assert encode_input(2.0 * v - 5.0) == pytest.approx(v, abs=1e-12)

    @given(st.floats(-100, 100))
    def test_saturate_bounds(self, x):
        s = saturate(x)
        assert -5.0 <= s <= 5.0
        if -5.0 <= x <= 5.0:
            assert s == x


class TestWired:
    def test_rejects_negative_delay(self):
        with pytest.raises(ConfigurationError):
            Wired(source=0, delay_us=-5)


class TestQuantization:
    def test_disabled_is_identity(self):
        assert quantize_voltage(3.21, 0, 5.0) == 3.21

    def test_mid_rail_code(self):
        # 10-bit converter, 5 V reference: 2.5 V sits exactly at code 512
        assert quantize_voltage(2.5, 10, 5.0) == pytest.approx(512 * 5.0 / 1024)

    def test_zero_and_full_scale(self):
        assert quantize_voltage(0.0, 10, 5.0) == 0.0
        # full scale clamps to the top code
        assert quantize_voltage(5.0, 10, 5.0) == pytest.approx(1023 * 5.0 / 1024)

    @pytest.mark.parametrize("vref", [0.0, -1.0, math.nan, math.inf])
    def test_vref_finite_and_positive(self, vref):
        # NaN fails every comparison and used to pass, and infinity made
        # every published voltage NaN
        with pytest.raises(ConfigurationError, match="vref must be finite and positive"):
            QuantizationConfig(dac_bits=4, vref=vref)

    def test_dac_bits_at_most_53(self):
        # float64 holds every code exactly only up to 2**53; 2000 bits used
        # to end in an OverflowError inside the weight logic
        assert QuantizationConfig(dac_bits=53).dac_bits == 53
        for bits in (54, 2000):
            with pytest.raises(ConfigurationError, match="must be 0 to 53"):
                QuantizationConfig(dac_bits=bits)

    @given(st.floats(0.0, 5.0), st.integers(1, 16))
    def test_step_error_bound(self, v, bits):
        step = 5.0 / (1 << bits)
        q = quantize_voltage(v, bits, 5.0)
        assert 0.0 <= q <= 5.0
        # clamping at full scale can cost one extra step
        assert abs(q - v) <= step


class TestCouplingMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigurationError):
            CouplingMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]), np.zeros(2), 1.0)

    def test_rejects_self_coupling(self):
        with pytest.raises(ConfigurationError):
            CouplingMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2), 1.0)

    def test_rejects_negative_gain(self):
        with pytest.raises(ConfigurationError):
            CouplingMatrix(np.zeros((2, 2)), np.zeros(2), -0.1)


class TestWeightInputs:
    def _coupling(self, i0=1.0):
        j = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = np.array([0.5, -0.5])
        return CouplingMatrix(j, h, i0)

    def test_free_unit_voltage(self):
        # unit 0 with neighbor output 1: I = 1*(0.5 + 1*(+1)) = 1.5, V = 3.25
        v = weight_inputs(self._coupling(), [0, 1], [FREE, FREE], QuantizationConfig())
        assert v[0] == pytest.approx((1.5 + 5.0) / 2.0)

    def test_zero_gain_centers_inputs(self):
        v = weight_inputs(self._coupling(0.0), [1, 0], [FREE, FREE], QuantizationConfig())
        assert v == [pytest.approx(2.5), pytest.approx(2.5)]

    def test_clamped_units_get_rails(self):
        v = weight_inputs(
            self._coupling(), [1, 0], [CLAMPED_HIGH, CLAMPED_LOW], QuantizationConfig()
        )
        assert v == [5.0, 0.0]

    def test_wired_units_are_skipped(self):
        v = weight_inputs(
            self._coupling(), [1, 0], [FREE, Wired(source=0)], QuantizationConfig()
        )
        assert v[1] is None

    def test_saturation_caps_extreme_fields(self):
        j = np.zeros((1, 1))
        h = np.array([100.0])
        v = weight_inputs(CouplingMatrix(j, h, 1.0), [0], [FREE], QuantizationConfig())
        assert v[0] == 5.0


def ascending_reference(coupling, outputs, modes, quant):
    """The published voltages in pure Python: each drive summed over the
    units in ascending order from 0.0, then the scalar codec steps."""
    n = coupling.n
    published = []
    for j in range(n):
        mode = modes[j]
        if mode == CLAMPED_HIGH:
            published.append(5.0)
        elif mode == CLAMPED_LOW:
            published.append(0.0)
        elif isinstance(mode, Wired):
            published.append(None)
        else:
            acc = 0.0
            for i in range(n):
                acc += (2.0 * outputs[i] - 1.0) * float(coupling.j[j, i])
            drive = coupling.i0 * (float(coupling.h[j]) + acc)
            published.append(
                quantize_voltage(encode_input(saturate(drive)), quant.dac_bits, quant.vref))
    return published


@st.composite
def weight_logic(draw):
    """A machine of 1-10 units with J and h mostly off the binary grid,
    every terminal mode and a DAC of 0-8 bits."""
    n = draw(st.integers(1, 10))
    value = st.one_of(st.integers(-21, 21).map(lambda k: k / 7),
                      st.floats(-3, 3, allow_subnormal=False),
                      st.integers(-12, 12).map(lambda k: k / 4))
    j = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            j[a, b] = j[b, a] = draw(value)
    h = np.array([draw(value) for _ in range(n)])
    i0 = draw(st.sampled_from([0.0, 0.3, 1.0, 2.7]))
    modes = [draw(st.sampled_from([FREE, FREE, FREE, CLAMPED_HIGH, CLAMPED_LOW,
                                   Wired(source=0)])) for _ in range(n)]
    quant = QuantizationConfig(dac_bits=draw(st.integers(0, 8)),
                               vref=draw(st.sampled_from([5.0, 4.5, 3.3])))
    return CouplingMatrix(j, h, i0), modes, quant


class TestSummationOrder:
    """Every table row, the snapshot alone and the pure-Python ascending
    sum give the same bits, so no BLAS kernel picks the order."""

    @settings(max_examples=150, deadline=None)
    @given(machine=weight_logic(), picks=st.lists(st.integers(0, 2**10 - 1), max_size=40))
    # a drive of -2.5 V lands halfway between two 1-bit codes: ties round up
    @example(machine=(CouplingMatrix(np.zeros((1, 1)), np.array([-2.5]), 1.0), [FREE],
                      QuantizationConfig(dac_bits=1, vref=5.0)), picks=[])
    def test_table_rows_match_one_state_and_the_reference(self, machine, picks):
        coupling, modes, quant = machine
        n = coupling.n
        states = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        table = weight_inputs(coupling, states, modes, quant)
        assert table.shape == (1 << n, n)
        for s, row in enumerate(table.tolist()):
            one = weight_inputs(coupling, states[s].tolist(), modes, quant)
            assert [None if math.isnan(v) else v for v in row] == one
            assert one == ascending_reference(coupling, states[s].tolist(), modes, quant)
        # any batch of states, in any order, reads the same rows
        rows = [p % (1 << n) for p in picks]
        if rows:
            batch = weight_inputs(coupling, states[rows], modes, quant)
            assert np.array_equal(batch, table[rows], equal_nan=True)

    def test_rejects_a_wrong_width(self):
        coupling = CouplingMatrix(np.zeros((2, 2)), np.zeros(2), 1.0)
        with pytest.raises(ConfigurationError):
            weight_inputs(coupling, np.zeros((4, 3), dtype=int), [FREE, FREE])


class TestRetentionTime:
    def test_nanosecond_device(self):
        # 1 ns attempt time, barrier 13.8 kT: about one millisecond
        assert retention_time_from_barrier(1e-9, 13.8) == pytest.approx(
            0.0009846091112290358
        )

    def test_picosecond_device(self):
        assert retention_time_from_barrier(1e-12, 20.0) == pytest.approx(
            0.00048516519540979026
        )

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            retention_time_from_barrier(1.0, 1e6)

    @given(st.floats(1e-12, 1e-6), st.floats(0.0, 50.0))
    def test_monotone_in_barrier(self, tau0, barrier):
        assert retention_time_from_barrier(tau0, barrier + 1.0) > retention_time_from_barrier(
            tau0, barrier
        )
