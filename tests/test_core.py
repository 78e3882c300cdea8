"""Unit behavior: response curve, voltage codec, saturation, quantization."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pbitsim.core import (
    CLAMPED_HIGH,
    CLAMPED_LOW,
    FREE,
    CouplingMatrix,
    QuantizationConfig,
    Wired,
    encode_input,
    quantize_voltage,
    retention_time_from_barrier,
    saturate,
    sigmoid,
    weight_inputs,
)
from pbitsim.errors import ConfigurationError


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
