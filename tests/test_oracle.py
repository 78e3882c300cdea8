"""Exact enumeration reference: energies, Boltzmann law, conditioning."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pbitsim.core import CLAMPED_HIGH, CLAMPED_LOW, FREE, CouplingMatrix, Wired
from pbitsim.errors import CapacityError, ConfigurationError
from pbitsim.networks import load_gate
from pbitsim.oracle import (
    ExactDistribution,
    all_energies,
    bit_rows,
    boltzmann_distribution,
    energy,
    euclidean_distance,
    state_bits,
    state_index,
)


def and_coupling(i0):
    return load_gate("and").coupling(i0)


@st.composite
def couplings(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    vals = st.floats(-2, 2, allow_nan=False)
    j = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            j[i, k] = j[k, i] = draw(vals)
    h = np.array([draw(vals) for _ in range(n)])
    i0 = draw(st.floats(0, 1))
    return CouplingMatrix(j, h, i0)


class TestStateIndexing:
    def test_examples(self):
        assert state_index((1, 0, 1)) == 5
        assert state_bits(5, 3) == (1, 0, 1)

    def test_monitoring_word_examples(self):
        # the paper's artificial node: bits A, B, C read as 4*A + 2*B + C
        assert state_index([1, 0, 1]) == 5
        assert state_index([0, 1, 1]) == 3
        assert state_index([]) == 0

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=16))
    def test_matches_binary_string(self, bits):
        assert state_index(bits) == int("".join(map(str, bits)), 2)

    @given(st.integers(1, 12), st.integers(0))
    def test_bijection(self, n, raw):
        idx = raw % (1 << n)
        assert state_index(state_bits(idx, n)) == idx

    @settings(max_examples=200)
    @given(st.integers(1, 63), st.integers(0), st.integers(0, 300))
    @example(32, (1 << 32) - 5, 10)
    @example(33, (1 << 32) - 5, 10)
    @example(63, (1 << 63) - 5, 10)
    def test_bit_rows_match_the_shifts(self, n, raw, length):
        # up to 32 units the indices unpack from 4 bytes, past that from 8
        lo = raw % (1 << n)
        hi = min(lo + length, 1 << n)
        rows = bit_rows(lo, hi, n)
        assert rows.dtype == np.uint8
        assert rows.shape == (hi - lo, n)
        assert rows.tolist() == [[(w >> (n - 1 - k)) & 1 for k in range(n)]
                                 for w in range(lo, hi)]


class TestEnergy:
    def test_and_gate_levels(self):
        c = and_coupling(1.0)
        plus = lambda word: [1 if (word >> k) & 1 else -1 for k in (2, 1, 0)]
        assert energy(c, plus(0b111)) == -3.0
        assert energy(c, plus(0b000)) == -3.0
        assert energy(c, plus(0b110)) == 1.0
        assert energy(c, plus(0b001)) == 9.0

    def test_rejects_non_bipolar(self):
        with pytest.raises(ConfigurationError):
            energy(and_coupling(1.0), [1, 0, -1])

    def test_gain_scales_linearly(self):
        state = [1, -1, 1]
        assert energy(and_coupling(2.0), state) == pytest.approx(
            2.0 * energy(and_coupling(1.0), state)
        )

    @given(couplings())
    def test_all_energies_matches_pointwise(self, c):
        table = all_energies(c)
        for idx in range(min(len(table), 8)):
            m = [2 * b - 1 for b in state_bits(idx, c.n)]
            assert table[idx] == pytest.approx(energy(c, m), abs=1e-9)

    def test_capacity_guard(self):
        n = 25
        with pytest.raises(CapacityError):
            all_energies(CouplingMatrix(np.zeros((n, n)), np.zeros(n), 1.0))


def einsum_energies(c):
    """The energies as one einsum over the full 2**n x n bipolar table, the
    way ``all_energies`` built them before it split the units in halves."""
    m = bit_rows(0, 1 << c.n, c.n) * 2.0 - 1.0
    pair = 0.5 * np.einsum("si,ij,sj->s", m, c.j, m)
    return -c.i0 * (pair + m @ c.h)


def random_coupling(rng, n, values):
    """A coupling of ``n`` units with J and h drawn by ``values(size)``."""
    j = np.triu(values((n, n)), 1)
    return CouplingMatrix(j + j.T, values(n), float(rng.uniform(0, 2)))


class TestHalfTables:
    """``all_energies`` from two half-tables against the single einsum."""

    @pytest.mark.parametrize("n", range(1, 19))
    def test_bits_equal_the_einsum_on_the_quarter_grid(self, n):
        # every partial sum of quarter multiples this small is exact, so the
        # summation order cannot show
        rng = np.random.default_rng(n)
        c = random_coupling(rng, n, lambda size: rng.integers(-8, 9, size) * 0.25)
        assert np.array_equal(all_energies(c), einsum_energies(c))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_off_grid_energies_within_1e_12(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            c = random_coupling(rng, n, lambda size: rng.uniform(-2, 2, size))
            assert np.max(np.abs(all_energies(c) - einsum_energies(c))) <= 1e-12

    def test_asymmetry_within_tolerance_counts_both_blocks(self):
        # CouplingMatrix accepts J symmetric to 1e-9; the single einsum sums
        # both off-diagonal blocks, and so must the cross term
        rng = np.random.default_rng(7)
        c = random_coupling(rng, 6, lambda size: rng.integers(-8, 9, size) * 0.25)
        j = c.j.copy()
        j[0, 5] += 2.0 ** -31
        c = CouplingMatrix(j, c.h, c.i0)
        assert np.array_equal(all_energies(c), einsum_energies(c))

    def test_peak_memory_at_20_units(self):
        # a 2**20 x 20 table of all states would alone be 20 times the result
        rng = np.random.default_rng(20)
        c = random_coupling(rng, 20, lambda size: rng.uniform(-2, 2, size))
        tracemalloc.start()
        try:
            table = all_energies(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * table.nbytes


class TestBoltzmannDistribution:
    def test_zero_gain_is_uniform(self):
        dist = boltzmann_distribution(and_coupling(0.0))
        assert np.allclose(dist.probabilities, 1.0 / 8.0)

    def test_and_gate_at_operating_gain(self):
        # frozen from direct enumeration of P ~ exp(-E) at I0 = 0.8
        dist = boltzmann_distribution(and_coupling(0.8))
        truth = [0b000, 0b010, 0b100, 0b111]
        for word in truth:
            assert dist.probabilities[word] == pytest.approx(0.24257982632251987)
        assert dist.probabilities[0b001] == pytest.approx(1.6429625134995023e-05)

    def test_matches_manual_exponentials(self):
        c = and_coupling(0.8)
        e = all_energies(c)
        manual = np.exp(-(e - e.min()))
        manual /= manual.sum()
        dist = boltzmann_distribution(c)
        assert np.allclose(dist.probabilities, manual)

    def test_clamping_conditions_the_law(self):
        c = and_coupling(0.8)
        free = boltzmann_distribution(c)
        clamped = boltzmann_distribution(c, [CLAMPED_HIGH, CLAMPED_HIGH, FREE])
        base = free.probabilities[0b110] + free.probabilities[0b111]
        assert clamped.probabilities[0b111] == pytest.approx(
            free.probabilities[0b111] / base
        )
        assert clamped.probabilities[0b000] == 0.0

    def test_conditional_output_probability(self):
        clamped = boltzmann_distribution(
            and_coupling(0.8), [CLAMPED_HIGH, CLAMPED_HIGH, FREE]
        )
        assert clamped.probabilities[0b111] == pytest.approx(0.9608342772032357)

    def test_rejects_wired_modes(self):
        with pytest.raises(ConfigurationError):
            boltzmann_distribution(and_coupling(1.0), [FREE, FREE, Wired(source=0)])

    def test_update_rule_consistency(self):
        # P(m_k = 1 | rest) from the law equals sigmoid of the unit's field,
        # which is what each update event samples
        c = and_coupling(0.8)
        dist = boltzmann_distribution(c)
        rest = (1, 0)  # A=1, B=0; unit C varies
        p1 = dist.probabilities[0b101]
        p0 = dist.probabilities[0b100]
        field = c.i0 * (c.h[2] + c.j[2, 0] * 1 + c.j[2, 1] * (-1))
        assert p1 / (p0 + p1) == pytest.approx(1.0 / (1.0 + math.exp(-2 * field)))

    @given(couplings())
    @settings(max_examples=50)
    def test_normalization(self, c):
        dist = boltzmann_distribution(c)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.probabilities >= 0.0)

    @given(couplings())
    @settings(max_examples=50)
    def test_global_flip_symmetry_without_bias(self, c):
        unbiased = CouplingMatrix(c.j.copy(), np.zeros(c.n), c.i0)
        dist = boltzmann_distribution(unbiased)
        full = (1 << c.n) - 1
        for idx in range(1 << c.n):
            assert dist.probabilities[idx] == pytest.approx(
                dist.probabilities[full ^ idx], abs=1e-12
            )

    @given(couplings())
    @settings(max_examples=30)
    def test_raising_gain_never_lifts_excited_states(self, c):
        lo = boltzmann_distribution(c)
        hi = boltzmann_distribution(CouplingMatrix(c.j.copy(), c.h.copy(), c.i0 * 2))
        ground = np.flatnonzero(
            np.abs(all_energies(c) - all_energies(c).min()) < 1e-12
        )
        assert hi.probabilities[ground].sum() >= lo.probabilities[ground].sum() - 1e-12


class TestEuclideanDistance:
    def test_identical(self):
        p = np.full(8, 0.125)
        assert euclidean_distance(p, p) == 0.0

    def test_uniform_vs_point_mass(self):
        # sqrt((1-1/8)^2 + 7*(1/8)^2) = sqrt(0.875)
        point = np.zeros(8)
        point[0] = 1.0
        assert euclidean_distance(np.full(8, 0.125), point) == pytest.approx(
            math.sqrt(0.875)
        )

    def test_accepts_distribution_objects(self):
        d = boltzmann_distribution(and_coupling(0.0))
        assert euclidean_distance(d, np.full(8, 0.125)) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            euclidean_distance(np.zeros(4), np.zeros(8))
