"""Tests for state vectors and fidelity."""

import numpy as np
import pytest

from belldecomp import StateVector, fidelity


class TestStateVector:
    def test_amplitude_count_must_match(self):
        with pytest.raises(ValueError):
            StateVector(2, np.zeros(3, dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([np.nan, 0.0]))

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            StateVector(0, np.array([1.0]))

    def test_qubit_one_is_most_significant(self):
        """For 3 qubits, amps[1] is the coefficient of |001>."""
        s = StateVector(3, np.eye(8)[1])
        assert s.amps[0b001] == 1.0

    def test_normalized(self):
        s = StateVector(1, np.array([3.0, 4.0]))
        np.testing.assert_allclose(s.normalized().amps, [0.6, 0.8], atol=1e-15)

    def test_normalize_zero_state_raises(self):
        with pytest.raises(ValueError):
            StateVector(1, np.zeros(2)).normalized()


class TestStateVectorEquality:
    def test_equal_amplitudes_compare_equal(self):
        a = StateVector(2, np.array([0.6, 0, 0, 0.8j]))
        assert a == StateVector(2, a.amps.copy())
        assert a in [StateVector(1, [1, 0]), a]

    def test_any_difference_compares_unequal(self):
        a = StateVector(1, np.array([0.6, 0.8]))
        assert a != StateVector(1, np.array([0.6, np.nextafter(0.8, 1.0)]))
        assert a != StateVector(2, np.array([0.6, 0.8, 0, 0]))


class TestFidelity:
    def test_identical_state(self):
        s = StateVector(1, np.array([0.6, 0.8j]))
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        a = StateVector(1, np.array([1, 0], dtype=complex))
        b = StateVector(1, np.array([0, 1], dtype=complex))
        assert fidelity(a, b) == 0.0

    def test_half_overlap(self):
        a = StateVector(1, np.array([1, 0], dtype=complex))
        b = StateVector(1, np.array([1, 1], dtype=complex) / np.sqrt(2))
        assert fidelity(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_invariant_under_global_phase_and_scale(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = StateVector(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
            b = StateVector(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
            base = fidelity(a, b)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            scaled = StateVector(n, 2.5 * phase * b.amps)
            assert fidelity(a, scaled) == pytest.approx(base, abs=1e-12)
            assert 0.0 <= base <= 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(14)
        a = StateVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        b = StateVector(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)

    def test_zero_norm_raises(self):
        a = StateVector(1, np.array([1, 0], dtype=complex))
        z = StateVector(1, np.zeros(2, dtype=complex))
        with pytest.raises(ValueError):
            fidelity(a, z)

    def test_qubit_count_mismatch_raises(self):
        a = StateVector(1, np.array([1, 0], dtype=complex))
        b = StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            fidelity(a, b)
