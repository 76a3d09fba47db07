"""Tests for state vectors, qubit permutations and fidelity."""

import numpy as np
import pytest

from belldecomp import StateVector, fidelity, permute_qubits


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


class TestPermuteQubits:
    def test_swap_two_qubits(self):
        """|01> under swap(1,2) becomes |10>."""
        s = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))
        out = permute_qubits(s, (2, 1))
        assert np.array_equal(out.amps, np.array([0, 0, 1, 0], dtype=complex))

    def test_three_qubit_rotation(self):
        """Output qubit k carries input qubit perm[k]: |011> under (2,3,1) -> |110>."""
        s = StateVector(3, np.eye(8)[0b011])
        out = permute_qubits(s, (2, 3, 1))
        assert np.array_equal(out.amps, np.eye(8)[0b110].astype(complex))

    def test_amplitudes_preserved_as_multiset(self):
        """Permutation only reindexes: same amplitudes bit for bit, norm to round-off."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            s = StateVector(n, amps)
            out = permute_qubits(s, tuple(rng.permutation(n) + 1))
            assert sorted(out.amps.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
                s.amps.tolist(), key=lambda z: (z.real, z.imag)
            )
            assert out.squared_norm() == pytest.approx(s.squared_norm(), rel=1e-14)

    def test_roundtrip_with_inverse(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            s = StateVector(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
            perm = tuple(rng.permutation(n) + 1)
            inverse = tuple(np.argsort(perm) + 1)
            back = permute_qubits(permute_qubits(s, perm), inverse)
            assert np.array_equal(back.amps, s.amps)

    def test_identity(self):
        s = StateVector(3, np.arange(8) + 1j * np.arange(8)[::-1])
        assert np.array_equal(permute_qubits(s, (1, 2, 3)).amps, s.amps)

    def test_inverse(self):
        """(2, 3, 1) is undone by its inverse (3, 1, 2): |011> -> |110> -> |011>."""
        perm = (2, 3, 1)
        inverse = tuple(np.argsort(perm) + 1)
        assert inverse == (3, 1, 2)
        s = StateVector(3, np.eye(8)[0b011].astype(complex))
        out = permute_qubits(s, perm)
        assert np.array_equal(out.amps, np.eye(8)[0b110].astype(complex))
        assert np.array_equal(permute_qubits(out, inverse).amps, s.amps)

    def test_length_mismatch_raises(self):
        s = StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError, match="does not match"):
            permute_qubits(s, (1, 2, 3))

    @pytest.mark.parametrize("perm", [(1, 1, 3), (0, 1, 2), (2, 3, 4)])
    def test_must_be_bijection(self, perm):
        s = StateVector(3, np.eye(8)[0])
        with pytest.raises(ValueError, match="bijection"):
            permute_qubits(s, perm)


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
