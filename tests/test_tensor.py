"""Tests for state vectors, the one normalisation and fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belldecomp import (
    Channel,
    EntangledPair,
    PairingConvention,
    StateVector,
    TeleportationInstance,
    fidelity,
)
from belldecomp.tensor import _TRUSTED_NORMS, _unit


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

    @pytest.mark.parametrize(
        "n, size",
        [(True, 2), (np.True_, 2), (2.0, 4), ("2", 4), (-1, 1)],
        ids=["bool", "numpy-bool", "float", "str", "negative"],
    )
    def test_qubit_count_must_be_a_positive_integer(self, n, size):
        """Accepted, True built a one-qubit state; 2.0 and "2" raised TypeError."""
        with pytest.raises(ValueError, match="num_qubits must be a positive integer"):
            StateVector(n, np.eye(size)[0])

    def test_numpy_integer_qubit_count_is_accepted(self):
        assert StateVector(np.int64(2), np.eye(4)[0]) == StateVector(2, np.eye(4)[0])

    def test_qubit_count_too_large_for_any_array(self):
        """1 << n of this n once raised OverflowError, not ValueError."""
        with pytest.raises(ValueError, match=r"expected 2\*\*100000000000000000000 amplitudes"):
            StateVector(10**20, np.eye(2)[0])

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

    @pytest.mark.parametrize("scale", [1e300, 1e-170, 1.7e308, 5e-324])
    def test_normalized_at_extreme_magnitudes_is_a_unit_vector(self, scale):
        """At 1e300 the plain norm overflowed and the state normalized to zeros; at
        1e-170 it underflowed to 0 and the state was refused as a zero state."""
        s = StateVector(2, [scale, -scale, 0.0, 1j * scale]).normalized()
        expected = np.array([1, -1, 0, 1j]) / math.sqrt(3)
        np.testing.assert_allclose(s.amps, expected, rtol=0, atol=1e-16)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_one_normalisation_refuses_a_non_finite_amplitude(bad):
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        _unit(np.array([1.0, bad * 1j]))


def vectors_near_the_trusted_norms():
    """Complex vectors whose norms fall inside ``_TRUSTED_NORMS`` and past both ends.

    One shared binary exponent places the vector; each part has its own
    offset below it, so some squares go subnormal while the sum stays normal.
    """
    low, high = (math.frexp(t)[1] for t in _TRUSTED_NORMS)
    mantissas = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    part = st.tuples(mantissas, st.integers(min_value=-80, max_value=0))
    return st.builds(
        lambda k, parts: np.array([math.ldexp(m, k + d) for m, d in parts]).view(np.complex128),
        st.integers(min_value=low - 40, max_value=high + 4),
        st.integers(min_value=1, max_value=16).flatmap(
            lambda n: st.lists(part, min_size=2 * n, max_size=2 * n)
        ),
    )


@settings(max_examples=500)
@given(vectors_near_the_trusted_norms())
def test_one_normalisation(x):
    """Inside ``_TRUSTED_NORMS`` the plain division, byte for byte; everywhere the
    plain division of ``x`` rescaled by an exact power of two."""
    peak = float(np.abs(x.view(np.float64)).max())
    if peak == 0.0:
        with pytest.raises(ValueError, match="cannot normalize a zero state"):
            _unit(x)
        return
    unit, norm = _unit(x)
    assert not unit.flags.writeable
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(x))
    if _TRUSTED_NORMS[0] <= plain <= _TRUSTED_NORMS[1]:
        assert unit.tobytes() == (x / plain).tobytes()
        assert norm == plain
    # Parts far below the peak may lose bits in the rescale; they weigh nothing.
    e = math.frexp(peak)[1]
    y = np.ldexp(x.view(np.float64), -e).view(np.complex128)
    np.testing.assert_allclose(unit, y / np.linalg.norm(y), rtol=0, atol=1e-15)
    assert norm == pytest.approx(math.ldexp(float(np.linalg.norm(y)), e), rel=1e-15)


class TestAmplitudesAreReadOnly:
    def test_writing_the_callers_array_changes_nothing(self):
        """The caller's writeable array was kept, so writing into it changed the state
        and every instance built on it."""
        a = np.array([0.6, 0.8j])
        s = StateVector(1, a)
        pair = EntangledPair(np.array([1, 0, 0, 1]) / np.sqrt(2))
        inst = TeleportationInstance(s, Channel((pair,)), PairingConvention.BOB_HOLDS_SECOND)
        a[0] = 5
        assert np.array_equal(s.amps, [0.6, 0.8j])
        assert np.array_equal(inst.input_state.amps, [0.6, 0.8j])
        assert not s.amps.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.amps[0] = 5

    def test_a_read_only_complex_array_is_kept_without_a_copy(self):
        a = np.array([0.6, 0.8j])
        a.flags.writeable = False
        assert np.shares_memory(StateVector(1, a).amps, a)

    def test_derived_states_are_read_only(self):
        s = StateVector(1, [3.0, 4.0]).normalized()
        assert not s.amps.flags.writeable

    def test_the_qubit_count_is_kept_as_an_int(self):
        assert type(StateVector(np.int64(2), np.eye(4)[0]).num_qubits) is int


class TestStateVectorEquality:
    def test_equal_amplitudes_compare_equal(self):
        a = StateVector(2, np.array([0.6, 0, 0, 0.8j]))
        assert a == StateVector(2, a.amps.copy())
        assert a in [StateVector(1, [1, 0]), a]

    def test_any_difference_compares_unequal(self):
        a = StateVector(1, np.array([0.6, 0.8]))
        assert a != StateVector(1, np.array([0.6, np.nextafter(0.8, 1.0)]))
        assert a != StateVector(2, np.array([0.6, 0.8, 0, 0]))

    def test_other_types_are_left_to_the_other_operand(self):
        a = StateVector(1, np.array([0.6, 0.8]))
        assert a.__eq__(3) is NotImplemented
        assert a != 3


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

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-320])
    def test_extreme_magnitudes(self, scale):
        """Accepted, [1e200, 0] gave 1.0 against [1, 1]: its squared norm overflowed
        to inf and so did the squared overlap.  [1e-170, 0] was refused as zero-norm."""
        a = StateVector(1, [scale, 0])
        b = StateVector(1, [1, 1])
        assert fidelity(a, b) == pytest.approx(0.5, abs=1e-15)
        assert fidelity(b, a) == pytest.approx(0.5, abs=1e-15)
        assert fidelity(a, StateVector(1, [scale, scale])) == pytest.approx(0.5, abs=1e-15)

    def test_trusted_squared_norms_keep_the_plain_formula(self):
        rng = np.random.default_rng(15)
        for scale in [1.0, 1e-70, 1e70, 2.0**-250, 2.0**250]:
            a = StateVector(3, scale * (rng.standard_normal(8) + 1j * rng.standard_normal(8)))
            b = StateVector(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
            plain = abs(np.vdot(a.amps, b.amps)) ** 2 / (a.squared_norm() * b.squared_norm())
            assert fidelity(a, b) == min(1.0, float(plain))

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
