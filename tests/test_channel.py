"""Tests for channel pairs, the Bell states and pair diagnostics."""

import numpy as np
import pytest

from belldecomp import (
    Channel,
    EntangledPair,
    PairingConvention,
    StateVector,
    TeleportationInstance,
    bell_state,
    channel_criterion,
    pair_determinant,
)


def mes_pair() -> EntangledPair:
    return EntangledPair(np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestBellState:
    def test_exact_rows(self):
        expected = np.array(
            [
                [1, 0, 0, 1],
                [1, 0, 0, -1],
                [0, 1, 1, 0],
                [0, 1, -1, 0],
            ],
            dtype=float,
        )
        rows = np.array([np.sqrt(2.0) * bell_state(i) for i in (1, 2, 3, 4)])
        np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-15)

    def test_bell_states_orthonormal(self):
        states = [bell_state(i) for i in (1, 2, 3, 4)]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)

    def test_bell_state_index_range(self):
        with pytest.raises(ValueError):
            bell_state(5)

    @pytest.mark.parametrize("index", [True, np.True_, 1.0, "1", 0, np.int64(5)])
    def test_index_must_be_an_integer_in_range(self, index):
        """Accepted, True returned the first Bell state; 1.0 raised numpy's IndexError."""
        with pytest.raises(ValueError, match=r"^Bell state index must be in 1\.\.4, got "):
            bell_state(index)

    def test_numpy_integer_index_is_accepted(self):
        assert np.array_equal(bell_state(np.int64(3)), bell_state(3))


class TestEntangledPair:
    def test_needs_four_coefficients(self):
        with pytest.raises(ValueError):
            EntangledPair(np.array([1.0, 0.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EntangledPair(np.array([np.inf, 0, 0, 0]))

    def test_coefficients_are_a_read_only_copy(self):
        """An instance keeps blocks built from ``y``, so ``y`` must not change under it."""
        given = np.array([0.8, 0.0, 0.0, 0.6], dtype=complex)
        p = EntangledPair(given)
        with pytest.raises(ValueError, match="read-only"):
            p.y[0] = 1.0
        assert given.flags.writeable
        given[0] = 1.0
        assert p.y[0] == 0.8

    def test_amplitude_matrix_layout(self):
        p = EntangledPair(np.array([1, 2, 3, 4], dtype=complex))
        assert np.array_equal(p.amplitude_matrix(), np.array([[1, 2], [3, 4]], dtype=complex))

    def test_channel_needs_a_pair(self):
        with pytest.raises(ValueError):
            Channel(())

    def test_channel_length_is_its_pair_count(self):
        assert len(Channel((mes_pair(),) * 3)) == 3


class TestPairEquality:
    def test_equal_coefficients_compare_equal(self):
        p = EntangledPair(np.array([0.8, 0.0, 0.0, 0.6j]))
        assert p == EntangledPair(p.y.copy())
        assert p in [mes_pair(), p]

    def test_any_difference_compares_unequal(self):
        p = EntangledPair(np.array([0.8, 0.0, 0.0, 0.6]))
        assert p != EntangledPair(np.array([0.8, 0.0, 0.0, np.nextafter(0.6, 1.0)]))
        assert p != EntangledPair(np.array([0.6, 0.0, 0.0, 0.8]))
        assert p.__eq__(p.y) is NotImplemented and p != "pair"

    def test_equal_channels_and_instances_compare_equal(self):
        pairs = (mes_pair(), EntangledPair(np.array([0.8, 0.0, 0.0, 0.6])))
        copies = tuple(EntangledPair(p.y.copy()) for p in pairs)
        assert Channel(pairs) == Channel(copies)
        assert Channel(pairs) != Channel(copies[::-1])
        state = StateVector(2, np.array([0.6, 0.0, 0.0, 0.8]))
        conv = PairingConvention.BOB_HOLDS_SECOND
        inst = TeleportationInstance(state, Channel(pairs), conv)
        assert inst == TeleportationInstance(StateVector(2, state.amps.copy()), Channel(copies), conv)
        assert inst != TeleportationInstance(state, Channel(pairs), PairingConvention.BOB_HOLDS_FIRST)


class TestPairDeterminant:
    def test_maximally_entangled(self):
        assert pair_determinant(mes_pair()) == pytest.approx(0.5, abs=1e-15)

    def test_product_pair_is_zero(self):
        assert pair_determinant(EntangledPair(np.array([1, 0, 0, 0], dtype=complex))) == 0.0

    def test_partially_entangled(self):
        p = EntangledPair(np.array([0.8, 0, 0, 0.6]))
        assert pair_determinant(p) == pytest.approx(0.48, abs=1e-15)

    def test_quadratic_under_scaling(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            c = complex(*rng.standard_normal(2))
            lhs = pair_determinant(EntangledPair(c * y))
            rhs = c * c * pair_determinant(EntangledPair(y))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def concurrence(pair: EntangledPair) -> float:
    return channel_criterion(Channel((pair,))).pairs[0].concurrence


class TestConcurrence:
    """``PairDiagnostics.concurrence``: 2*|det| of the coefficient matrix."""

    def test_maximally_entangled_is_one(self):
        assert concurrence(mes_pair()) == pytest.approx(1.0, abs=1e-15)

    def test_product_pair_is_zero(self):
        assert concurrence(EntangledPair(np.array([0, 1, 0, 0], dtype=complex))) == 0.0

    def test_range_for_normalized_pairs(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            p = EntangledPair(y / np.linalg.norm(y))
            assert 0.0 <= concurrence(p) <= 1.0 + 1e-12

