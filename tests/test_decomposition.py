"""Tests for the per-pair blocks, their tensor products and inverses."""

from functools import reduce

import numpy as np
import pytest

from belldecomp import (
    Channel,
    EntangledPair,
    NotInvertibleError,
    PairingConvention,
    TeleportationInstance,
    bell_project,
    collapsed_state,
    decomposition_matrix,
    inverse_sub_matrix,
    is_proportional_to_unitary,
    joint_state,
    random_state,
    rearrange_for_measurement,
    recover,
    sub_matrix,
    validate_outcome,
)
from belldecomp.channel import pair_determinant
from belldecomp.decomposition import SIGMA, inverse_pair_blocks, pair_blocks

BHF = PairingConvention.BOB_HOLDS_FIRST
BHS = PairingConvention.BOB_HOLDS_SECOND

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def mes_pair() -> EntangledPair:
    return EntangledPair(np.array([1, 0, 0, 1]) / np.sqrt(2))


def random_pair(rng) -> EntangledPair:
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return EntangledPair(y / np.linalg.norm(y))


def expected_blocks_first(y) -> list[np.ndarray]:
    """Receiver keeps the first qubit of each pair."""
    y1, y2, y3, y4 = y
    return [
        np.array([[y1, y2], [y3, y4]]),
        np.array([[y1, -y2], [y3, -y4]]),
        np.array([[y2, y1], [y4, y3]]),
        np.array([[y2, -y1], [y4, -y3]]),
    ]


def expected_blocks_second(y) -> list[np.ndarray]:
    """Receiver keeps the second qubit: middle coefficients exchanged."""
    y1, y2, y3, y4 = y
    return [
        np.array([[y1, y3], [y2, y4]]),
        np.array([[y1, -y3], [y2, -y4]]),
        np.array([[y3, y1], [y4, y2]]),
        np.array([[y3, -y1], [y4, -y2]]),
    ]


def mes_instance() -> TeleportationInstance:
    state = random_state(2, np.random.default_rng(30))
    return TeleportationInstance(state, Channel((mes_pair(), mes_pair())), BHS)


# Every function that takes Bell results, called with the two given results.
TAKES_RESULTS = {
    "validate_outcome": lambda out: validate_outcome(out, 2),
    "sub_matrix": lambda out: [sub_matrix(mes_pair(), r, BHF) for r in out],
    "inverse_sub_matrix": lambda out: [inverse_sub_matrix(mes_pair(), r, BHS) for r in out],
    "decomposition_matrix": lambda out: decomposition_matrix(mes_instance().channel, out, BHF),
    "collapsed_state": lambda out: collapsed_state(mes_instance(), out),
    "recover": lambda out: recover(collapsed_state(mes_instance(), (2, 4)), mes_instance(), out),
    "bell_project": lambda out: bell_project(
        rearrange_for_measurement(joint_state(mes_instance()), mes_instance()), out
    ),
}


class TestValidateOutcome:
    """Bell results must be integers: Python's, numpy's, or anything with ``__index__``."""

    @pytest.mark.parametrize("call", TAKES_RESULTS.values(), ids=TAKES_RESULTS)
    @pytest.mark.parametrize(
        "outcome",
        [(2.7, 1.2), (1.9, 4.99), (2.0, 4), "24", ("2", 4), (True, 4), (2, np.True_), (2, None)],
        ids=repr,
    )
    def test_non_integer_results_are_rejected(self, call, outcome):
        """Coerced with int(), (2.7, 1.2) used to pass as (2, 1) and "34" as (3, 4)."""
        with pytest.raises(ValueError, match=r"^Bell results must be integers, got "):
            call(outcome)

    @pytest.mark.parametrize("call", TAKES_RESULTS.values(), ids=TAKES_RESULTS)
    @pytest.mark.parametrize(
        "outcome",
        [(2, 4), [2, 4], (np.int64(2), np.uint8(4)), np.array([2, 4]), range(2, 5, 2)],
        ids=repr,
    )
    def test_integer_results_are_accepted(self, call, outcome):
        call(outcome)

    def test_results_come_back_as_ints(self):
        out = validate_outcome(np.random.default_rng(31).integers(1, 5, 3), 3)
        assert all(type(r) is int and 1 <= r <= 4 for r in out)

    def test_out_of_range_message(self):
        with pytest.raises(ValueError, match=r"^Bell results must be in 1\.\.4, got \(5,\)$"):
            sub_matrix(mes_pair(), 5, BHF)


class TestSubMatrix:
    def test_blocks_receiver_holds_first(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_pair(rng)
            for r, expected in enumerate(expected_blocks_first(p.y), start=1):
                assert np.array_equal(sub_matrix(p, r, BHF), expected)

    def test_blocks_receiver_holds_second(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            p = random_pair(rng)
            for r, expected in enumerate(expected_blocks_second(p.y), start=1):
                assert np.array_equal(sub_matrix(p, r, BHS), expected)

    def test_convention_swap_equals_middle_coefficient_swap(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            p = random_pair(rng)
            swapped = EntangledPair(p.y[[0, 2, 1, 3]])
            for r in (1, 2, 3, 4):
                assert np.array_equal(sub_matrix(p, r, BHS), sub_matrix(swapped, r, BHF))

    def test_first_block_transposes_across_conventions(self):
        rng = np.random.default_rng(34)
        p = random_pair(rng)
        assert np.array_equal(sub_matrix(p, 1, BHS), sub_matrix(p, 1, BHF).T)

    def test_mes_blocks_are_scaled_paulis(self):
        s = 1 / np.sqrt(2)
        expected = [I2 * s, Z * s, X * s, -1j * Y * s]
        for conv in (BHF, BHS):
            for r, want in enumerate(expected, start=1):
                assert np.array_equal(sub_matrix(mes_pair(), r, conv), want)

    def test_bell_index_out_of_range(self):
        with pytest.raises(ValueError):
            sub_matrix(mes_pair(), 0, BHF)
        with pytest.raises(ValueError):
            sub_matrix(mes_pair(), 5, BHS)

    def test_convention_must_be_a_member(self):
        """The value string names no member: it must not pass for either convention."""
        with pytest.raises(ValueError, match="unknown convention 'bob-holds-first'"):
            pair_blocks(mes_pair(), "bob-holds-first")
        with pytest.raises(ValueError, match="unknown convention 'bob-holds-first'"):
            decomposition_matrix(Channel((mes_pair(),)), (1,), "bob-holds-first")


class TestDecompositionMatrix:
    def test_all_ones_outcome_is_kron_power(self):
        rng = np.random.default_rng(35)
        p = random_pair(rng)
        ch = Channel((p, p, p))
        dm = decomposition_matrix(ch, (1, 1, 1), BHF)
        block = sub_matrix(p, 1, BHF)
        assert np.array_equal(dm, np.kron(np.kron(block, block), block))

    def test_mixed_outcome_factors(self):
        rng = np.random.default_rng(36)
        pairs = tuple(random_pair(rng) for _ in range(3))
        ch = Channel(pairs)
        dm = decomposition_matrix(ch, (2, 3, 4), BHS)
        blocks = [sub_matrix(p, r, BHS) for p, r in zip(pairs, (2, 3, 4))]
        assert np.array_equal(dm, reduce(np.kron, blocks))

    def test_entry_definition(self):
        """The first pair indexes the most significant qubit:
        entry[2*i1 + i2, 2*j1 + j2] == A1[i1, j1] * A2[i2, j2], up to the
        multiply's round-off."""
        rng = np.random.default_rng(37)
        pairs = (random_pair(rng), random_pair(rng))
        dm = decomposition_matrix(Channel(pairs), (2, 4), BHF)
        a1, a2 = (sub_matrix(p, r, BHF) for p, r in zip(pairs, (2, 4)))
        for i1, j1, i2, j2 in np.ndindex(2, 2, 2, 2):
            assert dm[2 * i1 + i2, 2 * j1 + j2] == pytest.approx(
                a1[i1, j1] * a2[i2, j2], abs=1e-15
            )

    def test_mes_identity_outcome(self):
        ch = Channel((mes_pair(), mes_pair()))
        dm = decomposition_matrix(ch, (1, 1), BHS)
        np.testing.assert_allclose(dm, np.eye(4) / 2.0, atol=1e-15)

    def test_determinant_factorizes(self):
        rng = np.random.default_rng(37)
        for n in (2, 3):
            pairs = tuple(random_pair(rng) for _ in range(n))
            outcome = tuple(int(r) for r in rng.integers(1, 5, n))
            dm = decomposition_matrix(Channel(pairs), outcome, BHF)
            block_dets = [
                np.linalg.det(sub_matrix(p, r, BHF)) for p, r in zip(pairs, outcome)
            ]
            expected = np.prod([d ** (2 ** (n - 1)) for d in block_dets])
            np.testing.assert_allclose(np.linalg.det(dm), expected, rtol=1e-9)

    def test_outcome_length_must_match(self):
        ch = Channel((mes_pair(), mes_pair()))
        with pytest.raises(ValueError):
            decomposition_matrix(ch, (1, 1, 1), BHF)

    def test_outcome_entries_must_be_in_range(self):
        ch = Channel((mes_pair(),))
        with pytest.raises(ValueError):
            decomposition_matrix(ch, (0,), BHF)

    def test_refuses_an_instance_for_its_channel(self):
        """An instance passed for its channel raised AttributeError on ``pairs``."""
        with pytest.raises(ValueError, match="^channel must be a Channel, got TeleportationInstance$"):
            decomposition_matrix(mes_instance(), (1, 1), BHF)


class TestInverseSubMatrix:
    def test_inverse_times_block_is_identity(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            p = random_pair(rng)
            for conv in (BHF, BHS):
                for r in (1, 2, 3, 4):
                    inv = inverse_sub_matrix(p, r, conv)
                    np.testing.assert_allclose(
                        inv @ sub_matrix(p, r, conv), I2, atol=1e-12
                    )

    def test_closed_form_for_first_result(self):
        """For result 1 (receiver holds first) the inverse is the explicit adjugate."""
        rng = np.random.default_rng(39)
        p = random_pair(rng)
        y1, y2, y3, y4 = p.y
        det = y1 * y4 - y2 * y3
        expected = np.array([[y4, -y2], [-y3, y1]]) / det
        assert np.array_equal(inverse_sub_matrix(p, 1, BHF), expected)

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_inverse_blocks_are_the_adjugate_over_the_pair_determinant(self, conv):
        """Bit for bit: sigma_r^-1 times adj(M) / ``pair_determinant``.  The pair
        determinant is a*d - b*c of M under either convention, to the bit."""
        rng = np.random.default_rng(40)
        for _ in range(500):
            p = random_pair(rng)
            (a, b), (c, d) = pair_blocks(p, conv)[0]
            det = pair_determinant(p)
            assert det == a * d - b * c
            m_inv = np.array([[d, -b], [-c, a]]) / det
            expected = SIGMA.transpose(0, 2, 1) @ m_inv
            assert inverse_pair_blocks(p, conv).tobytes() == expected.tobytes()

    def test_mes_inverses_are_scaled_paulis(self):
        s2 = np.sqrt(2)
        expected = [I2 * s2, Z * s2, X * s2, 1j * Y * s2]
        for conv in (BHF, BHS):
            for r, want in enumerate(expected, start=1):
                assert np.array_equal(inverse_sub_matrix(mes_pair(), r, conv), want)

    def test_product_pair_raises(self):
        p = EntangledPair(np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(NotInvertibleError):
            inverse_sub_matrix(p, 1, BHF)

    def test_tolerance_boundary(self):
        nearly = EntangledPair(np.array([1.0, 0, 0, 1e-10], dtype=complex))
        with pytest.raises(NotInvertibleError):
            inverse_sub_matrix(nearly, 2, BHS)
        barely = EntangledPair(np.array([1.0, 0, 0, 1e-8], dtype=complex))
        inverse_sub_matrix(barely, 2, BHS)


def singular_values_2x2(m: np.ndarray) -> tuple[float, float]:
    """Closed-form singular values, independent of the library SVD."""
    g = float(np.sum(np.abs(m) ** 2))
    d = abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    disc = max(g * g - 4.0 * d * d, 0.0)
    hi = np.sqrt((g + np.sqrt(disc)) / 2.0)
    lo = np.sqrt(max((g - np.sqrt(disc)) / 2.0, 0.0))
    return hi, lo


class TestIsProportionalToUnitary:
    def test_scaled_pauli_x(self):
        ok, scale = is_proportional_to_unitary(X / np.sqrt(2))
        assert ok
        assert scale == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_unequal_diagonal(self):
        ok, scale = is_proportional_to_unitary(np.diag([0.8, 0.6]).astype(complex))
        assert not ok
        assert scale is None

    def test_blocks_of_maximally_entangled_pairs(self):
        """Any pair built from a unitary over sqrt(2) gives blocks of scale 1/sqrt(2)."""
        rng = np.random.default_rng(40)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            p = EntangledPair(q.reshape(-1) / np.sqrt(2))
            for conv in (BHF, BHS):
                for r in (1, 2, 3, 4):
                    block = sub_matrix(p, r, conv)
                    ok, scale = is_proportional_to_unitary(block)
                    assert ok
                    assert scale == pytest.approx(1 / np.sqrt(2), abs=1e-12)
                    # closed form cancels catastrophically near equal singular
                    # values, so only sqrt(eps) accuracy is available from it
                    hi, lo = singular_values_2x2(block)
                    assert hi == pytest.approx(scale, abs=1e-7)
                    assert lo == pytest.approx(scale, abs=1e-7)

    def test_matches_closed_form_on_random_blocks(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            hi, lo = singular_values_2x2(m)
            s = np.linalg.svd(m, compute_uv=False)
            np.testing.assert_allclose(sorted(s, reverse=True), [hi, lo], atol=1e-10)
