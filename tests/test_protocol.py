"""Tests for collapsed states, probabilities, recovery, enumeration and sampling."""

import dataclasses
import itertools
import math
import statistics
import tracemalloc
import warnings
from collections.abc import Sequence
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from belldecomp import (
    Channel,
    EntangledPair,
    NotInvertibleError,
    PairingConvention,
    StateVector,
    TeleportationInstance,
    channel_criterion,
    collapsed_state,
    decomposition_matrix,
    enumerate_outcomes,
    fidelity,
    inverse_sub_matrix,
    is_proportional_to_unitary,
    random_channel,
    random_instance,
    random_pair,
    random_state,
    recover,
    sample_outcome,
    sub_matrix,
)
from belldecomp.channel import NORM_WARN_TOL, pair_determinant
from belldecomp.decomposition import (
    SIGMA,
    _coefficient_matrix,
    _inverse_coefficient_matrix,
    inverse_pair_blocks,
    pair_blocks,
)
from belldecomp.protocol import (
    ENUMERATION_CAP,
    _CHECK_PAIRS,
    _TABLE_PAIRS,
    _apply_blocks,
    _chunk_frames,
    _chunk_rows,
    _fidelity_rows,
    _frame_gather,
    _inverse_cdf_step,
    _outcome_chunks,
)

BHF = PairingConvention.BOB_HOLDS_FIRST
BHS = PairingConvention.BOB_HOLDS_SECOND

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_FOR_RESULT = {1: I2, 2: Z, 3: X, 4: -1j * Y}


def mes_pair() -> EntangledPair:
    return EntangledPair(np.array([1, 0, 0, 1]) / np.sqrt(2))


def mes_instance(n: int, seed: int, convention=BHS) -> TeleportationInstance:
    rng = np.random.default_rng(seed)
    ch = Channel(tuple(mes_pair() for _ in range(n)))
    return TeleportationInstance(random_state(n, rng), ch, convention)


def diagonal_pair(c0: float, c3: float) -> EntangledPair:
    return EntangledPair(np.array([c0, 0.0, 0.0, c3], dtype=complex))


class TestTeleportationInstance:
    def test_size_mismatch_rejected(self):
        state = StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError):
            TeleportationInstance(state, Channel((mes_pair(),)), BHS)

    @pytest.mark.parametrize("convention", ["bob-holds-first", 3])
    def test_convention_must_be_a_member(self, convention):
        """Accepted, the string ordered the oracle's state as bob-holds-second."""
        state = StateVector(1, np.array([1, 0], dtype=complex))
        with pytest.raises(ValueError, match="convention must be a PairingConvention"):
            TeleportationInstance(state, Channel((mes_pair(),)), convention)

    def test_state_and_channel_must_have_their_types(self):
        """Accepted, an array for the state or a tuple of pairs for the channel failed
        later with AttributeError on ``num_qubits`` or ``pairs``."""
        state = StateVector(1, np.array([1, 0], dtype=complex))
        channel = Channel((mes_pair(),))
        with pytest.raises(ValueError, match="input_state must be a StateVector, got ndarray"):
            TeleportationInstance(state.amps, channel, BHS)
        with pytest.raises(ValueError, match="channel must be a Channel, got tuple"):
            TeleportationInstance(state, channel.pairs, BHS)

    def test_unnormalized_pair_rejected(self):
        """Accepted, the pair (2, 0, 0, 2) made the probabilities sum to 8."""
        ch = Channel((mes_pair(), EntangledPair(np.array([2, 0, 0, 2], dtype=complex))))
        state = StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError, match="pair 2 must have unit norm"):
            TeleportationInstance(state, ch, BHS)

    def test_unnormalized_input_rejected(self):
        state = StateVector(1, np.array([3, 0], dtype=complex))
        with pytest.raises(ValueError, match="input state must have unit norm"):
            TeleportationInstance(state, Channel((mes_pair(),)), BHS)

    def test_norm_within_tolerance_accepted(self):
        state = StateVector(1, np.array([1 + NORM_WARN_TOL / 2, 0], dtype=complex))
        pair = EntangledPair(mes_pair().y * (1 - NORM_WARN_TOL / 2))
        TeleportationInstance(state, Channel((pair,)), BHS)


class TestRandomGenerators:
    @pytest.mark.parametrize("n", [2.0, "2", True, 0])
    def test_qubit_count_must_be_a_positive_integer(self, n):
        """2.0 and "2" raised TypeError from the amplitude count ``1 << num_qubits``."""
        rng = np.random.default_rng(0)
        for call in (lambda: random_state(n, rng), lambda: random_instance(n, rng, BHS)):
            with pytest.raises(ValueError, match="num_qubits must be a positive integer"):
                call()

    @pytest.mark.parametrize("n", [2.0, "2", True, 0])
    def test_pair_count_must_be_a_positive_integer(self, n):
        """2.0 and "2" raised TypeError from ``range``, and True drew one pair."""
        with pytest.raises(ValueError, match="num_pairs must be a positive integer"):
            random_channel(n, np.random.default_rng(0))


class TestCollapsedState:
    def test_single_qubit_mes_first_result_halves_input(self):
        inst = mes_instance(1, seed=50)
        c = collapsed_state(inst, (1,))
        np.testing.assert_allclose(c.amps, inst.input_state.amps / 2.0, atol=1e-15)

    def test_single_qubit_diagonal_third_result_swaps(self):
        """Channel (a,0,0,b), result 3, receiver holds second: (a*x2, b*x1)/sqrt2."""
        rng = np.random.default_rng(51)
        x = random_state(1, rng)
        inst = TeleportationInstance(x, Channel((diagonal_pair(0.8, 0.6),)), BHS)
        c = collapsed_state(inst, (3,))
        expected = np.array([0.8 * x.amps[1], 0.6 * x.amps[0]]) / np.sqrt(2)
        np.testing.assert_allclose(c.amps, expected, atol=1e-15)

    def test_three_qubit_diagonal_channel_pattern(self):
        """Diagonal pairs with all-1 results scale each amplitude by a product
        of per-pair coefficients picked by that amplitude's bits."""
        rng = np.random.default_rng(52)
        x = random_state(3, rng)
        coeffs = [(0.9, np.sqrt(1 - 0.81)), (0.8, 0.6), (0.7, np.sqrt(1 - 0.49))]
        ch = Channel(tuple(diagonal_pair(a, b) for a, b in coeffs))
        inst = TeleportationInstance(x, ch, BHF)
        c = collapsed_state(inst, (1, 1, 1))
        expected = np.empty(8, dtype=complex)
        for k in range(8):
            bits = [(k >> 2) & 1, (k >> 1) & 1, k & 1]
            scale = np.prod([coeffs[i][bit] for i, bit in enumerate(bits)])
            expected[k] = x.amps[k] * scale
        np.testing.assert_allclose(c.amps, expected / np.sqrt(2) ** 3, atol=1e-14)

    def test_probability_is_squared_norm(self):
        """A record's probability is the squared norm of that outcome's collapsed state."""
        inst = random_instance(2, np.random.default_rng(53), BHF)
        records = {r.outcome: r for r in enumerate_outcomes(inst)}
        for out in [(1, 1), (2, 3), (4, 4)]:
            expected = collapsed_state(inst, out).squared_norm()
            assert records[out].probability == pytest.approx(expected, abs=1e-15)

    def test_matches_materialized_matrix(self):
        """Applying blocks axis by axis equals multiplying by the full tensor product."""
        inst = random_instance(3, np.random.default_rng(54), BHS)
        for out in [(1, 2, 3), (4, 4, 1), (3, 2, 2)]:
            dm = decomposition_matrix(inst.channel, out, BHS)
            expected = (dm @ inst.input_state.amps) * np.sqrt(0.5) ** 3
            np.testing.assert_allclose(collapsed_state(inst, out).amps, expected, atol=1e-13)

    def test_outcome_validation(self):
        inst = mes_instance(2, seed=55)
        with pytest.raises(ValueError):
            collapsed_state(inst, (1,))
        with pytest.raises(ValueError):
            collapsed_state(inst, (1, 5))


class TestRecover:
    def test_round_trip_fidelity(self):
        rng = np.random.default_rng(56)
        for conv in (BHF, BHS):
            inst = random_instance(2, rng, conv)
            for out in itertools.product((1, 2, 3, 4), repeat=2):
                c = collapsed_state(inst, out)
                recovered, fid = recover(c, inst, out)
                assert fid >= 1.0 - 1e-12
                assert recovered.squared_norm() == pytest.approx(1.0, abs=1e-12)

    def test_mes_recovery_operator_is_scaled_unitary(self):
        inst = mes_instance(2, seed=57)
        out = (3, 1)
        inverses = [
            inverse_sub_matrix(p, r, BHS) for p, r in zip(inst.channel.pairs, out)
        ]
        op = reduce(np.kron, inverses)
        np.testing.assert_allclose(op, 2.0 * np.kron(X, I2), atol=1e-12)
        s = np.linalg.svd(op, compute_uv=False)
        np.testing.assert_allclose(s, np.full(4, 2.0), atol=1e-12)

    def test_not_invertible_names_offending_pairs(self):
        ch = Channel((mes_pair(), EntangledPair(np.array([1, 0, 0, 0], dtype=complex))))
        inst = TeleportationInstance(random_state(2, np.random.default_rng(58)), ch, BHS)
        c = collapsed_state(inst, (1, 1))
        with pytest.raises(NotInvertibleError) as err:
            recover(c, inst, (1, 1))
        assert err.value.pair_indices == (2,)
        assert "2" in str(err.value)

    def test_collapsed_state_of_another_size_is_refused(self):
        inst = random_instance(2, np.random.default_rng(60), BHS)
        with pytest.raises(ValueError, match=r"collapsed state has 1 qubit\(s\), expected 2"):
            recover(StateVector(1, np.array([1, 0])), inst, (1, 1))

    def test_fidelity_independent_of_collapsed_scale(self):
        inst = random_instance(1, np.random.default_rng(59), BHF)
        c = collapsed_state(inst, (2,))
        _, fid_raw = recover(c, inst, (2,))
        _, fid_scaled = recover(StateVector(1, 5.0 * c.amps), inst, (2,))
        assert fid_raw == pytest.approx(fid_scaled, abs=1e-14)

    @pytest.mark.parametrize("scale", [1e-170, 1e306])
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 3])
    def test_fidelity_at_extreme_collapsed_scales(self, n, conv, scale):
        """The recovered amplitudes are finite, but their plain norm underflowed to 0
        (refused as a zero state) or overflowed (normalized to zeros, whose fidelity
        was undefined)."""
        inst = random_instance(n, np.random.default_rng(62), conv)
        for out in [(1,) * n, (4,) * n, (2, 3, 1)[:n]]:
            c = collapsed_state(inst, out)
            recovered, fid = recover(c, inst, out)
            scaled, fid_scaled = recover(StateVector(n, scale * c.amps), inst, out)
            assert fid_scaled == pytest.approx(fid, abs=1e-14)
            np.testing.assert_allclose(scaled.amps, recovered.amps, rtol=0, atol=1e-14)


class TestRecoverFailures:
    """Recovered amplitudes that cannot be normalized end in ValueError.  Each case
    names the RuntimeWarnings its arithmetic may raise on the way; no other may
    appear.  They are recorded here because the suite turns warnings into errors."""

    @staticmethod
    def recover_warns(collapsed, inst, outcome, tol, allowed, match):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=match):
                recover(collapsed, inst, outcome, tol)
        assert {str(w.message) for w in caught} <= allowed

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_collapsed_state(self, n, conv):
        inst = mes_instance(n, seed=61, convention=conv)
        zero = StateVector(n, np.zeros(1 << n))
        for out in [(1,) * n, (4,) * n]:
            self.recover_warns(zero, inst, out, 1e-9, set(), "cannot normalize a zero state")

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_a_pair_inverse_past_the_float_range_is_named(self, conv):
        """|det| = 1e-309 passes tol = 0, but M^-1 holds 1e309: every path to the
        inverse refuses the pair, without a warning, and the table path names it."""
        pair = EntangledPair(np.array([1, 0, 0, 1e-309], dtype=complex))
        mes = EntangledPair(np.array([1, 0, 0, 1]) / math.sqrt(2))
        inst = TeleportationInstance(random_state(2, np.random.default_rng(62)), Channel((mes, pair)), conv)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotInvertibleError, match="leaves the float range"):
                inverse_pair_blocks(pair, conv, 0.0)
            for call in (
                lambda: recover(collapsed_state(inst, (1, 1)), inst, (1, 1), 0.0),
                lambda: enumerate_outcomes(inst, tol=0.0),
            ):
                with pytest.raises(NotInvertibleError, match="^pair 2: the inverse") as info:
                    call()
                assert info.value.pair_indices == (2,)
            assert np.isnan(enumerate_outcomes(inst, tol=1e-9).fidelities).all()

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_overflowing_recovery(self, r, conv):
        """|det| = 1e-300 puts 1e300 in M^-1, so 1e300 amplitudes recover to infinity.
        The finiteness check comes before the division, which would add NaN."""
        pair = EntangledPair(np.array([1, 0, 0, 1e-300], dtype=complex))
        inst = TeleportationInstance(StateVector(1, [1, 0]), Channel((pair,)), conv)
        collapsed = StateVector(1, [1e300, 1e300])
        allowed = {"overflow encountered in multiply"}
        self.recover_warns(collapsed, inst, (r,), 0.0, allowed, "amplitudes must be finite")


class TestChannelCriterion:
    def test_all_mes_pairs_succeed(self):
        report = channel_criterion(Channel((mes_pair(), mes_pair(), mes_pair())))
        assert report.success
        assert report.failed_pairs == ()
        for d in report.pairs:
            assert d.invertible
            assert d.unitary_proportional
            assert d.unitary_scale == pytest.approx(1 / np.sqrt(2), abs=1e-12)
            assert d.concurrence == pytest.approx(1.0, abs=1e-12)

    def test_product_pair_fails_by_index(self):
        ch = Channel(
            (mes_pair(), EntangledPair(np.array([0, 1, 0, 0], dtype=complex)), mes_pair())
        )
        report = channel_criterion(ch)
        assert not report.success
        assert report.failed_pairs == (2,)
        assert not report.pairs[1].invertible

    def test_unnormalized_pair_rejected(self):
        """Accepted, the pair (2, 0, 0, 2) reported concurrence 8 and unitary scale 2."""
        ch = Channel((EntangledPair(np.array([2, 0, 0, 2], dtype=complex)),))
        with pytest.raises(ValueError, match=r"^channel pair 1 must have unit norm, got 2\.82843$"):
            channel_criterion(ch)

    def test_refuses_an_instance_for_its_channel(self):
        """An instance passed for its channel raised AttributeError on ``pairs``."""
        inst = TeleportationInstance(StateVector(1, [1, 0]), Channel((mes_pair(),)), BHS)
        with pytest.raises(ValueError, match="^channel must be a Channel, got TeleportationInstance$"):
            channel_criterion(inst)

    def test_partially_entangled_pair_is_invertible_but_not_unitary(self):
        report = channel_criterion(Channel((diagonal_pair(0.8, 0.6),)))
        assert report.success
        d = report.pairs[0]
        assert d.invertible
        assert not d.unitary_proportional
        assert d.unitary_scale is None
        assert d.determinant == pytest.approx(0.48, abs=1e-15)
        assert d.concurrence == pytest.approx(0.96, abs=1e-15)

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_unitary_over_sqrt2_pairs_are_unitary_proportional(self, conv):
        """Every pair that is a unitary over sqrt(2) is flagged with scale 1/sqrt(2), as is
        each of its blocks under either convention.  The first three pairs have |det| =
        0.4999999999999999, where the closed form sigma_max^2 = (1 + sqrt(1 - 4|det|^2))/2,
        sigma_min = |det|/sigma_max puts the singular values 1.5e-8 apart."""
        s = 1 / np.sqrt(2)
        ys = [np.array([1, 0, 0, 1]) * s, np.array([0, 1, 1, 0]) * s, np.array([1, 0, 0, -1j]) * s]
        rng = np.random.default_rng(40)
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            ys.append(q.reshape(-1) * s)
        pairs = tuple(EntangledPair(y) for y in ys)
        report = channel_criterion(Channel(pairs))
        assert report.success
        for p, d in zip(pairs, report.pairs):
            assert d.unitary_proportional
            assert d.unitary_scale == pytest.approx(s, abs=1e-12)
            for r in (1, 2, 3, 4):
                ok, scale = is_proportional_to_unitary(sub_matrix(p, r, conv))
                assert ok and scale == pytest.approx(s, abs=1e-12)


class TestEnumerateOutcomes:
    def test_lexicographic_order_and_count(self):
        inst = mes_instance(2, seed=60)
        records = enumerate_outcomes(inst)
        assert len(records) == 16
        outcomes = [r.outcome for r in records]
        assert outcomes == sorted(outcomes)
        assert outcomes[0] == (1, 1)
        assert outcomes[1] == (1, 2)
        assert outcomes[-1] == (4, 4)

    def test_completeness_random_instances(self):
        rng = np.random.default_rng(61)
        for n in (1, 2, 3, 4):
            for conv in (BHF, BHS):
                inst = random_instance(n, rng, conv)
                total = sum(r.probability for r in enumerate_outcomes(inst))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_mes_outcomes_uniform(self):
        for n in (1, 2, 3):
            inst = mes_instance(n, seed=62 + n)
            for r in enumerate_outcomes(inst):
                assert r.probability == pytest.approx(4.0 ** -n, abs=1e-12)
                assert r.recovered_fidelity is not None
                assert r.recovered_fidelity >= 1.0 - 1e-10

    def test_collapsed_records_are_normalized(self):
        inst = random_instance(2, np.random.default_rng(63), BHS)
        for r in enumerate_outcomes(inst):
            if r.probability > 0:
                assert r.collapsed.squared_norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_record(self):
        """A fully degenerate pair with input |1> kills the first two outcomes."""
        ch = Channel((EntangledPair(np.array([1, 0, 0, 0], dtype=complex)),))
        inst = TeleportationInstance(StateVector(1, np.array([0, 1], dtype=complex)), ch, BHS)
        records = enumerate_outcomes(inst)
        assert records[0].probability == 0.0
        assert np.array_equal(records[0].collapsed.amps, np.zeros(2, dtype=complex))
        assert records[0].recovered_fidelity is None
        assert not records[0].invertible
        assert records[2].probability == pytest.approx(0.5, abs=1e-12)

    def test_enumeration_cap(self):
        n = 9
        state = StateVector(n, np.eye(1 << n)[0])
        ch = Channel(tuple(mes_pair() for _ in range(n)))
        with pytest.raises(ValueError):
            enumerate_outcomes(TeleportationInstance(state, ch, BHS))


def outcome_index(outcome) -> int:
    """Position of ``outcome`` in lexicographic order of the per-pair results."""
    return int(np.ravel_multi_index([r - 1 for r in outcome], (4,) * len(outcome)))


class InverseCdf:
    """Draws by inverting the cumulative distribution of the outcome probabilities
    ``probs``, by default those of the per-outcome ``collapsed_state``, in
    lexicographic order of the outcomes."""

    def __init__(self, inst: TeleportationInstance, probs: np.ndarray | None = None):
        self.outcomes = list(itertools.product((1, 2, 3, 4), repeat=inst.num_qubits))
        if probs is None:
            probs = np.array([collapsed_state(inst, out).squared_norm() for out in self.outcomes])
        self.probs = probs
        self.cum = np.cumsum(self.probs)

    def draw(self, seed: int):
        u = np.random.default_rng(seed).random() * self.cum[-1]
        k = int(np.searchsorted(self.cum, u, side="right"))
        # Rounding can put u at the total: the last outcome of positive probability.
        return self.outcomes[k if k < len(self.outcomes) else np.flatnonzero(self.probs)[-1]]


class TestSampleOutcome:
    def test_deterministic_per_seed(self):
        inst = mes_instance(2, seed=64)
        assert sample_outcome(inst, 123) == sample_outcome(inst, 123)
        draws = {sample_outcome(inst, s) for s in range(64)}
        assert len(draws) > 1

    def test_zero_probability_outcomes_never_drawn(self):
        ch = Channel((EntangledPair(np.array([1, 0, 0, 0], dtype=complex)),))
        inst = TeleportationInstance(StateVector(1, np.array([0, 1], dtype=complex)), ch, BHS)
        assert {sample_outcome(inst, s) for s in range(200)} <= {(3,), (4,)}

    def test_frequencies_match_born_rule(self):
        """Seed sweep over 10^5 draws: every MES outcome within 3 sigma of 1/4."""
        inst = mes_instance(1, seed=65)
        counts = {(r,): 0 for r in (1, 2, 3, 4)}
        n_draws = 100_000
        for seed in range(n_draws):
            counts[sample_outcome(inst, seed)] += 1
        sigma = np.sqrt(n_draws * 0.25 * 0.75)
        for out, count in counts.items():
            assert abs(count - n_draws * 0.25) <= 3 * sigma, (out, count)

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_seed_to_outcome_mapping_is_the_inverse_cdf(self, n, conv):
        inst = random_instance(n, np.random.default_rng(130 + n), conv)
        reference = InverseCdf(inst)
        for seed in range(200):
            assert sample_outcome(inst, seed) == reference.draw(seed)

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_frequencies_pass_a_chi_square_test(self, conv):
        """20,000 draws at n = 3 against the per-outcome Born probabilities.

        Weakly entangled pairs (cos 0.1, 0, 0, sin 0.1) and an input near |000>
        skew the distribution: 24 of the 64 outcomes expect fewer than 5 draws.
        Outcomes are pooled in order of rising expected count until each bin
        expects at least 5 draws.  The threshold is the 0.999 quantile of
        chi-square at the bins' degrees of freedom, by the Wilson-Hilferty
        approximation k (1 - 2/(9k) + z sqrt(2/(9k)))^3 with z the 0.999
        normal quantile; for k >= 20 it overstates the exact quantile by less than 0.3%.
        """
        rng = np.random.default_rng(140)
        amps = np.eye(8)[0] + 0.1 * random_state(3, rng).amps
        pair = diagonal_pair(math.cos(0.1), math.sin(0.1))
        state = StateVector(3, amps / np.linalg.norm(amps))
        inst = TeleportationInstance(state, Channel((pair,) * 3), conv)
        n_draws = 20_000
        probs = InverseCdf(inst).probs
        expected = n_draws * probs / probs.sum()
        observed = np.zeros(len(probs))
        for seed in range(n_draws):
            observed[outcome_index(sample_outcome(inst, seed))] += 1
        bins_e, bins_o, acc_e, acc_o = [], [], 0.0, 0.0
        for k in np.argsort(expected):
            acc_e, acc_o = acc_e + expected[k], acc_o + observed[k]
            if acc_e >= 5.0:
                bins_e.append(acc_e)
                bins_o.append(acc_o)
                acc_e, acc_o = 0.0, 0.0
        assert acc_e == 0.0 and len(bins_e) >= 21, len(bins_e)
        e, o = np.array(bins_e), np.array(bins_o)
        stat = float(((o - e) ** 2 / e).sum())
        df = len(e) - 1
        z = statistics.NormalDist().inv_cdf(0.999)
        threshold = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
        assert stat <= threshold, (stat, df, threshold)

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_zero_weight_branches_are_never_taken(self, conv):
        """Pair 2 is the product pair (1, 0, 0, 0) and the input's qubit 2 is |1>, so
        pair 2's results 1 and 2 have weight 0 on every branch."""
        rng = np.random.default_rng(150)
        pairs = list(random_channel(3, rng).pairs)
        pairs[1] = EntangledPair(np.array([1, 0, 0, 0], dtype=complex))
        amps = np.kron(np.kron(random_state(1, rng).amps, [0, 1]), random_state(1, rng).amps)
        inst = TeleportationInstance(StateVector(3, amps), Channel(tuple(pairs)), conv)
        drawn = {sample_outcome(inst, seed) for seed in range(2000)}
        assert {out[1] for out in drawn} == {3, 4}
        assert min(collapsed_state(inst, out).squared_norm() for out in drawn) > 0.0

    def test_a_uniform_past_the_last_child_takes_the_last_child_of_weight(self):
        """Rounding can leave the uniform at the total weight of a step; the draw then
        ends at the top of the last child of positive weight, never in a zero one."""
        assert _inverse_cdf_step([0.25, 0.5, 0.0, 0.0], 1.0) == (1, 1.0)
        assert _inverse_cdf_step([0.0, 0.5, 0.0, 0.25], 1.0) == (3, 1.0)

    @pytest.mark.parametrize(
        "seed", [True, False, np.True_, -1, np.int64(-3), 1.5, np.float64(2.0), "3", None]
    )
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got "):
            sample_outcome(mes_instance(2, seed=68), seed)

    @pytest.mark.parametrize("seed", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_integer_seeds_draw_as_ints(self, seed):
        inst = random_instance(3, np.random.default_rng(69), BHS)
        assert sample_outcome(inst, seed) == sample_outcome(inst, 5)

    def test_one_draw_at_the_cap_allocates_under_1_mb(self):
        """A draw holds buffers of 4 * 2^N and 2^N amplitudes and, within each step, a
        product of 8 * 2^N: 52 KiB at N = 8, where the (4^8, 2^8) outcome table takes
        268 MB.  numpy reports its allocations to tracemalloc, so the peak bounds what
        the algorithm allocates, not its time."""
        inst = random_instance(8, np.random.default_rng(160), BHS)
        sample_outcome(inst, 0)
        tracemalloc.start()
        try:
            sample_outcome(inst, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestStructuralInvariants:
    def test_phase_on_a_pair_only_rephases_collapsed_states(self):
        rng = np.random.default_rng(66)
        inst = random_instance(2, rng, BHF)
        theta = 0.93
        rotated_pairs = list(inst.channel.pairs)
        rotated_pairs[0] = EntangledPair(np.exp(1j * theta) * rotated_pairs[0].y)
        rotated = TeleportationInstance(
            inst.input_state, Channel(tuple(rotated_pairs)), BHF
        )
        for out in itertools.product((1, 2, 3, 4), repeat=2):
            base = collapsed_state(inst, out)
            turned = collapsed_state(rotated, out)
            assert turned.squared_norm() == pytest.approx(base.squared_norm(), abs=1e-12)
            if base.squared_norm() > 0:
                assert fidelity(base, turned) == pytest.approx(1.0, abs=1e-12)

    def test_mes_collapsed_states_are_scaled_pauli_actions(self):
        for conv in (BHF, BHS):
            inst = mes_instance(3, seed=67, convention=conv)
            for out in [(1, 1, 1), (2, 3, 4), (4, 2, 1), (3, 3, 3)]:
                pauli = reduce(np.kron, [PAULI_FOR_RESULT[r] for r in out])
                expected = (pauli @ inst.input_state.amps) / 2.0 ** 3
                np.testing.assert_allclose(
                    collapsed_state(inst, out).amps, expected, atol=1e-14
                )


def pair_with_abs_det(rng, abs_det: float) -> EntangledPair:
    """Unit-norm pair U diag(c, s) V with c*s = ``abs_det``, so |det| = ``abs_det``."""
    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    t = 0.5 * np.arcsin(2.0 * abs_det)
    return EntangledPair((unitary() @ np.diag([np.cos(t), np.sin(t)]) @ unitary()).reshape(-1))


def hard_instance(n: int, conv, seed: int) -> TeleportationInstance:
    """Random instance whose first pair is maximally entangled and last has |det| = 1e-6.

    With one pair, only the second holds.
    """
    rng = np.random.default_rng(seed)
    pairs = list(random_channel(n, rng).pairs)
    pairs[0] = mes_pair()
    pairs[-1] = pair_with_abs_det(rng, 1e-6)
    return TeleportationInstance(random_state(n, rng), Channel(tuple(pairs)), conv)


def degenerate_instance(n: int, conv, seed: int) -> TeleportationInstance:
    """First pair a product pair and first input qubit |1>: half the outcomes have p = 0."""
    rng = np.random.default_rng(seed)
    rest = random_state(n - 1, rng).amps if n > 1 else np.ones(1)
    state = StateVector(n, np.kron([0, 1], rest))
    pairs = [EntangledPair(np.array([1, 0, 0, 0], dtype=complex))]
    pairs += [random_pair(rng) for _ in range(n - 1)]
    return TeleportationInstance(state, Channel(tuple(pairs)), conv)


def phased_instance(n: int, conv, seed: int) -> TeleportationInstance:
    """Input and pair amplitudes each real or imaginary, of either sign, and every
    pair diagonal or antidiagonal: the collapsed states have zero parts of both signs."""
    rng = np.random.default_rng(seed)
    phases = np.array([1, -1, 1j, -1j])
    x = rng.uniform(0.2, 1.0, 2**n) * rng.choice(phases, 2**n)
    pairs = []
    for _ in range(n):
        y = np.zeros(4, dtype=complex)
        nonzero = [0, 3] if rng.random() < 0.5 else [1, 2]
        y[nonzero] = rng.uniform(0.2, 1.0, 2) * rng.choice(phases, 2)
        pairs.append(EntangledPair(y / np.linalg.norm(y)))
    return TeleportationInstance(StateVector(n, x / np.linalg.norm(x)), Channel(tuple(pairs)), conv)


def dense_collapsed(inst: TeleportationInstance, outcome) -> StateVector:
    """(1/sqrt2)^N times the materialized decomposition matrix applied to the input."""
    n = inst.num_qubits
    dm = decomposition_matrix(inst.channel, outcome, inst.convention)
    return StateVector(n, np.sqrt(0.5) ** n * (dm @ inst.input_state.amps))


def raw_table(inst: TeleportationInstance) -> tuple[np.ndarray, np.ndarray]:
    """The unnormalized collapsed states of all 4^N outcomes, as the table path of
    ``_outcome_chunks`` writes them, and their squared norms."""
    n = inst.num_qubits
    table = np.empty((4**n, 1 << n), dtype=complex)
    for _ in _outcome_chunks(inst, table, _CHECK_PAIRS):
        pass
    flat = table.view(np.float64)
    return table, np.einsum("ij,ij->i", flat, flat)


class TestOutcomeTable:
    """The one-pass table and the records built on it against dense matrix products."""

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_per_outcome_collapse_and_recovery(self, n, conv):
        inst = hard_instance(n, conv, seed=70 + n)
        table, probs = raw_table(inst)
        records = enumerate_outcomes(inst)
        assert table.shape == (4**n, 2**n) and probs.shape == (4**n,)
        outcomes = list(itertools.product((1, 2, 3, 4), repeat=n))
        assert [r.outcome for r in records] == outcomes
        for k, out in enumerate(outcomes):
            c = dense_collapsed(inst, out)
            np.testing.assert_allclose(table[k], c.amps, rtol=0, atol=1e-15)
            assert probs[k] == pytest.approx(c.squared_norm(), abs=1e-15)
            assert records[k].probability == pytest.approx(c.squared_norm(), abs=1e-15)
            np.testing.assert_allclose(
                records[k].collapsed.amps, c.normalized().amps, rtol=0, atol=1e-12
            )
            inverse = reduce(
                np.kron, [inverse_sub_matrix(p, r, conv) for p, r in zip(inst.channel.pairs, out)]
            )
            fid = fidelity(StateVector(n, inverse @ c.amps), inst.input_state)
            assert records[k].recovered_fidelity == pytest.approx(fid, abs=1e-12)
            assert records[k].invertible

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zero_probability_rows(self, n, conv):
        inst = degenerate_instance(n, conv, seed=80 + n)
        table, probs = raw_table(inst)
        records = enumerate_outcomes(inst)
        outcomes = itertools.product((1, 2, 3, 4), repeat=n)
        zero = 0
        for k, (out, rec) in enumerate(zip(outcomes, records)):
            c = dense_collapsed(inst, out)
            np.testing.assert_allclose(table[k], c.amps, rtol=0, atol=1e-15)
            assert probs[k] == pytest.approx(c.squared_norm(), abs=1e-15)
            assert rec.recovered_fidelity is None and not rec.invertible
            if out[0] in (1, 2):
                zero += 1
                assert rec.probability == 0.0
                assert np.array_equal(rec.collapsed.amps, np.zeros(2**n))
        assert zero == 2 * 4 ** (n - 1)
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-12)

    def test_records_are_read_only_views_of_one_table(self):
        inst = hard_instance(3, BHS, seed=90)
        records = enumerate_outcomes(inst)
        bases = {id(r.collapsed.amps.base) for r in records}
        assert len(bases) == 1
        table = records[0].collapsed.amps.base
        assert table.shape == (64, 8) and not table.flags.writeable
        for k, r in enumerate(records):
            assert np.shares_memory(r.collapsed.amps, table[k])
            assert not r.collapsed.amps.flags.writeable
        with pytest.raises(ValueError):
            records[5].collapsed.amps[0] = 1.0

    @staticmethod
    def fields(rec):
        """A record's fields, with the amplitudes as bytes so equality is bit for bit."""
        return (
            rec.outcome,
            rec.probability,
            rec.collapsed.amps.tobytes(),
            rec.recovered_fidelity,
            rec.invertible,
        )

    @pytest.mark.parametrize("make", [hard_instance, degenerate_instance, phased_instance])
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_rows_are_the_division_by_the_norm_bit_for_bit(self, n, conv, make):
        """Signed zeros included."""
        inst = make(n, conv, seed=110 + n)
        unnormalized, probs = raw_table(inst)
        with np.errstate(invalid="ignore"):
            expected = unnormalized / np.sqrt(probs)[:, None]
        expected[probs == 0.0] = 0.0
        assert enumerate_outcomes(inst).collapsed.tobytes() == expected.tobytes()
        if make is phased_instance and n == 5:
            # The division turns the sign of some zero parts, which scaling by
            # the reciprocal alone would keep.
            before, after = unnormalized.view(np.float64), expected.view(np.float64)
            assert (np.signbit(before) != np.signbit(after))[before == 0.0].any()

    @pytest.mark.parametrize("make", [hard_instance, degenerate_instance])
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_records_are_the_rows_of_the_arrays(self, n, conv, make):
        """Record k carries row k of each array, and its amplitudes are exactly the
        per-outcome ``collapsed_state`` divided by the square root of its probability."""
        inst = make(n, conv, seed=100 + n)
        table = enumerate_outcomes(inst)
        assert isinstance(table, Sequence) and len(table) == 4**n
        assert table.collapsed.shape == (4**n, 2**n)
        assert table.probabilities.shape == table.fidelities.shape == (4**n,)
        undefined = (table.probabilities == 0.0) | (not table.invertible)
        assert np.array_equal(np.isnan(table.fidelities), undefined)
        for k, out in enumerate(itertools.product((1, 2, 3, 4), repeat=n)):
            rec = table[k]
            p = table.probabilities[k]
            c = collapsed_state(inst, out).amps
            expected = c / math.sqrt(p) if p > 0.0 else np.zeros_like(c)
            assert rec.outcome == out
            assert type(rec.probability) is float and rec.probability == p
            assert np.array_equal(rec.collapsed.amps, expected)
            assert np.array_equal(table.collapsed[k], expected)
            assert (rec.recovered_fidelity is None) == bool(np.isnan(table.fidelities[k]))
            if rec.recovered_fidelity is not None:
                assert rec.recovered_fidelity == table.fidelities[k]
            assert rec.invertible == table.invertible

    @pytest.mark.parametrize("make", [hard_instance, degenerate_instance])
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_iteration_and_indexing_give_equal_records(self, n, conv, make):
        table = enumerate_outcomes(make(n, conv, seed=110 + n))
        records = [self.fields(r) for r in table]
        assert len(records) == len(table)
        for k, rec in enumerate(records):
            assert self.fields(table[k]) == rec
            assert self.fields(table[np.int64(k)]) == rec
            assert self.fields(table[k - len(table)]) == rec
        assert self.fields(table[-1]) == records[-1]
        for k in (len(table), -len(table) - 1):
            with pytest.raises(IndexError):
                table[k]

    @pytest.mark.parametrize("make", [hard_instance, degenerate_instance])
    def test_records_are_found_by_value(self, make):
        """``index``, ``in`` and ``count`` compare records field by field, amplitudes
        included, so each finds the one record of its outcome."""
        table = enumerate_outcomes(make(3, BHS, seed=122))
        assert table.index(table[3]) == 3
        assert table[3] in table
        assert table.count(table[3]) == 1
        assert dataclasses.replace(table[3], probability=0.5) not in table

    def test_arrays_are_read_only(self):
        table = enumerate_outcomes(hard_instance(2, BHF, seed=120))
        for a in (table.probabilities, table.collapsed, table.fidelities):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.invertible = False

    def test_without_recovery_every_fidelity_is_undefined(self):
        table = enumerate_outcomes(hard_instance(2, BHS, seed=121), compute_recovery=False)
        assert table.invertible and np.isnan(table.fidelities).all()
        assert all(r.recovered_fidelity is None for r in table)

    def test_seed_to_outcome_mapping_matches_per_outcome_probabilities(self):
        """The draw inverts the same cumulative distribution the per-outcome path gives."""
        for n, conv in [(1, BHF), (2, BHS), (3, BHF)]:
            inst = hard_instance(n, conv, seed=91 + n)
            outcomes = list(itertools.product((1, 2, 3, 4), repeat=n))
            cum = np.cumsum([collapsed_state(inst, out).squared_norm() for out in outcomes])
            for seed in range(50):
                u = np.random.default_rng(seed).random() * cum[-1]
                expected = outcomes[int(np.searchsorted(cum, u, side="right"))]
                assert sample_outcome(inst, seed) == expected

    def test_sampling_respects_the_cap(self):
        n = 9
        state = StateVector(n, np.eye(1 << n)[0])
        ch = Channel(tuple(mes_pair() for _ in range(n)))
        with pytest.raises(ValueError):
            sample_outcome(TeleportationInstance(state, ch, BHS), 0)


def recovery_fidelities(inst: TeleportationInstance, collapsed: np.ndarray) -> np.ndarray:
    """``_fidelity_rows`` of every chunk of the rows of ``collapsed``."""
    z = np.empty((_chunk_rows(inst.num_qubits, _TABLE_PAIRS), collapsed.shape[1]), dtype=complex)
    return np.concatenate([
        _fidelity_rows(inst, collapsed[rows], framed, z)
        for rows, framed in _chunk_frames(inst.input_state.amps.conj())
    ])


class TestRecoveryKernel:
    """The table's fidelities: one product with the shared inverse W per chunk, read
    against the input in each outcome's Pauli frame."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_chunk_frames_are_the_pauli_products(self, n):
        """Frame k of each chunk is Sigma_r x for the outcome r of row k, bit for bit.

        Up to N = 4 one chunk is the whole table and every row is checked; at
        N = 5, 6 and 7 one kept gather index serves 4, 4 and 16 chunks, and a
        few rows of each are checked."""
        x = random_state(n, np.random.default_rng(130 + n)).amps
        outcomes = list(itertools.product(range(4), repeat=n))
        covered = []
        for rows, framed in _chunk_frames(x):
            size = len(framed)
            ks = range(size) if n <= 4 else sorted({0, 1, size // 3, size - 2, size - 1})
            for k in ks:
                r = outcomes[rows.start + k]
                sigma = reduce(np.kron, SIGMA[list(r)])
                assert np.array_equal(framed[k].reshape(-1), sigma @ x), r
            covered += range(4**n)[rows]
        assert covered == list(range(4**n))

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_recovery_reads_every_row(self, conv):
        """Changing one amplitude of one row changes that row's fidelity alone."""
        inst = hard_instance(3, conv, seed=140)
        table = enumerate_outcomes(inst)
        for k in (0, 37, 63):
            collapsed = table.collapsed.copy()
            collapsed[k, 5] += 0.25
            fids = recovery_fidelities(inst, collapsed)
            assert fids[k] < 1.0 - 1e-3
            others = np.arange(len(fids)) != k
            assert np.array_equal(fids[others], table.fidelities[others])

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_six_qubit_fidelities_match_recover(self, conv):
        inst = hard_instance(6, conv, seed=150)
        table = enumerate_outcomes(inst)
        for k, out in enumerate(itertools.product((1, 2, 3, 4), repeat=6)):
            _, fid = recover(collapsed_state(inst, out), inst, out)
            assert abs(table.fidelities[k] - fid) <= 1e-12, out


def outcome_at(k: int, n: int):
    """The k-th outcome in lexicographic order of the per-pair results."""
    return tuple(int(d) + 1 for d in np.unravel_index(k, (4,) * n))


def table_probabilities(inst: TeleportationInstance) -> np.ndarray:
    """The Born probabilities of the table's rows, a chunk of rows at a time."""
    probs = []
    for _, rows in _outcome_chunks(inst, None, _CHECK_PAIRS):
        flat = rows.view(np.float64)
        probs.append(np.einsum("ij,ij->i", flat, flat))
    return np.concatenate(probs)


OUTCOMES = {n: list(itertools.product((1, 2, 3, 4), repeat=n)) for n in range(1, 7)}


def assert_rows_are_collapsed_states(inst: TeleportationInstance) -> np.ndarray:
    """Every row ``_outcome_chunks`` writes into a table, and every row it yields
    without one, from a deeper level, is ``collapsed_state`` of its outcome byte for
    byte; the table is returned."""
    n = inst.num_qubits
    states = [collapsed_state(inst, out).amps.tobytes() for out in OUTCOMES[n]]
    table, _ = raw_table(inst)
    for k, row in enumerate(table):
        assert row.tobytes() == states[k], outcome_at(k, n)
    for rows, predicted in _outcome_chunks(inst, None, _CHECK_PAIRS):
        for k, row in zip(range(rows.start, rows.stop), predicted):
            assert row.tobytes() == states[k], outcome_at(k, n)
    return table


# Pairs whose blocks have exact zero parts of both signs: (1, 0, 0, -i) holds -1j,
# which is complex(-0.0, -1.0), and the last has a -0.0 in each of its four.
ZERO_HEAVY_PAIRS = [
    np.array([1, 0, 0, 1]) / math.sqrt(2),
    np.array([1, 0, 0, -1j]) / math.sqrt(2),
    np.array([0.8, 0, 0, 0.6]),
    np.array([0.5, 0.5, 0.5, -0.5]),
    np.array([complex(0.6, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.8)]),
]


def zero_heavy_inputs(n: int) -> list[np.ndarray]:
    """|0...0>, -i|1...1> and the uniform state on n qubits."""
    first, last = np.zeros((2, 1 << n), dtype=complex)
    first[0], last[-1] = 1.0, -1j
    return [first, last, np.full(1 << n, math.sqrt(0.5) ** n, dtype=complex)]


# A part of a zero-heavy pair or input: an exact zero of either sign, +-1/sqrt2 or
# any float in [-1, 1].
ZERO_HEAVY_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, math.sqrt(0.5), -math.sqrt(0.5)]),
    st.floats(min_value=-1.0, max_value=1.0),
)


@st.composite
def zero_heavy_instances(draw) -> TeleportationInstance:
    """N <= 5; each pair and the input built from ``ZERO_HEAVY_PARTS``, then divided by
    their norm part by part, which keeps each zero's sign."""
    n = draw(st.integers(min_value=1, max_value=5))

    def unit(size: int) -> np.ndarray:
        parts = np.array(draw(st.lists(ZERO_HEAVY_PARTS, min_size=2 * size, max_size=2 * size)))
        norm = math.sqrt(parts @ parts)
        assume(norm > 1e-6)
        return (parts / norm).view(complex)

    pairs = tuple(EntangledPair(unit(4)) for _ in range(n))
    conv = draw(st.sampled_from([BHF, BHS]))
    return TeleportationInstance(StateVector(n, unit(1 << n)), Channel(pairs), conv)


class TestOneOutcomeIsTheTableArithmetic:
    """``collapsed_state`` applies each pair's coefficient matrix M with the table
    kernel's own steps, M's columns times the halves of its input, then an add or a
    subtract, and must give each table row bit for bit, the signs of exact zeros
    included: numpy's complex multiply is not bit for bit symmetric in its operands,
    and a length-1 shape at n = 1 may take another loop.  ``recover`` applies the
    inverse blocks with the same step, and the sampler the blocks B_r = M sigma_r,
    whose products are the table's up to the signs of exact zeros."""

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_heavy_rows_are_the_collapsed_states(self, n, conv):
        """Every input of ``zero_heavy_inputs`` through each pair of
        ``ZERO_HEAVY_PAIRS`` repeated, and through all five in turn."""
        channels = [[p] * n for p in ZERO_HEAVY_PAIRS]
        channels.append([ZERO_HEAVY_PAIRS[i % 5] for i in range(n)])
        for x in zero_heavy_inputs(n):
            for pairs in channels:
                channel = Channel(tuple(map(EntangledPair, pairs)))
                assert_rows_are_collapsed_states(TeleportationInstance(StateVector(n, x), channel, conv))

    @settings(max_examples=40, deadline=None)
    @given(zero_heavy_instances())
    def test_rows_are_the_collapsed_states_and_the_dense_product(self, inst):
        """Each row is also within 1e-12 of the outcome's decomposition matrix applied
        to the input, over 2^(N/2)."""
        n = inst.num_qubits
        table = assert_rows_are_collapsed_states(inst)
        x = inst.input_state.amps * math.sqrt(0.5) ** n
        for out, row in zip(OUTCOMES[n], table):
            dense = decomposition_matrix(inst.channel, out, inst.convention) @ x
            assert np.abs(row - dense).max() <= 1e-12, out

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_collapsed_state_is_the_table_row(self, n, conv):
        """The rows ``_outcome_chunks`` yields are those it writes into the table."""
        inst = random_instance(n, np.random.default_rng(180 + n), conv)
        for rows, predicted in _outcome_chunks(inst, None, _CHECK_PAIRS):
            for k in {0, len(predicted) // 3, len(predicted) - 1}:
                out = outcome_at(rows.start + k, n)
                assert collapsed_state(inst, out).amps.tobytes() == predicted[k].tobytes(), out

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_recovery_is_the_pair_by_pair_arithmetic(self, n, conv):
        """``recover`` applies each pair's inverse block as fl(B[b, 0] t0) + fl(B[b, 1] t1),
        block first, then divides by ``np.linalg.norm``; its fidelity is that of
        ``fidelity``.  Every outcome up to n = 3, 24 seeded ones above."""
        rng = np.random.default_rng(300 + n)
        inst = random_instance(n, rng, conv)
        x = inst.input_state.amps
        if n <= 3:
            outcomes = list(itertools.product((1, 2, 3, 4), repeat=n))
        else:
            outcomes = [tuple(int(r) for r in rng.integers(1, 5, n)) for _ in range(24)]
        for out in outcomes:
            collapsed = collapsed_state(inst, out)
            t = collapsed.amps
            for p, r in zip(inst.channel.pairs, out):
                b = inverse_pair_blocks(p, conv)[r - 1]
                t0, t1 = t.reshape(2, -1)
                t = np.stack([b[j, 0] * t0 + b[j, 1] * t1 for j in (0, 1)], axis=1).reshape(-1)
            t = t / np.linalg.norm(t)
            overlap = np.vdot(t, x)
            fid = min(1.0, float(abs(overlap) ** 2 / (np.vdot(t, t).real * np.vdot(x, x).real)))
            recovered, f = recover(collapsed, inst, out)
            assert recovered.amps.tobytes() == t.tobytes(), out
            assert f.hex() == fid.hex(), out

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_draw_step_is_the_pair_arithmetic(self, n, conv):
        """The sampler's step gives child k the amplitudes fl(B_k[b, 0] t0) +
        fl(B_k[b, 1] t1), block first, for each pair's (4, 2, 2) stack."""
        rng = np.random.default_rng(320 + n)
        inst = random_instance(n, rng, conv)
        children = np.empty((1 << (n - 1), 4, 2), dtype=complex)
        for i, p in enumerate(inst.channel.pairs):
            stack = pair_blocks(p, conv)
            t = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            _apply_blocks(inst._blocks[i], t, children)
            t0, t1 = t.reshape(2, -1)
            for k, b in enumerate(stack):
                for j in (0, 1):
                    expected = b[j, 0] * t0 + b[j, 1] * t1
                    assert children[:, k, j].tobytes() == expected.tobytes(), (i, k, j)

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_draws_are_the_inverse_cdf_of_the_table(self, n, conv):
        inst = random_instance(n, np.random.default_rng(190 + n), conv)
        reference = InverseCdf(inst, table_probabilities(inst))
        for seed in range(40):
            assert sample_outcome(inst, seed) == reference.draw(seed)


class TestChunkPlans:
    """The table passes and the oracle's walks cut the outcomes into chunks of different
    sizes, from levels of different depths; both are performance choices and must not
    change a bit.  ``cross_check`` walks chunks of 4^``_CHECK_PAIRS`` rows and
    ``verify_instance`` of 4^``_TABLE_PAIRS``, the table's, without a table."""

    @pytest.mark.parametrize("pairs", [_CHECK_PAIRS, _TABLE_PAIRS])
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_chunks_without_a_table_are_the_table_rows(self, n, conv, pairs):
        """The chunks tile the outcomes in order, each of ``_chunk_rows`` rows, and
        hold the table's rows byte for byte."""
        inst = random_instance(n, np.random.default_rng(230 + n), conv)
        table, _ = raw_table(inst)
        covered = 0
        for rows, predicted in _outcome_chunks(inst, None, pairs):
            assert rows.start == covered and len(predicted) == _chunk_rows(n, pairs)
            assert predicted.tobytes() == table[rows].tobytes(), rows
            covered = rows.stop
        assert covered == 4**n

    @pytest.mark.parametrize("n", [6, 7])
    def test_table_build_scratch_is_at_most_one_chunk(self, n):
        """Beyond the 16 * 8^N-byte table it writes into, the table path of
        ``_outcome_chunks`` allocates at most one 4^5-row chunk, 16 * 4^5 * 2^N bytes:
        half a chunk of products and two state buffers, a quarter and a sixteenth of
        a chunk.  numpy reports its allocations to tracemalloc."""
        inst = random_instance(n, np.random.default_rng(245 + n), BHS)
        table, _ = raw_table(inst)
        tracemalloc.start()
        try:
            for _ in _outcome_chunks(inst, table, _TABLE_PAIRS):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 4**5 << n

    @pytest.mark.parametrize("pairs", [_CHECK_PAIRS, _TABLE_PAIRS])
    @pytest.mark.parametrize("n", [6, 7])
    def test_walk_without_a_table_holds_at_most_three_chunks(self, n, pairs):
        """Consuming ``_outcome_chunks`` without a table holds at most three chunks of
        4^pairs rows, 16 * 4^pairs * 2^N bytes, and numpy's iterator buffers.  The
        chunks: the shared level of the first pairs, one chunk at these N; the chunk
        buffer, one; at most two step buffers, a quarter and a sixteenth; and the last
        step's products, half a chunk: 2 13/16, and the last 3/16 covers the arrays'
        headers.  numpy 2 buffers operands of a ufunc call of at most
        ``np.getbufsize()`` elements, up to two complex operands at once in a step.
        numpy reports its allocations to tracemalloc."""
        inst = random_instance(n, np.random.default_rng(250 + n), BHS)
        for _ in _outcome_chunks(inst, None, pairs):
            pass
        tracemalloc.start()
        try:
            for _ in _outcome_chunks(inst, None, pairs):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (16 * 4**pairs << n) + 2 * 16 * np.getbufsize()

    @pytest.mark.parametrize(
        "pairs, n, unwritten",
        [(_CHECK_PAIRS, 5, (4, 16)), (_CHECK_PAIRS, 6, (16,)), (_TABLE_PAIRS, 6, (4, 16)), (_TABLE_PAIRS, 7, (16,))],
    )
    def test_walk_allocates_only_the_step_buffers_it_writes(self, pairs, n, unwritten):
        """Without a table, a chunk of the last ``pairs`` + 1 pairs' outcomes takes two
        pair steps and writes only the quarter-chunk buffer, and a chunk of all but the
        first ``pairs`` takes one step and writes neither, so no block of a quarter or a
        sixteenth of a chunk that no step writes is live while the walk runs.  numpy
        reports its allocations to tracemalloc; the other blocks ``protocol``
        allocates are the level, the chunk buffer, the written step buffer and the
        scaled input, none of those sizes."""
        inst = random_instance(n, np.random.default_rng(255 + n), BHS)
        chunk = 16 * 4**pairs << n
        tracemalloc.start()
        try:
            walk = _outcome_chunks(inst, None, pairs)
            next(walk)
            walked = tracemalloc.Filter(True, _outcome_chunks.__code__.co_filename)
            traces = tracemalloc.take_snapshot().filter_traces([walked]).traces
        finally:
            tracemalloc.stop()
        sizes = {trace.size for trace in traces}
        assert chunk in sizes
        assert not sizes & {chunk // part for part in unwritten}

    @pytest.mark.parametrize("n", [6, 7])
    def test_table_scratch_is_at_most_three_chunks(self, n):
        """Beyond the 16 * 8^N-byte table, ``enumerate_outcomes`` holds at most three
        buffers of one 4^5-row chunk (16 * 4^5 * 2^N bytes) at a time, its probabilities
        and fidelities included.  The build holds 13/16 of a chunk; the recovery
        pass holds a chunk for the product with W and one for the frames; their
        gather index, half a chunk, is kept per N from the first call.  numpy reports
        its allocations to tracemalloc, so the peak bounds what the table path
        allocates, and so its share of the peak RSS."""
        inst = random_instance(n, np.random.default_rng(240 + n), BHS)
        enumerate_outcomes(inst)
        tracemalloc.start()
        try:
            enumerate_outcomes(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8**n + 3 * (16 * 4**5 << n)


class TestInstanceCaches:
    """An instance builds its blocks, determinants and inverse blocks once and keeps
    them.  They must be the per-pair builders' values bit for bit, read-only, and
    never a verdict: every call judges invertibility with its own tolerance."""

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_stacks_are_the_per_pair_blocks(self, conv):
        """Pair i's entry of each kept block stack, read back as [r - 1, b, a], is its
        ``pair_blocks`` or ``inverse_pair_blocks``, and its entry of the coefficient
        stack, read back as [b, a], its coefficient matrix M, the block for r = 1."""
        inst = random_instance(8, np.random.default_rng(200), conv)
        for i, p in enumerate(inst.channel.pairs):
            blocks, inverses = pair_blocks(p, conv), inverse_pair_blocks(p, conv)
            assert inst._blocks[i, :, 0].transpose(1, 2, 0).tobytes() == blocks.tobytes()
            m = inst._coefficients[i, ..., 0].T
            assert m.tobytes() == _coefficient_matrix(p, conv).tobytes() == blocks[0].tobytes()
            step = inst._inverse_step_blocks[i, ..., 0].transpose(0, 2, 1)
            assert step.tobytes() == inverses.tobytes()
            # sigma_1 = I, so the first inverse block is M^-1 itself.
            m_inv = _inverse_coefficient_matrix(p, conv, 0.0)
            assert step[0].tobytes() == m_inv.tobytes()
            assert inst._determinants[i] == pair_determinant(p)
        for stack in (inst._blocks, inst._coefficients, inst._inverse_step_blocks):
            assert not stack.flags.writeable
        assert inst._blocks is inst._blocks

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_step_layouts_are_copies_of_the_stacks(self, conv):
        """Each kernel reads its stack input index first, as a C-ordered copy: 256 * N
        bytes for each block stack and 64 * N for the coefficient matrices."""
        inst = random_instance(4, np.random.default_rng(205), conv)
        blocks = np.stack([pair_blocks(p, conv) for p in inst.channel.pairs])
        inverses = np.stack([inverse_pair_blocks(p, conv) for p in inst.channel.pairs])
        ms = np.stack([_coefficient_matrix(p, conv) for p in inst.channel.pairs])
        layouts = [
            (inst._blocks, blocks.transpose(0, 3, 1, 2)[:, :, None], 256),
            (inst._coefficients, ms.transpose(0, 2, 1)[..., None], 64),
            (inst._inverse_step_blocks, inverses.transpose(0, 1, 3, 2)[..., None], 256),
        ]
        for layout, expected, bytes_per_pair in layouts:
            assert layout.shape == expected.shape
            assert layout.flags.c_contiguous and not layout.flags.writeable
            assert layout.tobytes() == expected.tobytes()
            assert layout.nbytes == bytes_per_pair * inst.num_qubits
        assert inst._coefficients is inst._coefficients

    def test_a_second_tolerance_gets_its_own_verdict(self):
        t = 0.5 * math.asin(2e-3)  # |det| = cos t sin t = 1e-3
        ch = Channel((mes_pair(), diagonal_pair(math.cos(t), math.sin(t))))
        inst = TeleportationInstance(random_state(2, np.random.default_rng(210)), ch, BHS)
        out = (1, 3)
        c = collapsed_state(inst, out)
        _, fid = recover(c, inst, out, tol=0)
        assert fid == pytest.approx(1.0, abs=1e-12)
        det = abs(pair_determinant(ch.pairs[1]))
        with pytest.raises(NotInvertibleError) as err:
            recover(c, inst, out, tol=det)
        assert err.value.pair_indices == (2,)
        assert not enumerate_outcomes(inst, tol=det).invertible

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
    def test_bad_tolerance_after_the_caches_are_built(self, tol):
        inst = hard_instance(2, BHS, seed=170)
        c = collapsed_state(inst, (1, 2))
        recover(c, inst, (1, 2))
        enumerate_outcomes(inst)
        for call in (lambda: recover(c, inst, (1, 2), tol), lambda: enumerate_outcomes(inst, tol)):
            with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
                call()


class TestRecoveryCaches:
    """The recovery pass keeps two constants: the frames' gather index per N
    (``_frame_gather``) and W^T per instance (``_recovery_matrix``).  Neither may change
    a bit of the table, and neither may be written through."""

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_cold_and_warm_caches_give_the_same_bytes(self, n, conv):
        inst = random_instance(n, np.random.default_rng(260 + n), conv)
        _frame_gather.cache_clear()
        cold = enumerate_outcomes(inst)
        assert "_recovery_matrix" in vars(inst)
        warm = enumerate_outcomes(inst)
        for name in ("collapsed", "probabilities", "fidelities"):
            assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes(), name

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_recovery_matrix_is_the_kron_of_the_inverses(self, n, conv):
        """W^T is the transpose of the C-ordered M_1^-1 (x) ... (x) M_N^-1, so the
        matrix product reads it in Fortran order."""
        inst = random_instance(n, np.random.default_rng(270 + n), conv)
        w_t = inst._recovery_matrix
        w = reduce(np.kron, [inverse_pair_blocks(p, conv)[0] for p in inst.channel.pairs])
        assert w_t.tobytes() == w.T.tobytes()
        assert w_t.flags.f_contiguous
        assert w_t is inst._recovery_matrix
        assert not w_t.flags.writeable

    def test_the_instance_keeps_five_read_only_values(self):
        """After every kind of call, the instance holds its three fields and five cached
        values, no other, and none of them may be written through."""
        inst = random_instance(3, np.random.default_rng(275), BHS)
        enumerate_outcomes(inst)
        w_t = inst._recovery_matrix
        before = w_t.tobytes()
        out = sample_outcome(inst, 0)
        recover(collapsed_state(inst, out), inst, out)
        fields = {f.name for f in dataclasses.fields(inst)}
        cached = {
            "_blocks", "_coefficients", "_determinants", "_inverse_step_blocks",
            "_recovery_matrix",
        }
        assert set(vars(inst)) == fields | cached
        assert isinstance(inst._determinants, tuple)
        for name in cached - {"_determinants"}:
            assert not getattr(inst, name).flags.writeable, name
        assert inst._recovery_matrix is w_t
        assert w_t.tobytes() == before
        assert w_t.flags.f_contiguous

    def test_gather_is_read_only_and_shared_per_qubit_count(self):
        _frame_gather.cache_clear()
        a, b = (random_instance(5, np.random.default_rng(seed), BHS) for seed in (280, 281))
        enumerate_outcomes(a)
        before = _frame_gather.cache_info()
        enumerate_outcomes(b)
        after = _frame_gather.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        gather = _frame_gather(5)
        assert not gather.flags.writeable
        with pytest.raises(ValueError):
            gather[0, 0, 0] = 0

    def test_gather_cache_holds_at_most_one_entry_per_enumerable_size(self):
        _frame_gather.cache_clear()
        for n in [*range(1, ENUMERATION_CAP + 1), 6, 1]:
            _frame_gather(n)
        info = _frame_gather.cache_info()
        assert info.maxsize == info.currsize == ENUMERATION_CAP
        assert info.hits == 2

    def test_non_invertible_instance_leaves_the_recovery_matrix_unbuilt(self):
        product = EntangledPair(np.array([1, 0, 0, 0], dtype=complex))
        ch = Channel((mes_pair(), product))
        inst = TeleportationInstance(random_state(2, np.random.default_rng(290)), ch, BHS)
        assert not enumerate_outcomes(inst).invertible
        assert "_recovery_matrix" not in vars(inst)
        # Invertible at tol = 0, but not at the determinant's own magnitude.
        t = 0.5 * math.asin(2e-3)
        ch = Channel((mes_pair(), diagonal_pair(math.cos(t), math.sin(t))))
        inst = TeleportationInstance(random_state(2, np.random.default_rng(291)), ch, BHS)
        assert not enumerate_outcomes(inst, tol=abs(pair_determinant(ch.pairs[1]))).invertible
        assert "_recovery_matrix" not in vars(inst)
        assert enumerate_outcomes(inst, tol=0).invertible
        assert "_recovery_matrix" in vars(inst)


BAD_TOLERANCES = [-1.0, -1e-300, math.nan, math.inf, -math.inf, True, "1e-9", None]


class TestToleranceIsChecked:
    """A negative tolerance passes singular pairs and a NaN one fails every pair, so each
    function that decides invertibility refuses any tolerance but a finite number >= 0."""

    @pytest.mark.parametrize("tol", BAD_TOLERANCES)
    def test_bad_tolerance_raises_value_error(self, tol):
        inst = hard_instance(2, BHS, seed=170)
        c = collapsed_state(inst, (1, 2))
        calls = [
            lambda: channel_criterion(inst.channel, tol),
            lambda: enumerate_outcomes(inst, tol),
            lambda: enumerate_outcomes(inst, tol, compute_recovery=False),
            lambda: recover(c, inst, (1, 2), tol),
            lambda: inverse_pair_blocks(inst.channel.pairs[0], BHS, tol),
            lambda: inverse_sub_matrix(inst.channel.pairs[0], 1, BHS, tol),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
                call()

    @pytest.mark.parametrize("tol", [0, 0.0, np.float64(1e-9), np.int64(0), 1e300])
    def test_finite_non_negative_tolerances_are_accepted(self, tol):
        product = EntangledPair(np.array([1, 0, 0, 0], dtype=complex))
        report = channel_criterion(Channel((mes_pair(), product)), tol)
        assert report.failed_pairs == ((2,) if tol < 1e300 else (1, 2))
