"""Tests for collapsed states, probabilities, recovery, enumeration and sampling."""

import dataclasses
import itertools
import math
from collections.abc import Sequence
from functools import reduce

import numpy as np
import pytest

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
    random_channel,
    random_instance,
    random_pair,
    random_state,
    recover,
    sample_outcome,
)
from belldecomp.channel import NORM_WARN_TOL
from belldecomp.protocol import _outcome_table

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
            expected = (dm.matrix @ inst.input_state.amps) * np.sqrt(0.5) ** 3
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

    def test_fidelity_independent_of_collapsed_scale(self):
        inst = random_instance(1, np.random.default_rng(59), BHF)
        c = collapsed_state(inst, (2,))
        _, fid_raw = recover(c, inst, (2,))
        _, fid_scaled = recover(StateVector(1, 5.0 * c.amps), inst, (2,))
        assert fid_raw == pytest.approx(fid_scaled, abs=1e-14)


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

    def test_partially_entangled_pair_is_invertible_but_not_unitary(self):
        report = channel_criterion(Channel((diagonal_pair(0.8, 0.6),)))
        assert report.success
        d = report.pairs[0]
        assert d.invertible
        assert not d.unitary_proportional
        assert d.unitary_scale is None
        assert d.determinant == pytest.approx(0.48, abs=1e-15)
        assert d.concurrence == pytest.approx(0.96, abs=1e-15)


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


def dense_collapsed(inst: TeleportationInstance, outcome) -> StateVector:
    """(1/sqrt2)^N times the materialized decomposition matrix applied to the input."""
    n = inst.num_qubits
    dm = decomposition_matrix(inst.channel, outcome, inst.convention)
    return StateVector(n, np.sqrt(0.5) ** n * (dm.matrix @ inst.input_state.amps))


class TestOutcomeTable:
    """The one-pass table and the records built on it against dense matrix products."""

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_per_outcome_collapse_and_recovery(self, n, conv):
        inst = hard_instance(n, conv, seed=70 + n)
        table, probs = _outcome_table(inst)
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
        table, probs = _outcome_table(inst)
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
