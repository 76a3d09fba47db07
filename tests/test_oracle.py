"""Tests for the brute-force joint-state oracle and the cross check."""

import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from belldecomp import (
    DEFAULT_EQ_TOL,
    Channel,
    EntangledPair,
    OutcomeTable,
    PairingConvention,
    StateVector,
    TeleportationInstance,
    bell_project,
    bell_state,
    collapsed_state,
    cross_check,
    enumerate_outcomes,
    joint_state,
    random_instance,
    random_state,
    rearrange_for_measurement,
)
from belldecomp import oracle
from belldecomp.oracle import (
    _BELL_BRAS,
    ORACLE_CAP,
    _cross_check,
    _measurement_state,
    _project,
    _reconstruction_diff,
)
from belldecomp.protocol import _chunks, _outcome_table

BHF = PairingConvention.BOB_HOLDS_FIRST
BHS = PairingConvention.BOB_HOLDS_SECOND


def mes_pair() -> EntangledPair:
    return EntangledPair(np.array([1, 0, 0, 1]) / np.sqrt(2))


def diagonal_pair(c0: float, c3: float) -> EntangledPair:
    return EntangledPair(np.array([c0, 0.0, 0.0, c3], dtype=complex))


class TestJointState:
    def test_single_qubit_zero_input_with_mes(self):
        """|0> through one MES pair: (|000> + |011>)/sqrt2."""
        inst = TeleportationInstance(
            StateVector(1, np.array([1, 0], dtype=complex)), Channel((mes_pair(),)), BHS
        )
        js = joint_state(inst)
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = expected[0b011] = 1 / np.sqrt(2)
        np.testing.assert_allclose(js.amps, expected, atol=1e-15)

    def test_amplitudes_are_products(self):
        rng = np.random.default_rng(70)
        x = random_state(1, rng)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y /= np.linalg.norm(y)
        inst = TeleportationInstance(x, Channel((EntangledPair(y),)), BHF)
        js = joint_state(inst)
        expected = np.array([x.amps[i] * y[j] for i in range(2) for j in range(4)])
        np.testing.assert_allclose(js.amps, expected, atol=1e-15)

    def test_norm_one_for_normalized_inputs(self):
        inst = random_instance(3, np.random.default_rng(71), BHS)
        assert joint_state(inst).squared_norm() == pytest.approx(1.0, abs=1e-12)

    def test_cap(self):
        n = ORACLE_CAP + 1
        state = StateVector(n, np.eye(1 << n)[0])
        ch = Channel(tuple(mes_pair() for _ in range(n)))
        inst = TeleportationInstance(state, ch, BHS)
        for build in (joint_state, _measurement_state, cross_check):
            with pytest.raises(ValueError, match=f"supports at most {ORACLE_CAP} qubit"):
                build(inst)


def with_product_pair(inst: TeleportationInstance) -> TeleportationInstance:
    """``inst`` with its last pair replaced by the product state |00>."""
    pairs = inst.channel.pairs[:-1] + (EntangledPair(np.eye(4)[0]),)
    return TeleportationInstance(inst.input_state, Channel(pairs), inst.convention)


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of a complex array: equal bits are equal values, signed zeros included."""
    return a.view(np.uint64)


class TestMeasurementState:
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_is_the_rearranged_joint_state_bit_for_bit(self, n, conv):
        rng = np.random.default_rng(90 + n)
        for inst in (random_instance(n, rng, conv), with_product_pair(random_instance(n, rng, conv))):
            expected = rearrange_for_measurement(joint_state(inst), inst).amps
            got = _measurement_state(inst)
            assert got.shape == expected.shape == (1 << (3 * n),)
            assert np.array_equal(bits(got), bits(expected))


class TestRearrangeForMeasurement:
    def test_receiver_holds_second_keeps_order_for_one_qubit(self):
        inst = random_instance(1, np.random.default_rng(72), BHS)
        js = joint_state(inst)
        assert np.array_equal(rearrange_for_measurement(js, inst).amps, js.amps)

    def test_receiver_holds_first_swaps_pair_halves(self):
        inst = random_instance(1, np.random.default_rng(73), BHF)
        js = joint_state(inst)
        rs = rearrange_for_measurement(js, inst)
        expected = js.amps.reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
        assert np.array_equal(rs.amps, expected)

    def test_two_qubit_interleaving(self):
        """Measured pairs come first as (input_i, sender half_i), receiver last."""
        inst = random_instance(2, np.random.default_rng(74), BHS)
        js = joint_state(inst)
        rs = rearrange_for_measurement(js, inst)
        # joint order: (in1, in2, p1a, p1b, p2a, p2b); measurement order under
        # receiver-holds-second: (in1, p1a, in2, p2a, p1b, p2b)
        expected = js.amps.reshape((2,) * 6).transpose(0, 2, 1, 4, 3, 5).reshape(-1)
        assert np.array_equal(rs.amps, expected)
        assert rs.squared_norm() == pytest.approx(js.squared_norm(), rel=1e-14)

    def test_makes_one_contiguous_copy(self):
        inst = random_instance(5, np.random.default_rng(76), BHF)
        js = joint_state(inst)
        tracemalloc.start()
        try:
            rs = rearrange_for_measurement(js, inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rs.amps.flags.c_contiguous
        assert not np.shares_memory(rs.amps, js.amps)
        assert rs.amps.nbytes <= peak < 1.5 * rs.amps.nbytes

    def test_qubit_count_checked(self):
        inst = random_instance(2, np.random.default_rng(75), BHS)
        wrong = StateVector(3, np.eye(8)[0])
        with pytest.raises(ValueError):
            rearrange_for_measurement(wrong, inst)


class TestBellProject:
    def test_single_qubit_mes_first_result(self):
        rng = np.random.default_rng(76)
        x = random_state(1, rng)
        inst = TeleportationInstance(x, Channel((mes_pair(),)), BHS)
        rs = rearrange_for_measurement(joint_state(inst), inst)
        residual = bell_project(rs, (1,))
        np.testing.assert_allclose(residual.amps, x.amps / 2.0, atol=1e-15)

    def test_residual_norms_resolve_the_state(self):
        inst = random_instance(2, np.random.default_rng(77), BHF)
        rs = rearrange_for_measurement(joint_state(inst), inst)
        total = sum(
            bell_project(rs, out).squared_norm()
            for out in itertools.product((1, 2, 3, 4), repeat=2)
        )
        assert total == pytest.approx(rs.squared_norm(), abs=1e-12)

    def test_three_qubit_diagonal_channel_pattern(self):
        """Same bit-product pattern as the block prediction, oracle side only."""
        rng = np.random.default_rng(78)
        x = random_state(3, rng)
        coeffs = [(0.9, np.sqrt(1 - 0.81)), (0.8, 0.6), (0.7, np.sqrt(1 - 0.49))]
        ch = Channel(tuple(diagonal_pair(a, b) for a, b in coeffs))
        inst = TeleportationInstance(x, ch, BHF)
        rs = rearrange_for_measurement(joint_state(inst), inst)
        residual = bell_project(rs, (1, 1, 1))
        expected = np.empty(8, dtype=complex)
        for k in range(8):
            bits = [(k >> 2) & 1, (k >> 1) & 1, k & 1]
            scale = np.prod([coeffs[i][bit] for i, bit in enumerate(bits)])
            expected[k] = x.amps[k] * scale
        np.testing.assert_allclose(residual.amps, expected / np.sqrt(2) ** 3, atol=1e-14)

    def test_wrong_register_size_rejected(self):
        inst = random_instance(1, np.random.default_rng(79), BHS)
        rs = rearrange_for_measurement(joint_state(inst), inst)
        with pytest.raises(ValueError):
            bell_project(rs, (1, 2))


def outcomes(n: int):
    return list(itertools.product((1, 2, 3, 4), repeat=n))


def reference_cross_check(inst: TeleportationInstance) -> tuple[float, tuple[int, ...]]:
    """Max |diff| and the first outcome reaching it, one ``bell_project`` per outcome.

    The predictions come from ``oracle._outcome_chunks``, so a test that patches
    it patches them here too.
    """
    rs = rearrange_for_measurement(joint_state(inst), inst)
    predicted = np.concatenate([chunk.copy() for _, chunk in oracle._outcome_chunks(inst)])
    max_diff, worst = -1.0, ()
    for out, row in zip(outcomes(inst.num_qubits), predicted):
        diff = float(np.abs(bell_project(rs, out).amps - row).max())
        if diff > max_diff:
            max_diff, worst = diff, out
    return max_diff, worst


class TestProjectAllOutcomes:
    def test_rows_match_bell_project(self):
        rng = np.random.default_rng(86)
        for n in (1, 2, 3, 4):
            for conv in (BHF, BHS):
                inst = random_instance(n, rng, conv)
                rs = rearrange_for_measurement(joint_state(inst), inst)
                table = _project(rs.amps, [_BELL_BRAS] * n)
                assert table.shape == (4**n, 1 << n)
                for row, out in zip(table, outcomes(n)):
                    np.testing.assert_allclose(
                        row, bell_project(rs, out).amps, rtol=0, atol=1e-15
                    )

    def test_cross_check_matches_the_per_outcome_loop(self):
        rng = np.random.default_rng(87)
        for n in (1, 2, 3, 4):
            for conv in (BHF, BHS):
                inst = random_instance(n, rng, conv)
                report = cross_check(inst)
                assert (report.max_abs_diff, report.worst_outcome) == reference_cross_check(inst)
                assert report.passed and report.max_abs_diff <= 1e-12

    def test_ties_go_to_the_first_outcome(self, monkeypatch):
        """Two rows miss by the same amount; the earlier one is named.  Rows 21 and 50
        lie in different chunks; rows 27 and 28 in one, row 28's miss in an earlier
        column than row 27's."""
        n = 3
        inst = TeleportationInstance(
            StateVector(n, np.eye(1 << n)[0]), Channel((mes_pair(),) * n), BHS
        )
        exact = exact_residuals(inst)
        assert len(set(np.abs(exact).max(axis=1).tolist())) == 1
        for first, second in [(21, 50), (27, 28)]:
            predicted = exact.copy()
            predicted[[first, second]] = 0.0
            patch_predictions(monkeypatch, predicted)
            report = cross_check(inst)
            assert report.worst_outcome == outcomes(n)[first] == reference_cross_check(inst)[1]
            assert report.max_abs_diff == float(np.abs(exact[first]).max()) > 0.0

    def test_a_nan_is_reported_at_the_first_row_that_holds_one(self, monkeypatch):
        """Rows 21 and 50, in different chunks, hold NaN, after row 5 misses by 1.0."""
        n = 3
        inst = random_instance(n, np.random.default_rng(89), BHS)
        predicted = exact_residuals(inst)
        predicted[5, 0] += 1.0
        predicted[21, 3] = predicted[50, 0] = np.nan
        patch_predictions(monkeypatch, predicted)
        report = cross_check(inst)
        assert np.isnan(report.max_abs_diff) and report.passed is False
        assert report.worst_outcome == outcomes(n)[21]


def exact_residuals(inst: TeleportationInstance) -> np.ndarray:
    """Every outcome's residual, one ``bell_project`` per outcome."""
    rs = rearrange_for_measurement(joint_state(inst), inst)
    return np.array([bell_project(rs, out).amps for out in outcomes(inst.num_qubits)])


def patch_predictions(monkeypatch, predicted: np.ndarray) -> None:
    """Make ``cross_check`` read its predictions from the rows of ``predicted``, in the
    comparator's chunks."""
    n = predicted.shape[1].bit_length() - 1
    monkeypatch.setattr(
        oracle, "_outcome_chunks", lambda _: ((rows, predicted[rows]) for rows, _ in _chunks(n))
    )


# The conjugated Bell amplitudes as complex bras, as the projection used them
# before it ran on the float view.
COMPLEX_BRAS = np.conj([bell_state(a) for a in (1, 2, 3, 4)])


def complex_project(amps: np.ndarray, n: int) -> np.ndarray:
    """Every outcome's residual from complex matrix products: each pair's measured
    axis against all four ``COMPLEX_BRAS``, in blocks of 512 complex columns."""
    t, rows = amps, 1
    for _ in range(n):
        cols = t.size // (4 * rows)
        block = min(cols, 512)
        out = np.empty((rows, 4, cols // block, block), dtype=np.complex128)
        x = t.reshape(rows, 4, cols // block, block)
        np.matmul(COMPLEX_BRAS, x.swapaxes(1, 2), out=out.swapaxes(1, 2))
        t, rows = out, rows * 4
    return t.reshape(rows, -1)


def with_phased_input(inst: TeleportationInstance) -> TeleportationInstance:
    """``inst`` with each input amplitude k turned by the phase e^(i k)."""
    x = inst.input_state
    phased = StateVector(x.num_qubits, x.amps * np.exp(1j * np.arange(len(x.amps))))
    return TeleportationInstance(phased, inst.channel, inst.convention)


def whole_table_cross_check(inst: TeleportationInstance) -> tuple[float, tuple[int, ...]]:
    """Max |diff| and the first outcome reaching it, from the transposed ``np.kron``
    joint state projected by ``complex_project`` against the whole predicted table."""
    n = inst.num_qubits
    rs = rearrange_for_measurement(joint_state(inst), inst)
    predicted, _ = _outcome_table(inst)
    row_diff = np.abs(complex_project(rs.amps, n) - predicted).max(axis=1)
    worst = int(np.argmax(row_diff))
    return float(row_diff[worst]), outcomes(n)[worst]


class TestFloatViewProjection:
    def test_bras_are_the_conjugated_bell_states(self):
        assert _BELL_BRAS.dtype == np.float64 and _BELL_BRAS.flags.c_contiguous
        assert not _BELL_BRAS.flags.writeable
        for a in (1, 2, 3, 4):
            assert np.array_equal(_BELL_BRAS[a - 1], np.conj(bell_state(a)))
        assert np.array_equal(_BELL_BRAS, COMPLEX_BRAS)

    def test_complex_bell_states_are_refused(self, monkeypatch):
        monkeypatch.setattr(oracle, "bell_state", lambda a: np.exp(0.1j) * bell_state(a))
        with pytest.raises(RuntimeError, match="real Bell bras"):
            oracle._real_bras()

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_residuals_equal_the_complex_products(self, n, conv):
        """Whole table, and the quarters ``cross_check`` projects into its two buffers."""
        rng = np.random.default_rng(140 + n)
        inst = random_instance(n, rng, conv)
        for case in (inst, with_product_pair(inst), with_phased_input(inst)):
            rs = _measurement_state(case)
            expected = complex_project(rs, n)
            assert np.array_equal(_project(rs, [_BELL_BRAS] * n), expected)
            buffers = (np.empty(rs.size // 2), np.empty(rs.size // 2))
            quarters = [
                _project(rs, [_BELL_BRAS[r : r + 1]] + [_BELL_BRAS] * (n - 1), buffers).copy()
                for r in range(4)
            ]
            assert np.array_equal(np.concatenate(quarters), expected)

    def test_passes_alternate_between_the_buffers(self):
        n = 3
        rs = _measurement_state(random_instance(n, np.random.default_rng(147), BHS))
        buffers = (np.full(rs.size // 2, np.nan), np.full(rs.size // 2, np.nan))
        bras = [_BELL_BRAS[2:3]] + [_BELL_BRAS] * (n - 1)
        got = _project(rs, bras, buffers)
        assert np.shares_memory(got, buffers[(n - 1) % 2])
        assert not np.isnan(buffers[0]).any() and not np.isnan(buffers[1]).any()
        assert np.array_equal(got, _project(rs, bras))

    def test_bell_project_takes_a_strided_state(self):
        inst = random_instance(2, np.random.default_rng(148), BHF)
        rs = rearrange_for_measurement(joint_state(inst), inst)
        padded = np.zeros(2 * len(rs.amps), dtype=complex)
        padded[::2] = rs.amps
        # A read-only view is kept as given, so the state stays strided.
        padded.flags.writeable = False
        strided = StateVector(rs.num_qubits, padded[::2])
        assert not strided.amps.flags.c_contiguous
        for out in outcomes(2):
            assert bell_project(strided, out) == bell_project(rs, out)


class TestCrossCheck:
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_whole_table_comparison(self, n, conv):
        rng = np.random.default_rng(120 + n)
        for inst in (random_instance(n, rng, conv), with_product_pair(random_instance(n, rng, conv))):
            report = cross_check(inst)
            assert (report.max_abs_diff, report.worst_outcome) == whole_table_cross_check(inst)

    def test_matches_the_whole_table_comparison_at_seven_qubits(self):
        inst = random_instance(7, np.random.default_rng(127), BHS)
        report = cross_check(inst)
        assert (report.max_abs_diff, report.worst_outcome) == whole_table_cross_check(inst)

    @pytest.mark.parametrize("n, conv", [(7, BHF), (7, BHS), (8, BHS)])
    def test_passes_at_seven_and_eight_qubits(self, n, conv):
        report = cross_check(random_instance(n, np.random.default_rng(130 + n), conv))
        assert report.num_outcomes == 4**n
        assert report.passed and report.max_abs_diff <= 1e-10

    def test_the_shared_state_comparison_is_cross_check(self):
        inst = random_instance(3, np.random.default_rng(131), BHF)
        rs = rearrange_for_measurement(joint_state(inst), inst)
        assert _cross_check(inst, rs.amps, DEFAULT_EQ_TOL) == cross_check(inst, DEFAULT_EQ_TOL)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), True])
    def test_rejects_an_invalid_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            cross_check(random_instance(2, np.random.default_rng(132), BHS), tol)

    def test_random_instances_agree(self):
        rng = np.random.default_rng(80)
        for n in (1, 2, 3):
            for conv in (BHF, BHS):
                report = cross_check(random_instance(n, rng, conv))
                assert report.passed
                assert report.max_abs_diff <= 1e-12
                assert report.num_outcomes == 4 ** n

    def test_mes_residuals_are_scaled_pauli_actions(self):
        I2 = np.eye(2, dtype=complex)
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        Z = np.array([[1, 0], [0, -1]], dtype=complex)
        pauli_for = {1: I2, 2: Z, 3: X, 4: -1j * Y}
        rng = np.random.default_rng(81)
        x = random_state(2, rng)
        ch = Channel((mes_pair(), mes_pair()))
        inst = TeleportationInstance(x, ch, BHF)
        rs = rearrange_for_measurement(joint_state(inst), inst)
        for out in itertools.product((1, 2, 3, 4), repeat=2):
            pauli = reduce(np.kron, [pauli_for[r] for r in out])
            np.testing.assert_allclose(
                bell_project(rs, out).amps, (pauli @ x.amps) / 4.0, atol=1e-14
            )

    def test_transposed_blocks_fail_loudly(self):
        """Feeding the other convention's blocks leaves an O(1) disagreement."""
        inst = random_instance(2, np.random.default_rng(82), BHS)
        rs = rearrange_for_measurement(joint_state(inst), inst)
        wrong = TeleportationInstance(inst.input_state, inst.channel, BHF)
        worst = max(
            float(np.abs(bell_project(rs, out).amps - collapsed_state(wrong, out).amps).max())
            for out in itertools.product((1, 2, 3, 4), repeat=2)
        )
        assert worst > 1e-2

    @pytest.mark.parametrize("row", [5, 62])
    def test_names_a_wrong_prediction(self, monkeypatch, row):
        """A row off by 1e-6, in the first or the last quarter of the outcomes."""
        real = oracle._outcome_chunks

        def perturbed(inst):
            for rows, chunk in real(inst):
                if rows.start <= row < rows.stop:
                    chunk[row - rows.start, 1] += 1e-6
                yield rows, chunk

        monkeypatch.setattr(oracle, "_outcome_chunks", perturbed)
        report = cross_check(random_instance(3, np.random.default_rng(88), BHF))
        assert report.passed is False
        assert report.worst_outcome == outcomes(3)[row]
        assert report.max_abs_diff == pytest.approx(1e-6, abs=1e-12)

    def test_holds_the_state_its_quarter_buffers_and_the_comparator_chunks(self):
        """At N = 7, beyond the 16 * 8^N-byte measurement state and its two quarter-size
        float buffers, the second of which also takes each chunk's magnitudes,
        ``cross_check`` holds what ``_outcome_chunks`` does: at most three comparator
        chunks of 4^4 rows and numpy's iterator buffers, as
        ``test_comparator_scratch_is_at_most_three_chunks`` derives."""
        n = 7
        inst = random_instance(n, np.random.default_rng(133), BHS)
        cross_check(inst)
        tracemalloc.start()
        try:
            cross_check(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state = 16 * 8**n
        assert peak <= state + state // 2 + 3 * (16 * 4**4 << n) + 2 * 16 * np.getbufsize()

    def test_report_fields(self):
        inst = random_instance(1, np.random.default_rng(83), BHS)
        report = cross_check(inst, tol=1e-10)
        assert report.num_qubits == 1
        assert report.tolerance == 1e-10
        assert len(report.worst_outcome) == 1

    def test_reconstruction_identity(self):
        """Summing Bell bras tensor collapsed states rebuilds the joint state."""
        rng = np.random.default_rng(84)
        for n, conv in [(1, BHF), (2, BHS), (3, BHF)]:
            inst = random_instance(n, rng, conv)
            rs = rearrange_for_measurement(joint_state(inst), inst)
            rebuilt = np.zeros(1 << (3 * n), dtype=complex)
            for out in itertools.product((1, 2, 3, 4), repeat=n):
                bell = reduce(np.kron, [bell_state(r) for r in out])
                rebuilt += np.kron(bell, collapsed_state(inst, out).amps)
            np.testing.assert_allclose(rebuilt, rs.amps, atol=1e-12)
            assert _reconstruction_diff(rs.amps, enumerate_outcomes(inst)) <= 1e-12

    def test_reconstruction_diff_sees_swapped_records(self):
        inst = random_instance(2, np.random.default_rng(85), BHS)
        table = enumerate_outcomes(inst)
        swap = [5, 1, 2, 3, 4, 0, *range(6, 16)]
        swapped = OutcomeTable(
            table.probabilities[swap],
            table.collapsed[swap],
            table.fidelities[swap],
            table.invertible,
        )
        assert _reconstruction_diff(_measurement_state(inst), swapped) > 1e-3

    @pytest.mark.parametrize("n, row, col", [(3, 5, 3), (5, 9, 20)])
    def test_reconstruction_diff_propagates_a_nan(self, n, row, col):
        """One NaN amplitude fails the check; at N = 5 it is in the second slice of
        columns."""
        inst = random_instance(n, np.random.default_rng(86), BHF)
        rs = _measurement_state(inst)
        table = enumerate_outcomes(inst)
        assert _reconstruction_diff(rs, table) <= 1e-12
        collapsed = table.collapsed.copy()
        collapsed[row, col] = np.nan
        broken = OutcomeTable(table.probabilities, collapsed, table.fidelities, table.invertible)
        assert np.isnan(_reconstruction_diff(rs, broken))


def whole_table_reconstruction_diff(rearranged: np.ndarray, table: OutcomeTable) -> float:
    """``_reconstruction_diff`` from one ``_project`` over the whole scaled table."""
    n = table.collapsed.shape[1].bit_length() - 1
    scaled = table.collapsed * np.sqrt(table.probabilities)[:, None]
    rebuilt = _project(scaled, [_BELL_BRAS.T] * n)
    return float(np.abs(rebuilt - rearranged.reshape(rebuilt.shape)).max())


class TestStreamedReconstruction:
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_equals_the_whole_table_reconstruction_bit_for_bit(self, n, conv):
        """From N = 5 on the table is rebuilt in more than one slice of columns."""
        inst = random_instance(n, np.random.default_rng(150 + n), conv)
        for case in (inst, with_product_pair(inst), with_phased_input(inst)):
            rs = _measurement_state(case)
            table = enumerate_outcomes(case)
            got = _reconstruction_diff(rs, table)
            assert got.hex() == whole_table_reconstruction_diff(rs, table).hex()
            assert got <= 1e-12
