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
    verify_instance,
)
from belldecomp import oracle
from belldecomp.oracle import _BELL_BRAS, _SLAB, ORACLE_CAP, _bra_pass, _residual_state
from belldecomp.protocol import _CHECK_PAIRS, _TABLE_PAIRS, _chunks
from test_protocol import raw_table

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
        for build in (joint_state, _residual_state, cross_check, verify_instance):
            with pytest.raises(ValueError, match=f"supports at most {ORACLE_CAP} qubit"):
                build(inst)


def exact_det_pair(k: int, m: int) -> EntangledPair:
    """(1, a, a, a^2 + d) over its norm, for a = 2^-k and d = 2^-m: |det| is d over the
    squared norm.  For m - 2k in 1..52 the sum a^2 + d is exact, and for k >= 28 the
    norm rounds to 1, so the pair holds exactly these values."""
    a, d = 2.0**-k, 2.0**-m
    y = np.array([1, a, a, a * a + d], dtype=complex)
    return EntangledPair(y / np.linalg.norm(y))


def with_product_pair(inst: TeleportationInstance) -> TeleportationInstance:
    """``inst`` with its last pair replaced by the product state |00>."""
    pairs = inst.channel.pairs[:-1] + (EntangledPair(np.eye(4)[0]),)
    return TeleportationInstance(inst.input_state, Channel(pairs), inst.convention)


def bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of a complex array: equal bits are equal values, signed zeros included."""
    return a.view(np.uint64)


def measurement_state(inst: TeleportationInstance) -> np.ndarray:
    """A writable copy of the rearranged joint state's amplitudes."""
    return rearrange_for_measurement(joint_state(inst), inst).amps.copy()


class TestResidualState:
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_is_the_pairwise_projection_bit_for_bit(self, n, conv):
        rng = np.random.default_rng(90 + n)
        inst = random_instance(n, rng, conv)
        for case in (inst, with_product_pair(random_instance(n, rng, conv)), with_phased_input(inst)):
            expected = pairwise_residuals(case)
            got = _residual_state(case)
            assert got.shape == (1 << (3 * n),) and got.flags.c_contiguous
            assert np.array_equal(bits(got), bits(expected.reshape(-1)))

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [4, 6])
    def test_holds_the_result_and_its_last_step_or_the_slab(self, n, conv):
        """The peak is the 16 * 8^N-byte result and either, while the last pair's
        amplitudes go in, the step before it, a quarter of its size, or, while a pass
        runs, the slab of at most 8 * ``_SLAB`` bytes; never both, and never the state S
        beside R.  Each of the four multiplies writes a strided view, which numpy's
        iterator buffers through at most ``np.getbufsize()`` complex elements."""
        inst = random_instance(n, np.random.default_rng(95 + n), conv)
        _residual_state(inst)
        tracemalloc.start()
        try:
            _residual_state(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = 16 * 8**n
        assert peak <= result + max(result // 4 + 16 * np.getbufsize(), 8 * _SLAB) + 4096


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


# The comparison alone, and as part of every check.
CHECKS = [cross_check, lambda inst: verify_instance(inst).oracle]


def reference_cross_check(inst: TeleportationInstance) -> tuple[float, tuple[int, ...]]:
    """Max |diff| and the first outcome reaching it, one row of ``pairwise_residuals``
    per outcome.

    The predictions come from ``oracle._outcome_chunks``, so a test that patches
    it patches them here too.
    """
    residuals = pairwise_residuals(inst)
    chunks = oracle._outcome_chunks(inst, None, _CHECK_PAIRS)
    predicted = np.concatenate([chunk.copy() for _, chunk in chunks])
    max_diff, worst = -1.0, ()
    for out, residual, row in zip(outcomes(inst.num_qubits), residuals, predicted):
        diff = float(np.abs(residual - row).max())
        if diff > max_diff:
            max_diff, worst = diff, out
    return max_diff, worst


class TestProjectAllOutcomes:
    def test_rows_match_bell_project(self):
        """The rows of the residual state, and of ``complex_project`` with all four
        bras per pair, are each outcome's ``bell_project`` to rounding."""
        rng = np.random.default_rng(86)
        for n in (1, 2, 3, 4):
            for conv in (BHF, BHS):
                inst = random_instance(n, rng, conv)
                rs = rearrange_for_measurement(joint_state(inst), inst)
                residuals = _residual_state(inst)
                for table in (complex_project(rs.amps, COMPLEX_BRAS, n), residuals.reshape(4**n, -1)):
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

    @pytest.mark.parametrize("check", CHECKS)
    def test_ties_go_to_the_first_outcome(self, monkeypatch, check):
        """Two rows miss by the same amount; the earlier one is named.  Rows 21 and 50
        lie in different chunks; rows 27 and 28 in one, row 28's miss in an earlier
        column than row 27's."""
        n = 3
        inst = TeleportationInstance(
            StateVector(n, np.eye(1 << n)[0]), Channel((mes_pair(),) * n), BHS
        )
        exact = pairwise_residuals(inst)
        assert len(set(np.abs(exact).max(axis=1).tolist())) == 1
        for first, second in [(21, 50), (27, 28)]:
            predicted = exact.copy()
            predicted[[first, second]] = 0.0
            patch_predictions(monkeypatch, predicted)
            report = check(inst)
            assert report.worst_outcome == outcomes(n)[first] == reference_cross_check(inst)[1]
            assert report.max_abs_diff == float(np.abs(exact[first]).max()) > 0.0

    @pytest.mark.parametrize("check", CHECKS)
    def test_a_nan_is_reported_at_the_first_row_that_holds_one(self, monkeypatch, check):
        """Rows 21 and 50, in different chunks, hold NaN, after row 5 misses by 1.0."""
        n = 3
        inst = random_instance(n, np.random.default_rng(89), BHS)
        predicted = pairwise_residuals(inst)
        predicted[5, 0] += 1.0
        predicted[21, 3] = predicted[50, 0] = np.nan
        patch_predictions(monkeypatch, predicted)
        report = check(inst)
        assert np.isnan(report.max_abs_diff) and report.passed is False
        assert report.worst_outcome == outcomes(n)[21]


def patch_predictions(monkeypatch, predicted: np.ndarray) -> None:
    """Make the oracle read its predictions from copies of the rows of ``predicted``,
    in the chunks it asks for."""
    n = predicted.shape[1].bit_length() - 1

    def chunks(inst, table, pairs):
        return ((rows, predicted[rows].copy()) for rows, _ in _chunks(n, pairs))

    monkeypatch.setattr(oracle, "_outcome_chunks", chunks)


# The conjugated Bell amplitudes as complex bras, as the projection used them
# before it ran on the float view.
COMPLEX_BRAS = np.conj([bell_state(a) for a in (1, 2, 3, 4)])


def project_axis(t: np.ndarray, bras: np.ndarray, rows: int) -> np.ndarray:
    """The axis of 4 after ``rows`` leading rows of ``t`` against the four rows of
    ``bras``, ``COMPLEX_BRAS`` or its transpose, from complex matrix products in
    blocks of 512 complex columns, into a new array."""
    cols = t.size // (4 * rows)
    block = min(cols, 512)
    out = np.empty((rows, 4, cols // block, block), dtype=np.complex128)
    x = t.reshape(rows, 4, cols // block, block)
    np.matmul(bras, x.swapaxes(1, 2), out=out.swapaxes(1, 2))
    return out


def complex_project(amps: np.ndarray, bras: np.ndarray, n: int) -> np.ndarray:
    """Every outcome's residual of a measurement-order state: ``project_axis`` on each
    pair's measured axis in turn."""
    for i in range(n):
        amps = project_axis(amps, bras, 4**i)
    return amps.reshape(4**n, -1)


def pairwise_residuals(inst: TeleportationInstance) -> np.ndarray:
    """Every outcome's residual, (4^N, 2^N), projected pair by pair as the pair enters:
    each amplitude of the running state times each of the pair's, as ``np.kron``
    multiplies, moved into place by a transpose, then ``project_axis`` on the pair's
    measured axis.  The axes before the projection are the i results, input qubit i
    and the sender's half of pair i, the later input qubits, and the receiver's halves
    of pairs 1..i."""
    n = inst.num_qubits
    t = inst.input_state.amps
    for i, pair in enumerate(inst.channel.pairs):
        y = pair.y.reshape(2, 2)
        if inst.convention is BHF:
            y = y.T  # (the sender's half, the receiver's half)
        step = np.multiply.outer(t.reshape(2 * 4**i, 1 << n - i - 1, 1 << i), y)
        t = project_axis(np.ascontiguousarray(step.transpose(0, 3, 1, 2, 4)), COMPLEX_BRAS, 4**i)
    return t.reshape(4**n, -1)


def with_phased_input(inst: TeleportationInstance) -> TeleportationInstance:
    """``inst`` with each input amplitude k turned by the phase e^(i k)."""
    x = inst.input_state
    phased = StateVector(x.num_qubits, x.amps * np.exp(1j * np.arange(len(x.amps))))
    return TeleportationInstance(phased, inst.channel, inst.convention)


def whole_table_cross_check(inst: TeleportationInstance) -> tuple[float, tuple[int, ...]]:
    """Max |diff| and the first outcome reaching it, from ``pairwise_residuals`` against
    the whole predicted table."""
    predicted, _ = raw_table(inst)
    row_diff = np.abs(pairwise_residuals(inst) - predicted).max(axis=1)
    worst = int(np.argmax(row_diff))
    return float(row_diff[worst]), outcomes(inst.num_qubits)[worst]


def transform(amps: np.ndarray, matrix: np.ndarray) -> None:
    """Contract each measured pair of a C-contiguous measurement-order state of 8^N
    amplitudes with a real (4, 4) matrix, in place: ``_bra_pass`` on pair i's measured
    axis for i = 0, ..., N - 1, as ``verify_instance`` turns its residuals back."""
    for i in range(amps.size.bit_length() // 3):
        _bra_pass(amps.view(np.float64), i, matrix)


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
        """The state transformed in place, and ``bell_project``'s new arrays on every
        outcome at N <= 3 and 32 seeded ones above, bit for bit."""
        rng = np.random.default_rng(140 + n)
        inst = random_instance(n, rng, conv)
        rows = range(4**n) if n <= 3 else rng.choice(4**n, 32, replace=False)
        for case in (inst, with_product_pair(inst), with_phased_input(inst)):
            rs = measurement_state(case)
            expected = complex_project(rs, COMPLEX_BRAS, n)
            state = StateVector(3 * n, rs)
            for k in rows:
                row = bell_project(state, outcomes(n)[k]).amps
                assert np.array_equal(bits(row), bits(expected[k]))
            transform(rs, _BELL_BRAS)
            assert np.array_equal(bits(rs), bits(expected.reshape(-1)))

    @pytest.mark.parametrize("n", [3, 6])
    def test_the_transform_works_in_place_through_one_slab(self, n):
        """It allocates the ``_SLAB``-float slab and nothing the size of the state, and
        the transposed bras turn the residuals back into the state: U is orthogonal."""
        inst = random_instance(n, np.random.default_rng(147), BHS)
        state = measurement_state(inst)
        amps = state.copy()
        tracemalloc.start()
        try:
            transform(amps, _BELL_BRAS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _SLAB + 4096
        assert not np.array_equal(amps, state)
        transform(amps, _BELL_BRAS.T)
        assert np.abs(amps - state).max() <= 1e-15

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

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("row", [5, 62])
    def test_names_a_wrong_prediction(self, monkeypatch, row, check):
        """A row off by 1e-6, in the first or the last quarter of the outcomes."""
        real = oracle._outcome_chunks

        def perturbed(*args):
            for rows, chunk in real(*args):
                if rows.start <= row < rows.stop:
                    chunk[row - rows.start, 1] += 1e-6
                yield rows, chunk

        monkeypatch.setattr(oracle, "_outcome_chunks", perturbed)
        report = check(random_instance(3, np.random.default_rng(88), BHF))
        assert report.passed is False
        assert report.worst_outcome == outcomes(3)[row]
        assert report.max_abs_diff == pytest.approx(1e-6, abs=1e-12)

    def test_report_fields(self):
        inst = random_instance(1, np.random.default_rng(83), BHS)
        report = cross_check(inst)
        assert report.num_qubits == 1
        assert report.tolerance == DEFAULT_EQ_TOL == 1e-10
        assert len(report.worst_outcome) == 1


# The chunk scratch the tracemalloc bounds below allow, in chunks of the plan's rows:
# ``_outcome_chunks``'s 3, derived in ``test_walk_without_a_table_holds_at_most_three_chunks``
# for 4^5 rows and alike for 4^4 at N = 7; the comparison's complex and float buffers,
# 1 1/2; and for ``verify_instance`` the recovery frames, 1, and their gather index,
# 1/2, kept per N but counted here in case the first call at N = 7 builds it.
SCRATCH_CHUNKS = {cross_check: 4.5, verify_instance: 6}


class TestMemory:
    @pytest.mark.parametrize("check, pairs", [(cross_check, _CHECK_PAIRS), (verify_instance, _TABLE_PAIRS)])
    def test_holds_the_state_its_last_step_the_slab_and_chunk_scratch(self, check, pairs):
        """At N = 7 a call holds the 16 * 8^N-byte residuals; while they are built,
        the step before, a quarter of their size; a pass's slab, 8 * ``_SLAB``
        bytes; the chunk scratch of ``SCRATCH_CHUNKS``, chunks of 4^4 predicted rows
        for ``cross_check`` and of 4^5 for ``verify_instance``, 16 * 4^k * 2^N bytes;
        and numpy's iterator buffers, ``np.getbufsize()`` elements for each of up to
        two complex operands.  The comparison runs once the residuals are built, so
        the bound, the sum of all of these, is loose by the quarter.  numpy reports its
        allocations to tracemalloc; the instance's cached W^T, 16 * 4^N bytes, is
        built by the first call, outside the trace."""
        n = 7
        inst = random_instance(n, np.random.default_rng(133), BHS)
        check(inst)
        tracemalloc.start()
        try:
            check(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        state, chunk = 16 * 8**n, 16 * 4**pairs << n
        scratch = int(SCRATCH_CHUNKS[check] * chunk)
        assert peak <= state + state // 4 + 8 * _SLAB + scratch + 2 * 16 * np.getbufsize()


def swapped_predictions(inst: TeleportationInstance) -> np.ndarray:
    """The predicted table with the records of outcomes 11 and 21 swapped."""
    predicted, _ = raw_table(inst)
    predicted[[0, 5]] = predicted[[5, 0]]
    return predicted


def whole_table_reconstruction(inst: TeleportationInstance) -> float:
    """Max |U^T (P - R)| from whole arrays: P the rows sqrt(p) c of
    ``enumerate_outcomes``, R the residuals of ``pairwise_residuals``, U^T as
    ``complex_project`` with the transposed bras."""
    n = inst.num_qubits
    table = enumerate_outcomes(inst)
    scaled = table.collapsed * np.sqrt(table.probabilities)[:, None]
    difference = scaled - pairwise_residuals(inst)
    return float(np.abs(complex_project(difference, COMPLEX_BRAS.T, n)).max())


class TestReconstruction:
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
            assert verify_instance(inst).reconstruction <= 1e-12

    def test_sees_swapped_records(self, monkeypatch):
        inst = random_instance(2, np.random.default_rng(85), BHS)
        patch_predictions(monkeypatch, swapped_predictions(inst))
        report = verify_instance(inst)
        assert report.reconstruction > 1e-3
        assert dict(report.verdicts)["reconstruction"] == "FAIL" and not report.passed

    @pytest.mark.parametrize("n, row, col", [(3, 5, 3), (5, 9, 20)])
    def test_propagates_a_nan(self, monkeypatch, n, row, col):
        """One NaN amplitude fails the check."""
        inst = random_instance(n, np.random.default_rng(86), BHF)
        assert verify_instance(inst).reconstruction <= 1e-12
        predicted, _ = raw_table(inst)
        predicted[row, col] = np.nan
        patch_predictions(monkeypatch, predicted)
        report = verify_instance(inst)
        assert np.isnan(report.reconstruction)
        assert dict(report.verdicts)["reconstruction"] == "FAIL" and not report.passed

    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_equals_the_whole_table_reconstruction_bit_for_bit(self, n, conv):
        inst = random_instance(n, np.random.default_rng(150 + n), conv)
        for case in (inst, with_product_pair(inst), with_phased_input(inst)):
            got = verify_instance(case).reconstruction
            assert got.hex() == whole_table_reconstruction(case).hex()
            assert got <= 1e-12


def assert_one_pass_is_the_separate_calls(inst: TeleportationInstance) -> None:
    """``verify_instance``'s oracle figures are ``cross_check``'s, its |sum(p) - 1| is
    Python's left-to-right sum over ``enumerate_outcomes``' probabilities, and its
    minimum fidelity the table's over the outcomes of positive probability, NaN when
    its pairs are not all invertible."""
    report = verify_instance(inst)
    alone = cross_check(inst)
    assert report.oracle == alone
    assert report.oracle.max_abs_diff.hex() == alone.max_abs_diff.hex()
    table = enumerate_outcomes(inst)
    assert report.completeness == abs(sum(table.probabilities.tolist()) - 1.0)
    assert (report.non_invertible == ()) == table.invertible
    if table.invertible:
        assert report.min_fidelity == np.nanmin(table.fidelities[table.probabilities > 0.0])
    else:
        assert np.isnan(report.min_fidelity)


class TestVerifyInstance:
    @pytest.mark.parametrize("conv", [BHF, BHS])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_one_pass_is_the_separate_calls(self, n, conv):
        rng = np.random.default_rng(160 + n)
        for inst in (random_instance(n, rng, conv), with_product_pair(random_instance(n, rng, conv))):
            assert_one_pass_is_the_separate_calls(inst)

    @pytest.mark.parametrize(
        "tols",
        [
            (-1.0, 1e-9), (float("nan"), 1e-9), (1e-10, float("inf")), (1e-10, True),
            (1e-10, None), (None, 1e-9),
        ],
    )
    def test_refuses_a_tolerance_before_building_a_state(self, monkeypatch, tols):
        def refused(inst):
            raise AssertionError("the state was built")

        monkeypatch.setattr(oracle, "_residual_state", refused)
        inst = random_instance(2, np.random.default_rng(170), BHS)
        with pytest.raises(ValueError, match="tolerance must be a finite number >= 0"):
            verify_instance(inst, *tols)

    def test_verdicts(self):
        inst = random_instance(3, np.random.default_rng(171), BHF)
        report = verify_instance(inst)
        assert report.verdicts == (
            ("oracle-equivalence", "PASS"),
            ("completeness", "PASS"),
            ("reconstruction", "PASS"),
            ("recovery-fidelity", "PASS"),
        )
        assert report.passed and not np.isnan(report.min_fidelity) and report.non_invertible == ()
        strict = verify_instance(inst, tol_eq=0.0)
        assert not strict.passed and ("oracle-equivalence", "FAIL") in strict.verdicts

    def test_a_non_invertible_pair_skips_recovery(self):
        inst = with_product_pair(random_instance(3, np.random.default_rng(172), BHS))
        report = verify_instance(inst)
        assert report.non_invertible == (3,) and np.isnan(report.min_fidelity)
        assert report.verdicts[-1] == ("recovery-fidelity", "SKIP") and report.passed

    def test_a_recovery_transform_past_the_float_range_fails_without_a_warning(self):
        """Two pairs of |det| 1e-160 at tol_inv = 0: each M^-1 is finite, W is not."""
        pair = EntangledPair(np.array([1e-160, 0, 0, 1], dtype=complex))
        inst = TeleportationInstance(
            StateVector(2, np.full(4, 0.5, dtype=complex)), Channel((pair, pair)), BHS
        )
        report = verify_instance(inst, tol_inv=0.0)
        assert np.isnan(report.min_fidelity) and report.non_invertible == ()
        assert report.verdicts[-1] == ("recovery-fidelity", "FAIL") and not report.passed
        assert np.isnan(enumerate_outcomes(inst, tol=0.0).fidelities).all()

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_a_few_outcomes_past_the_float_range_fail_recovery(self, conv):
        """Pairs of |det| 2^-280, 2^-70 and 2^-70 at tol_inv = 0: W is finite, but a few
        outcomes of positive probability recover to NaN.  The minimum was taken over the
        other outcomes and read 0.000942, 62 of 64 here."""
        pairs = tuple(exact_det_pair(k, m) for k, m in ((120, 280), (30, 70), (30, 70)))
        inst = TeleportationInstance(random_state(3, np.random.default_rng(0)), Channel(pairs), conv)
        table = enumerate_outcomes(inst, tol=0.0)
        assert np.isnan(table.fidelities[table.probabilities > 0.0]).any()
        report = verify_instance(inst, tol_inv=0.0)
        assert np.isnan(report.min_fidelity) and report.non_invertible == ()
        assert report.verdicts[-1] == ("recovery-fidelity", "FAIL") and not report.passed

    @pytest.mark.parametrize("conv", [BHF, BHS])
    def test_one_pair_of_det_1e_minus_160_still_recovers(self, conv):
        """M^-1 holds 1e160, inside the float range, and so does W at N = 1."""
        pair = EntangledPair(np.array([1e-160, 0, 0, 1], dtype=complex))
        inst = TeleportationInstance(StateVector(1, [0.6, 0.8j]), Channel((pair,)), conv)
        report = verify_instance(inst, tol_inv=0.0)
        assert report.min_fidelity == 1.0 and report.passed
