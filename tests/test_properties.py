"""Property tests: the block factorization B_r = M @ sigma_r, Kraus completeness, Born
probabilities and oracle agreement on normalized instances with near-singular pairs, the
one ``verify_instance`` pass against the separate calls on them, one
verdict on invertibility for a pair exactly at the tolerance, the table's recovery
fidelities against ``recover``'s, a NaN fidelity failing verify across conditioning, and the
pair-by-pair draw against the inverse cumulative distribution over all outcomes."""

import contextlib
import io
import itertools
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_cli import write_channel, write_state
from test_oracle import (
    COMPLEX_BRAS,
    assert_one_pass_is_the_separate_calls,
    complex_project,
    exact_det_pair,
    with_phased_input,
)
from test_protocol import InverseCdf, pair_with_abs_det

from belldecomp import (
    Channel,
    EntangledPair,
    NotInvertibleError,
    PairingConvention,
    StateVector,
    TeleportationInstance,
    channel_criterion,
    collapsed_state,
    cross_check,
    enumerate_outcomes,
    joint_state,
    pair_determinant,
    random_instance,
    random_pair,
    random_state,
    rearrange_for_measurement,
    recover,
    sample_outcome,
    sub_matrix,
    verify_instance,
)
from belldecomp import cli
from belldecomp.decomposition import SIGMA, inverse_pair_blocks, inverse_sub_matrix, pair_blocks
from belldecomp.oracle import _residual_state

PAULIS = [
    np.eye(2),
    np.diag([1.0, -1.0]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    -1j * np.array([[0, -1j], [1j, 0]]),
]

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
coefficients = st.lists(st.builds(complex, finite, finite), min_size=4, max_size=4)
conventions = st.sampled_from(list(PairingConvention))
results = st.sampled_from([1, 2, 3, 4])


def coefficient_matrix(pair: EntangledPair, conv: PairingConvention) -> np.ndarray:
    m = pair.y.reshape(2, 2)
    return m if conv is PairingConvention.BOB_HOLDS_FIRST else m.T


def test_sigma_is_i_z_x_minus_iy():
    assert np.array_equal(SIGMA, np.array(PAULIS))


@given(coefficients, results, conventions)
def test_block_is_coefficient_matrix_times_sigma(y, r, conv):
    pair = EntangledPair(np.array(y))
    assert np.array_equal(sub_matrix(pair, r, conv), coefficient_matrix(pair, conv) @ SIGMA[r - 1])


@given(coefficients, conventions)
def test_stacked_blocks_match_single_blocks(y, conv):
    pair = EntangledPair(np.array(y))
    stacked = pair_blocks(pair, conv)
    for r in (1, 2, 3, 4):
        assert np.array_equal(stacked[r - 1], sub_matrix(pair, r, conv))


@given(coefficients, conventions)
def test_stacked_inverses_match_single_inverses(y, conv):
    pair = EntangledPair(np.array(y))
    assume(abs(pair.y[0] * pair.y[3] - pair.y[1] * pair.y[2]) > 1e-9)
    stacked = inverse_pair_blocks(pair, conv)
    for r in (1, 2, 3, 4):
        assert np.array_equal(stacked[r - 1], inverse_sub_matrix(pair, r, conv))


@given(coefficients, conventions)
def test_blocks_are_kraus_complete(y, conv):
    """sum_r B_r^dagger B_r = 2 |y|^2 I: the four results together lose nothing."""
    pair = EntangledPair(np.array(y))
    blocks = pair_blocks(pair, conv)
    total = np.einsum("rji,rjk->ik", blocks.conj(), blocks)
    scale = 2.0 * pair.squared_norm()
    assert np.abs(total - scale * np.eye(2)).max() <= 1e-12 * scale


@st.composite
def hard_instances(draw, max_qubits: int = 3, min_log_det: float = -12.0):
    """Normalized instances of 1 to ``max_qubits`` qubits, each pair's |det| log-uniform
    in [10^``min_log_det``, 0.5]."""
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    conv = draw(conventions)
    log_dets = draw(
        st.lists(st.floats(min_value=min_log_det, max_value=math.log10(0.5)), min_size=n, max_size=n)
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = tuple(pair_with_abs_det(rng, 10.0**d) for d in log_dets)
    return TeleportationInstance(random_state(n, rng), Channel(pairs), conv)


def probabilities(inst: TeleportationInstance) -> np.ndarray:
    return np.array([r.probability for r in enumerate_outcomes(inst, compute_recovery=False)])


@settings(max_examples=50)
@given(hard_instances())
def test_probabilities_sum_to_one(inst):
    assert abs(probabilities(inst).sum() - 1.0) <= 1e-12


@settings(max_examples=50)
@given(hard_instances())
def test_blocks_agree_with_the_oracle(inst):
    assert cross_check(inst).max_abs_diff <= 1e-10


@settings(max_examples=50)
@given(hard_instances())
def test_one_verify_pass_is_the_separate_calls(inst):
    assert_one_pass_is_the_separate_calls(inst)


@settings(max_examples=50)
@given(hard_instances(), st.floats(min_value=0.0, max_value=2 * math.pi))
def test_probabilities_ignore_a_global_phase(inst, phase):
    amps = np.exp(1j * phase) * inst.input_state.amps
    turned = TeleportationInstance(
        StateVector(inst.num_qubits, amps), inst.channel, inst.convention
    )
    assert np.abs(probabilities(turned) - probabilities(inst)).max() <= 1e-14


@settings(max_examples=50)
@given(hard_instances(), st.data())
def test_a_pair_exactly_at_the_tolerance_is_not_invertible(inst, data):
    """With tol = |det| of the most singular pair, the criterion, recovery and enumeration
    all reject that pair; one float below it, all three accept it."""
    dets = [abs(pair_determinant(p)) for p in inst.channel.pairs]
    at = min(dets)
    assume(dets.count(at) == 1)
    pair = dets.index(at) + 1
    out = data.draw(st.tuples(*[results] * inst.num_qubits))
    collapsed = collapsed_state(inst, out)

    report = channel_criterion(inst.channel, at)
    assert (report.success, report.failed_pairs) == (False, (pair,))
    with pytest.raises(NotInvertibleError) as err:
        recover(collapsed, inst, out, at)
    assert err.value.pair_indices == (pair,)
    records = enumerate_outcomes(inst, at)
    assert {(r.invertible, r.recovered_fidelity) for r in records} == {(False, None)}

    below = np.nextafter(at, 0.0)
    assert channel_criterion(inst.channel, below).success
    _, fid = recover(collapsed, inst, out, below)
    assert 0.0 <= fid <= 1.0
    records = enumerate_outcomes(inst, below)
    assert all(r.invertible for r in records)
    assert all(r.recovered_fidelity is not None for r in records if r.probability > 0.0)


U = np.finfo(np.float64).eps / 2  # the unit roundoff, 2^-53


@settings(max_examples=100, deadline=None)
@given(hard_instances(4, -6.0), st.data(), st.floats(min_value=-15.0, max_value=-1.0))
def test_recovery_from_a_perturbed_collapsed_state(inst, data, log_size):
    """Recovering y + delta in place of the collapsed state y moves the normalized
    recovered state by at most 2 K |delta| / |y|, plus rounding, with K = prod kappa_i
    and kappa_i = smax_i / smin_i of pair i's M (N <= 4, 2-norms throughout).

    Exactly, recovery is z = A y normalized, A = (x)_i sigma_{r_i}^-1 M_i^-1.  The
    sigmas are unitary, so A's singular values are products of the 1 / s_{j,i}:
    |A| = prod 1 / smin_i and smin(A) = prod 1 / smax_i.  For any a, b,
    |a/|a| - b/|b|| <= |a - b| / |a| + ||b| - |a|| / |a| <= 2 |a - b| / |a|, and
    |A delta| / |A y| <= |A| |delta| / (smin(A) |y|) = K |delta| / |y|: c = 2.

    Rounding, in units of u = 2^-53:
    - The computed inverse blocks are adj(M) / det, sigma^-1 times that exactly: the
      adjugate's entries are M's, the sigmas' are 0, +-1 and +-i.  An error in det
      scales every recovered state alike and normalization removes it; each
      division errs by at most 6u per entry, so |E| <= 6 sqrt2 u |B| and a block's
      kappa grows by at most a factor 1 + 17 u kappa_i.  np.linalg.svd's kappa_i errs
      by at most another 2 u kappa_i, hence K's factors kappa_i (1 + 20 u kappa_i).
    - A pair step writes F0 t0 + F1 t1: a complex product errs by at most sqrt5 u
      relative, the add by u, so each output errs by at most 4u (|F| |t|), which is
      at most 4 sqrt2 u |F| |t| in norm.  Carried through the later steps, N steps
      leave 1.01 * 4 sqrt2 N u K |A y| at most, which moves the unit vector by
      twice that, 8.1 sqrt2 N u K.
    - The norm of 2^N amplitudes and the division by it err by (2^(N+1) + 3) u.
    - The delta that is applied is fl(y + delta) - y; its norm over |y|, computed
      from floats, is low by at most 2 (2^(N+1) + 2) u + u <= 80 u relatively.

    Both recoveries carry the rounding terms, so the bound is
    2 K (r (1 + 80u) + 8.1 sqrt2 N u) + 2 (2^(N+1) + 3) u for the computed r.
    """
    n = inst.num_qubits
    out = data.draw(st.tuples(*[results] * n))
    y = collapsed_state(inst, out).amps
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    delta = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    moved_y = y + delta * (10.0**log_size * np.linalg.norm(y) / np.linalg.norm(delta))
    recovered, _ = recover(StateVector(n, y), inst, out)
    moved, _ = recover(StateVector(n, moved_y), inst, out)

    singular = [np.linalg.svd(p.amplitude_matrix(), compute_uv=False) for p in inst.channel.pairs]
    k = math.prod(s[0] / s[1] * (1 + 20 * U * s[0] / s[1]) for s in singular)
    r = np.linalg.norm(moved_y - y) / np.linalg.norm(y)
    bound = 2 * k * (r * (1 + 80 * U) + 8.1 * math.sqrt(2) * n * U) + 2 * (2 ** (n + 1) + 3) * U
    assert np.linalg.norm(moved.amps - recovered.amps) <= bound


@st.composite
def oracle_instances(draw):
    """Normalized instances of 1 to 5 qubits with random pairs, of which one may be the
    product pair |00> and one may have |det| log-uniform in [1e-9, 0.5], and an input
    that may be phased, amplitude k turned by e^(i k)."""
    n = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    inst = random_instance(n, rng, draw(conventions))
    pairs = list(inst.channel.pairs)
    near_singular = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    if near_singular is not None:
        log_det = draw(st.floats(min_value=-9.0, max_value=math.log10(0.5)))
        pairs[near_singular] = pair_with_abs_det(rng, 10.0**log_det)
    product = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    if product is not None:
        pairs[product] = EntangledPair(np.eye(4)[0])
    inst = TeleportationInstance(inst.input_state, Channel(tuple(pairs)), inst.convention)
    return with_phased_input(inst) if draw(st.booleans()) else inst


@settings(max_examples=100, deadline=None)
@given(oracle_instances())
def test_the_residual_state_is_the_joint_state_projection_to_rounding(inst):
    """Each residual the oracle builds pair by pair is within 2 gamma T of the rearranged
    ``np.kron`` joint state projected by ``complex_project``.

    Both routes evaluate the same sum over the 2^N terms
    +-b^N x[a] prod_i y_i[s_i, b_i] of a residual, b being fl(1/sqrt2), the one
    nonzero magnitude of both routes' bras.  Each applies to each term N complex
    products, and per pair one product by b and one add: the joint state takes the
    products first and projects after, the builder takes pair i's product and then
    its projection.  A complex product errs by at most sqrt5 u relative, a product by
    b or an add by u, a product by a zero bra and an add of its exact zero not at all,
    and every error is relative to the value it rounds, a sum of some of the terms.
    So each route is within gamma T of the exact sum, for
    gamma = (1 + sqrt5 u)^N (1 + u)^(2N) - 1 and T the sum of the terms' magnitudes.
    T is computed as ``complex_project`` of |S| with |bras|: the computed S errs by
    at most (1 + sqrt5 u)^N - 1 relative, np.abs by 2u, and the projection of
    nonnegative numbers by (1 + u)^(2N) - 1, so the computed T_c is at least
    T (1 - 2 gamma), and the bound is 2 gamma T_c / (1 - 2 gamma).  With |det| >= 1e-9 and N <= 5 no product nears the
    subnormal range, so no underflow term is needed.
    """
    n = inst.num_qubits
    state = rearrange_for_measurement(joint_state(inst), inst).amps
    expected = complex_project(state, COMPLEX_BRAS, n).reshape(-1)
    magnitudes = complex_project(np.abs(state).astype(complex), np.abs(COMPLEX_BRAS), n).real
    gamma = (1 + math.sqrt(5) * U) ** n * (1 + U) ** (2 * n) - 1
    bound = 2 * gamma * magnitudes.reshape(-1) / (1 - 2 * gamma)
    assert (np.abs(_residual_state(inst) - expected) <= bound).all()


@st.composite
def recoverable_instances(draw):
    """Normalized instances of 1 to 4 qubits, each pair's |det| log-uniform in [1e-9, 0.5].

    The exponents are scaled down together where needed to keep the product of
    the |det| at or above 1e-9.  The recovery's condition number is at most the
    inverse of that product, and a fidelity recovered from a rounded collapsed
    state is only good to about (condition number * 1.1e-16)^2: past a product
    of about 1e-10 the table and ``recover`` round differently and their
    fidelities part, under the pair-by-pair kernel as under the shared inverse.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    conv = draw(conventions)
    top = math.log10(0.5)
    log_dets = np.array(
        draw(st.lists(st.floats(min_value=-9.0, max_value=top), min_size=n, max_size=n))
    )
    depth = (top - log_dets).sum()
    if depth > 9.0 + top:
        log_dets = top - (top - log_dets) * ((9.0 + top) / depth)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = tuple(pair_with_abs_det(rng, 10.0**d) for d in log_dets)
    return TeleportationInstance(random_state(n, rng), Channel(pairs), conv)


@settings(max_examples=50, deadline=None)
@given(recoverable_instances())
def test_table_fidelities_are_those_of_recover(inst):
    """The shared-inverse table kernel and ``recover``'s per-outcome inverse blocks agree,
    also on whether a pair drawn at |det| = 1e-9 is invertible at that tolerance."""
    table = enumerate_outcomes(inst)
    for k, out in enumerate(itertools.product((1, 2, 3, 4), repeat=inst.num_qubits)):
        collapsed = collapsed_state(inst, out)
        if not table.invertible:
            assert math.isnan(table.fidelities[k])
            with pytest.raises(NotInvertibleError):
                recover(collapsed, inst, out)
            continue
        _, fid = recover(collapsed, inst, out)
        assert abs(table.fidelities[k] - fid) <= 1e-12


@st.composite
def exact_det_instances(draw):
    """Instances of 1 to 3 qubits through pairs ``exact_det_pair(k, 2k + j)``, k in 0..300
    and j in 1..52: |det| from about 2^-3 down to 2^-652, each M^-1 finite, and their
    product W past the float range on some draws."""
    n = draw(st.integers(min_value=1, max_value=3))
    conv = draw(conventions)
    ks = draw(st.lists(st.integers(min_value=0, max_value=300), min_size=n, max_size=n))
    js = draw(st.lists(st.integers(min_value=1, max_value=52), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = tuple(exact_det_pair(k, 2 * k + j) for k, j in zip(ks, js))
    return TeleportationInstance(random_state(n, rng), Channel(pairs), conv)


def cli_verify(inst: TeleportationInstance) -> tuple[int, str]:
    """CLI verify at --tol-inv 0 of the instance, written to JSON: exit code and stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        state = write_state(Path(tmp, "s.json"), inst.num_qubits, inst.input_state.amps.tolist())
        channel = write_channel(Path(tmp, "c.json"), [p.y.tolist() for p in inst.channel.pairs])
        argv = ["verify", "--state", state, "--channel", channel, "--tol-inv", "0"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--convention", inst.convention.value])
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(exact_det_instances())
def test_a_recovery_without_a_float_value_fails_verify(inst):
    """At tol_inv = 0: when the table gives an outcome of positive probability a NaN
    fidelity, ``verify_instance``'s minimum fidelity is NaN and its recovery check
    fails; otherwise the minimum is the table's.  CLI verify never prints nan, and no
    step raises a warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = enumerate_outcomes(inst, tol=0.0)
        report = verify_instance(inst, tol_inv=0.0)
        code, out = cli_verify(inst)
    assert [str(w.message) for w in caught] == []
    positive = table.fidelities[table.probabilities > 0.0]
    if table.invertible and np.isnan(positive).any():
        assert np.isnan(report.min_fidelity)
        assert report.verdicts[-1] == ("recovery-fidelity", "FAIL") and not report.passed
    elif table.invertible:
        assert report.min_fidelity == positive.min()
    assert code in (0, 1) and "nan" not in out


@st.composite
def sampling_instances(draw):
    """Normalized instances of 1 to 4 qubits with zero-probability outcomes likely.

    Each pair is random or a product pair |jk>, and each input qubit is free or
    fixed to a basis state by zeroing the other amplitudes.
    """
    n = draw(st.integers(min_value=1, max_value=4))
    conv = draw(conventions)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = []
    for basis in draw(st.lists(st.sampled_from([None, 0, 1, 2, 3]), min_size=n, max_size=n)):
        pairs.append(random_pair(rng) if basis is None else EntangledPair(np.eye(4)[basis]))
    amps = random_state(n, rng).amps.reshape((2,) * n).copy()
    for q, bit in enumerate(draw(st.lists(st.sampled_from([None, 0, 1]), min_size=n, max_size=n))):
        if bit is not None:
            np.moveaxis(amps, q, 0)[1 - bit] = 0.0
    amps = amps.reshape(-1) / np.linalg.norm(amps)
    return TeleportationInstance(StateVector(n, amps), Channel(tuple(pairs)), conv)


@settings(max_examples=100)
@given(sampling_instances(), st.integers(min_value=0, max_value=2**64 - 1))
def test_the_draw_is_the_inverse_cdf_and_never_impossible(inst, seed):
    out = sample_outcome(inst, seed)
    assert collapsed_state(inst, out).squared_norm() > 0.0
    assert out == InverseCdf(inst).draw(seed)
