"""Brute-force state-vector oracle for the per-pair block predictions.

The oracle projects the input and pair amplitudes onto explicit Bell bras.
It deliberately never touches the decomposition module's blocks: the only
shared ingredients are the raw Bell basis vectors, the raw input and pair
amplitudes and the generic tensor utilities, so agreement between the two
routes is meaningful.  Only ``_oracle_pass``, behind ``cross_check`` and
``verify_instance``, reads the block predictions, to compare them.

Every Bell bra is real (entries 0 and +-1/sqrt(2)), so contracting a pair
runs on the interleaved (re, im) float64 view as real matrix products.  The
Bell basis is orthonormal, so the residuals of all outcomes are R = U S, for
the measurement-order state S of all 3N qubits and the real orthogonal U,
the tensor product of one (4, 4) matrix of bras per pair, and
U^T P - S = U^T (P - R) for any P.  Pair i's bras act only on input qubit i
and the sender's half of pair i, which no later pair's amplitudes touch, so
``_residual_state`` contracts each pair as it enters and builds R without S:
16 * 8^N bytes, 268 MB at N = 8, the one large array the checks hold.
``verify_instance`` turns R back with U^T, one ``_bra_pass`` per pair.
``joint_state`` and ``rearrange_for_measurement`` build S itself, as
``np.kron`` products moved into measurement order, and ``bell_project``
contracts one bra per pair of it into new arrays: the brute-force route that
R is held to.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import bell_state
from .decomposition import (
    DEFAULT_INVERTIBILITY_TOL,
    PairingConvention,
    _valid_tol,
    validate_outcome,
)
from .protocol import (
    _CHECK_PAIRS,
    _TABLE_PAIRS,
    TeleportationInstance,
    _chunk_frames,
    _chunk_rows,
    _fidelity_rows,
    _non_invertible_pairs,
    _normalize_rows,
    _outcome_chunks,
)
from .tensor import DEFAULT_EQ_TOL, StateVector

__all__ = [
    "ORACLE_CAP",
    "joint_state",
    "rearrange_for_measurement",
    "bell_project",
    "CrossCheckReport",
    "cross_check",
    "VerificationReport",
    "verify_instance",
]

# 8^8 = 2^24 amplitudes (268 MB), S or R of 3*8 = 24 qubits, is the largest
# state built.
ORACLE_CAP = 8


def _real_bras() -> np.ndarray:
    """Row a - 1 is the bra of Bell state a: its conjugated amplitudes, which are real."""
    bras = np.conj([bell_state(a) for a in (1, 2, 3, 4)])
    if bras.imag.any():
        raise RuntimeError("the oracle's float-view projection needs real Bell bras")
    real = np.ascontiguousarray(bras.real)
    real.flags.writeable = False
    return real


_BELL_BRAS = _real_bras()

# Float columns per matrix product in ``bell_project`` and ``_bra_pass``: 1,024
# floats are 512 complex amplitudes.  With OpenBLAS on 2 threads, a (1, 4) x
# (4, 1024) complex product, 2,048 floats wide, already ran threaded and
# stalled for 5-8 ms (2-CPU Xeon); products 512 complex columns wide stayed on
# one thread.
_BLAS_COLUMNS = 1024
_SLAB = 1 << 15  # floats in ``_bra_pass``'s scratch slab: 256 KiB


def _check_cap(n: int) -> None:
    if n > ORACLE_CAP:
        raise ValueError(
            f"oracle holds 8^N amplitudes and supports at most {ORACLE_CAP} "
            f"qubit(s), got {n}"
        )


def joint_state(inst: TeleportationInstance) -> StateVector:
    """Full 3N-qubit product state: input qubits 1..N, then each pair's two qubits."""
    n = inst.num_qubits
    _check_cap(n)
    amps = inst.input_state.amps
    for pair in inst.channel.pairs:
        amps = np.kron(amps, pair.y)
    amps.flags.writeable = False
    return StateVector(3 * n, amps)


def rearrange_for_measurement(js: StateVector, inst: TeleportationInstance) -> StateVector:
    """Reorder the joint state's qubits into measurement order, in one copy.

    Qubits 2i-1 and 2i of the result are the i-th measured pair: input qubit
    i and the sender's half of pair i.  The last N qubits are the receiver's
    register in pair order.  In the joint state pair i holds qubits N+2i-1
    and N+2i; the receiver keeps the first under BOB_HOLDS_FIRST and the
    second under BOB_HOLDS_SECOND.
    """
    n = inst.num_qubits
    if js.num_qubits != 3 * n:
        raise ValueError(f"joint state has {js.num_qubits} qubit(s), expected {3 * n}")
    # Pair i's halves are axes n + 2i and n + 2i + 1 (0-based); ``bob`` is the receiver's.
    bob = 0 if inst.convention is PairingConvention.BOB_HOLDS_FIRST else 1
    axes = [a for i in range(n) for a in (i, n + 2 * i + 1 - bob)]
    axes += [n + 2 * i + bob for i in range(n)]
    amps = np.ascontiguousarray(js.amps.reshape((2,) * (3 * n)).transpose(axes))
    amps.flags.writeable = False
    return StateVector(3 * n, amps)


def _residual_state(inst: TeleportationInstance) -> np.ndarray:
    """Every outcome's residual, R = U S, built without the state S.

    Pair by pair, each of the pair's four amplitudes multiplies the running
    state, in ``np.kron``'s order, into its new s_i and b_i axes; then
    ``_bra_pass`` contracts the measured axis (a_i, s_i), after the i result
    axes, with ``_BELL_BRAS``.  No later pair touches a_i or s_i, so this is
    U S to rounding, at about 4/3 of one full-size pass.  R's axes are
    (r1, ..., rN, b1, ..., bN).  The peak is R and either the step before it,
    a quarter of its size, or the slab.
    """
    n = inst.num_qubits
    _check_cap(n)
    t = inst.input_state.amps
    for i, pair in enumerate(inst.channel.pairs):
        y = pair.y.reshape(2, 2)  # (first qubit, second qubit)
        if inst.convention is PairingConvention.BOB_HOLDS_FIRST:
            y = y.T
        # The i results and a_i, the later inputs, the receiver's i halves.
        src = t.reshape(2 * 4**i, 1 << n - i - 1, 1 << i)
        t = np.empty((len(src), 2) + src.shape[1:] + (2,), dtype=np.complex128)
        for s, b in np.ndindex(2, 2):
            np.multiply(src, y[s, b], out=t[:, s, :, :, b])
        del src  # frees the step before, a quarter of t, before the pass's slab
        _bra_pass(t.view(np.float64), i, _BELL_BRAS)
    return t.reshape(-1)


def _bra_pass(t: np.ndarray, i: int, matrix: np.ndarray) -> None:
    """Contract the axis of 4 after i leading axes of 4 of a C-contiguous float view
    with a real (4, 4) matrix, in place: in ``bell_project``'s blocks, as many
    (4, block) pieces at a time as fill the slab, the one array allocated.
    """
    slab = np.empty(min(_SLAB, t.size))
    rows, cols = 4**i, t.size >> 2 * i + 2
    block = min(cols, _BLAS_COLUMNS)
    pieces = t.reshape(rows, 4, cols // block, block).swapaxes(1, 2)
    # A slab takes dq blocks of each of dr rows; each divides its axis.
    dq = min(cols // block, _SLAB // (4 * block))
    dr = _SLAB // (4 * block * dq)
    for r, q in itertools.product(range(0, rows, dr), range(0, cols // block, dq)):
        part = pieces[r : r + dr, q : q + dq]
        out = slab[: part.size].reshape(part.shape)
        np.matmul(matrix, part, out=out)
        part[...] = out


def bell_project(rs: StateVector, outcome: Sequence[int]) -> StateVector:
    """Contract the measured qubits of a rearranged state against Bell bras.

    Returns the receiver's unnormalized residual; summed over all outcomes the
    squared norms add up to the total squared norm of ``rs``.  To rounding,
    it is one row of the residuals ``cross_check`` builds.  Pair by
    pair, the pair's row of ``_BELL_BRAS`` multiplies the leading axis of the
    float view of a C-contiguous copy of ``rs.amps`` (no copy when they
    already are; any ``StateVector`` works), in blocks of ``_BLAS_COLUMNS``
    floats, into a new array.
    """
    out = validate_outcome(outcome, len(outcome))
    n = len(out)
    if rs.num_qubits != 3 * n:
        raise ValueError(f"state has {rs.num_qubits} qubit(s), expected {3 * n}")
    t = np.ascontiguousarray(rs.amps).view(np.float64)
    for a in out:
        block = min(t.size // 4, _BLAS_COLUMNS)
        x = t.reshape(4, -1, block).swapaxes(0, 1)
        t = np.empty((1, len(x), block))
        np.matmul(_BELL_BRAS[a - 1 : a], x, out=t.swapaxes(0, 1))
    return StateVector(n, t.reshape(-1).view(np.complex128))


@dataclass(frozen=True)
class CrossCheckReport:
    """Worst-case disagreement between block predictions and the oracle."""

    num_qubits: int
    convention: PairingConvention
    num_outcomes: int
    max_abs_diff: float
    worst_outcome: tuple[int, ...]
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Every check ``verify_instance`` makes of one instance.

    ``oracle`` is its ``cross_check`` report; ``completeness`` |sum(p) - 1|,
    summed left to right in outcome order; ``reconstruction`` the largest
    |sum_r |Bell_r> (x) sqrt(p_r) c_r - S| for the normalized collapsed
    states c_r, NaN when any term is; ``min_fidelity`` the smallest recovery
    fidelity of an outcome of positive probability, NaN when not computed.
    Recovery is skipped when ``non_invertible`` names pairs of |det| at or
    below ``tol_inv``, and fails on ``recovery_overflow``: W, the tensor
    product of the pair inverses, leaves the float range.  ``verdicts`` pairs
    each check's name with PASS, FAIL or SKIP; ``passed`` is False on a FAIL.
    """

    oracle: CrossCheckReport
    completeness: float
    reconstruction: float
    min_fidelity: float
    non_invertible: tuple[int, ...]
    recovery_overflow: bool
    verdicts: tuple[tuple[str, str], ...]
    passed: bool


def cross_check(inst: TeleportationInstance) -> CrossCheckReport:
    """Compare every outcome's block prediction against the projected residual.

    Every outcome's residual is built, and the predictions are compared with
    their rows chunk by chunk.  Memory holds the 16 * 8^N-byte residuals and,
    while the last pair enters, the step before, a quarter of their size;
    then chunks of 4^4 predicted rows: about 340 MB at N = 8.
    ``worst_outcome`` is the first outcome in lexicographic
    order that reaches ``max_abs_diff``, or the first whose difference is
    NaN.  ``passed`` compares it with ``DEFAULT_EQ_TOL``; ``verify_instance``
    gives the verdict at any tolerance.
    """
    return _oracle_pass(inst, DEFAULT_EQ_TOL)


def verify_instance(
    inst: TeleportationInstance,
    tol_eq: float = DEFAULT_EQ_TOL,
    tol_inv: float = DEFAULT_INVERTIBILITY_TOL,
) -> VerificationReport:
    """The oracle, completeness, reconstruction and recovery checks of CLI ``verify``.

    One ``cross_check`` pass, on chunks of 4^5 rows, makes each prediction
    once for every check.  ``tol_eq`` bounds the oracle, completeness and
    reconstruction figures and 1 - ``min_fidelity``; ``tol_inv`` is the pair
    invertibility tolerance.  Each must be a finite number >= 0, or
    ValueError is raised before any state is built.
    """
    return _oracle_pass(inst, tol_eq, tol_inv)


def _oracle_pass(inst: TeleportationInstance, tol_eq: float, *tol_inv: float):
    """``cross_check``'s report, or given a valid ``tol_inv``, ``verify_instance``'s.

    The residuals R are built, and each chunk of predictions c is compared with
    its rows: the largest |R - c| and its first flat argmax, through one
    complex and one float chunk buffer.  A later chunk must be strictly
    larger, and the first NaN stands.  Given ``tol_inv``, the rows are then
    normalized in place, their probabilities summed left to right, their
    fidelities minimized past NaN (zero probability), and sqrt(p) c - R
    overwrites R's rows; R then turns back into U^T P - S.
    """
    tol_eq = _valid_tol(tol_eq)
    verify = bool(tol_inv)
    bad = _non_invertible_pairs(inst, *tol_inv) if verify else ()
    state = _residual_state(inst)
    overflow = verify and not bad and inst._recovery_matrix is None
    recovery = verify and not (bad or overflow)
    n = inst.num_qubits
    residuals = state.reshape(4**n, -1)
    # Recovery reads the table's chunks; the comparison alone takes smaller ones.
    pairs = _TABLE_PAIRS if verify else _CHECK_PAIRS
    scratch = np.empty((_chunk_rows(n, pairs), 1 << n), dtype=np.complex128)
    magnitudes = np.empty(scratch.shape)
    frames = _chunk_frames(inst.input_state.amps.conj()) if recovery else None
    max_diff, worst = -1.0, 0
    total, min_fidelity = 0.0, math.nan
    for rows, predicted in _outcome_chunks(inst, None, pairs):
        r = residuals[rows]
        np.abs(np.subtract(r, predicted, out=scratch), out=magnitudes)
        k = int(np.argmax(magnitudes))
        value = float(magnitudes.flat[k])
        if not (value <= max_diff or math.isnan(max_diff)):
            max_diff, worst = value, rows.start + k // magnitudes.shape[1]
        if not verify:
            continue
        probs = _normalize_rows(predicted)
        total = sum(probs.tolist(), total)
        if recovery:
            fids = _fidelity_rows(inst, predicted, next(frames)[1], scratch)
            min_fidelity = float(np.fmin.reduce(fids, initial=min_fidelity))
        np.multiply(predicted, np.sqrt(probs)[:, None], out=scratch)
        np.subtract(scratch, r, out=r)
    oracle = CrossCheckReport(
        num_qubits=n,
        convention=inst.convention,
        num_outcomes=4**n,
        max_abs_diff=max_diff,
        worst_outcome=tuple(int(d) + 1 for d in np.unravel_index(worst, (4,) * n)),
        tolerance=tol_eq,
        passed=max_diff <= tol_eq,
    )
    if not verify:
        return oracle
    for i in range(n):
        _bra_pass(state.view(np.float64), i, _BELL_BRAS.T)
    # np.maximum, unlike max(), carries a NaN of any block through to the result.
    reconstruction = 0.0
    for block in state.reshape(-1, magnitudes.size):
        reconstruction = np.maximum(reconstruction, np.abs(block, out=magnitudes.reshape(-1)).max())
    completeness, reconstruction = abs(total - 1.0), float(reconstruction)
    verdict = {True: "PASS", False: "FAIL"}
    verdicts = (
        ("oracle-equivalence", verdict[oracle.passed]),
        ("completeness", verdict[completeness <= tol_eq]),
        ("reconstruction", verdict[reconstruction <= tol_eq]),
        ("recovery-fidelity", "SKIP" if bad else verdict[min_fidelity >= 1.0 - tol_eq]),
    )
    return VerificationReport(
        oracle=oracle,
        completeness=completeness,
        reconstruction=reconstruction,
        min_fidelity=min_fidelity,
        non_invertible=bad,
        recovery_overflow=overflow,
        verdicts=verdicts,
        passed=all(v != "FAIL" for _, v in verdicts),
    )
