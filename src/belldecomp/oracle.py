"""Brute-force state-vector oracle for the per-pair block predictions.

The oracle holds the full joint state of all 3N qubits in measurement order
and projects the measured qubits onto explicit Bell bras.  It deliberately
never touches the decomposition module's blocks: the only shared ingredients
are the raw Bell basis vectors, the raw input and pair amplitudes and the
generic tensor utilities, so agreement between the two routes is
meaningful.  Only ``_cross_check``, the comparison behind ``cross_check``, and
the reconstruction check read the block predictions, to compare them.

``joint_state`` builds the state as ``np.kron`` products, and
``rearrange_for_measurement`` reorders its qubits with one transpose and one
copy: the independent reference that ``_measurement_state`` is held to.
``_measurement_state`` multiplies the same products, in the same order,
straight into measurement order, and is what ``cross_check`` and CLI
``verify`` hold: 16 * 8^N bytes, 268 MB at N = 8.

A projection contracts each measured pair's axis against a stack of
conjugated Bell bras, one pair at a time.  ``bell_project`` keeps one bra per
pair; ``cross_check`` keeps all four and so gets every outcome's residual in
one pass per pair, a quarter of the outcomes at a time.  Every Bell bra is
real (entries 0 and +-1/sqrt(2)), so a pass acts alike on the real and the
imaginary parts: it runs on the state's interleaved (re, im) float64 view
as real matrix products, and the imaginary parts of the bras, all zero,
would add only exact zeros.  ``cross_check`` writes its passes into two
quarter-size buffers in turn instead of a new array per pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import bell_state
from .decomposition import PairingConvention, _valid_tol, validate_outcome
from .protocol import OutcomeTable, TeleportationInstance, _outcome_chunks
from .tensor import DEFAULT_EQ_TOL, StateVector

__all__ = [
    "ORACLE_CAP",
    "joint_state",
    "rearrange_for_measurement",
    "bell_project",
    "CrossCheckReport",
    "cross_check",
]

# 3*8 = 24 qubits, i.e. 2^24 amplitudes (268 MB), is the largest joint state
# we build.
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

# Float columns per matrix product in ``_project``: 1,024 floats are 512
# complex amplitudes.  With OpenBLAS on 2 threads, a (1, 4) x (4, 1024)
# complex product, 2,048 floats wide, already ran threaded and stalled for
# 5-8 ms (2-CPU Xeon); products 512 complex columns wide stayed on one thread.
_BLAS_COLUMNS = 1024

# Receiver columns per slice of ``_reconstruction_diff``: at N = 8 a slice of
# the 268 MB table and each of ``_project``'s passes over it take 17 MB.
_RECONSTRUCTION_COLUMNS = 16


def _check_cap(n: int) -> None:
    if n > ORACLE_CAP:
        raise ValueError(
            f"oracle holds the full joint state and supports at most {ORACLE_CAP} "
            f"qubit(s), got {n}"
        )


def joint_state(inst: TeleportationInstance) -> StateVector:
    """Full 3N-qubit product state: input qubits 1..N, then each pair's two qubits."""
    n = inst.num_qubits
    _check_cap(n)
    amps = inst.input_state.amps
    for pair in inst.channel.pairs:
        amps = np.kron(amps, pair.y)
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
    return StateVector(
        3 * n, np.ascontiguousarray(js.amps.reshape((2,) * (3 * n)).transpose(axes))
    )


def _measurement_state(inst: TeleportationInstance) -> np.ndarray:
    """The amplitudes of ``rearrange_for_measurement(joint_state(inst), inst)``, built in place.

    The axes are (a1, s1, ..., aN, sN, b1, ..., bN): input qubit i, the
    sender's half of pair i, then the receiver's halves.  Every amplitude is
    the input amplitude times pair 1's, times pair 2's and so on, multiplied
    in ``np.kron``'s order, so the result is bit for bit the transposed
    ``joint_state``, without building it.  Pair i's factor fills its s_i and
    b_i axes, one of its four amplitudes at a time, so each product runs
    over long strides.  The peak is the result and the step before it, a
    quarter of its size.
    """
    n = inst.num_qubits
    _check_cap(n)
    t = inst.input_state.amps.reshape((2, 1) * n + (1,) * n)
    for i, pair in enumerate(inst.channel.pairs):
        y = pair.y.reshape(2, 2)  # (first qubit, second qubit)
        if inst.convention is PairingConvention.BOB_HOLDS_FIRST:
            y = y.T
        axes = (2 * i + 1, 2 * n + i)  # the sender's and the receiver's half
        shape = list(t.shape)
        shape[axes[0]] = shape[axes[1]] = 2
        new = np.empty(shape, dtype=np.complex128)
        dest = np.moveaxis(new, axes, (0, 1))
        src = np.moveaxis(t, axes, (0, 1))[0, 0]
        for s, b in np.ndindex(2, 2):
            np.multiply(src, y[s, b], out=dest[s, b])
        t = new
    return t.reshape(-1)


def _project(
    amps: np.ndarray, bras: list[np.ndarray], buffers: Sequence[np.ndarray] = ()
) -> np.ndarray:
    """Contract each measured pair of a rearranged state against a stack of real bras.

    ``bras[i]`` is a real (k_i, 4) array, the bras of the Bell results kept
    for pair i.  Row j of the complex (k_1 * ... * k_N, 2^N) result is the
    receiver's residual for the j-th kept outcome in lexicographic order.
    Contracting pair i leaves its result axis where its measured axis was.
    The passes run on the float64 view of ``amps`` (made C-contiguous
    first), whose trailing axis interleaves real and imaginary parts: the
    axes after the measured one are cut into blocks of ``_BLAS_COLUMNS``
    floats, and each block is one small real matrix product.  Given two
    float ``buffers``, pass i writes into the front of ``buffers[i % 2]``,
    and the result is a view of one of them; otherwise every pass allocates.
    """
    t, rows = np.ascontiguousarray(amps).view(np.float64), 1
    for i, b in enumerate(bras):
        cols = t.size // (4 * rows)
        block = min(cols, _BLAS_COLUMNS)
        shape = (rows, len(b), cols // block, block)
        if buffers:
            out = buffers[i % 2][: rows * len(b) * cols].reshape(shape)
        else:
            out = np.empty(shape)
        x = t.reshape(rows, 4, cols // block, block)
        np.matmul(b, x.swapaxes(1, 2), out=out.swapaxes(1, 2))
        t, rows = out, rows * len(b)
    return t.reshape(rows, -1).view(np.complex128)


def bell_project(rs: StateVector, outcome: Sequence[int]) -> StateVector:
    """Contract the measured qubits of a rearranged state against Bell bras.

    Returns the receiver's unnormalized residual; summed over all outcomes the
    squared norms add up to the total squared norm of ``rs``.  This is the
    one-row case of the projection ``cross_check`` makes of all outcomes: one
    real bra per pair, applied to the float view of a C-contiguous copy of
    ``rs.amps`` (no copy when they already are), so any ``StateVector`` works.
    """
    out = validate_outcome(outcome, len(outcome))
    n = len(out)
    if rs.num_qubits != 3 * n:
        raise ValueError(f"state has {rs.num_qubits} qubit(s), expected {3 * n}")
    return StateVector(n, _project(rs.amps, [_BELL_BRAS[a - 1 : a] for a in out]))


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


def cross_check(inst: TeleportationInstance, tol: float = DEFAULT_EQ_TOL) -> CrossCheckReport:
    """Compare every outcome's block prediction against the projected residual.

    The oracle's residuals come from one pass per pair over the joint state
    in measurement order, a quarter of the outcomes at a time: those that
    share the first pair's result.  The predictions come chunk by chunk and
    are compared against the quarter they fall in, so the (4^N, 2^N) table is
    never held.  The projection runs as real matrix products of the real
    Bell bras with the state's float view, and its passes alternate between
    two float buffers, each a quarter of the state, allocated once per call;
    each chunk of predictions is subtracted from its residual rows in place.
    Memory holds the 16 * 8^N-byte state, the two buffers, and two buffers
    of at most 4^4 predicted rows: about 400 MB at N = 8.  ``worst_outcome``
    is the first outcome in lexicographic order that reaches
    ``max_abs_diff``.  ``tol`` must be a finite number >= 0, or ValueError is
    raised before any state is built.
    """
    return _cross_check(inst, None, tol)


def _cross_check(
    inst: TeleportationInstance, rs: np.ndarray | None, tol: float
) -> CrossCheckReport:
    """``cross_check``, against ``rs`` when given: ``_measurement_state(inst)``,
    which CLI ``verify`` shares with the reconstruction check."""
    tol = _valid_tol(tol)
    if rs is None:
        rs = _measurement_state(inst)
    n = inst.num_qubits
    quarter = 4 ** (n - 1)
    row_diff = np.empty(4**n)
    buffers = (np.empty(rs.size // 2), np.empty(rs.size // 2))  # a quarter of rs, in floats
    for rows, predicted in _outcome_chunks(inst):
        r, start = divmod(rows.start, quarter)
        if start == 0:
            residuals = _project(rs, [_BELL_BRAS[r : r + 1]] + [_BELL_BRAS] * (n - 1), buffers)
        diff = residuals[start : start + len(predicted)]
        diff -= predicted
        np.abs(diff).max(axis=1, out=row_diff[rows])
    worst = int(np.argmax(row_diff))
    max_diff = float(row_diff[worst])
    return CrossCheckReport(
        num_qubits=n,
        convention=inst.convention,
        num_outcomes=len(row_diff),
        max_abs_diff=max_diff,
        worst_outcome=tuple(int(d) + 1 for d in np.unravel_index(worst, (4,) * n)),
        tolerance=tol,
        passed=max_diff <= tol,
    )


def _reconstruction_diff(rearranged: np.ndarray, table: OutcomeTable) -> float:
    """Max |sum over outcomes of Bell states (x) collapsed states - rearranged joint state|.

    ``rearranged`` holds the joint state's amplitudes in measurement order,
    as ``_measurement_state`` builds them.  The sum runs through ``_project``
    one pair at a time: with the four Bell states as the columns of its
    (4, 4) "bras", contracting pair i's result axis turns it into that pair's
    two measured qubits.  The Bell states are real, so these columns are the
    transposed ``_BELL_BRAS``.  Every amplitude depends on one receiver column of
    the table only, so the table is scaled and summed ``_RECONSTRUCTION_COLUMNS``
    columns at a time and compared with the same columns of the state: no
    full-size array is held beyond the state and the table.  Every slice's
    passes reuse the same two float buffers.
    """
    kets = _BELL_BRAS.T
    rows, cols = table.collapsed.shape
    n = cols.bit_length() - 1
    state = rearranged.reshape(rows, cols)
    scale = np.sqrt(table.probabilities)[:, None]
    size = 2 * rows * min(cols, _RECONSTRUCTION_COLUMNS)  # floats in one slice
    buffers = (np.empty(size), np.empty(size))
    diff = 0.0
    for c in range(0, cols, _RECONSTRUCTION_COLUMNS):
        part = slice(c, c + _RECONSTRUCTION_COLUMNS)
        rebuilt = _project(table.collapsed[:, part] * scale, [kets] * n, buffers)
        rebuilt -= state[:, part]
        diff = max(diff, float(np.abs(rebuilt).max()))
    return diff
