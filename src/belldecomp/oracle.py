"""Brute-force state-vector oracle for the per-pair block predictions.

The oracle holds the full joint state of all 3N qubits, reorders it into
measurement order, and projects the measured qubits onto explicit Bell bras.
It deliberately never touches the decomposition module's blocks: the only
shared ingredients are the raw Bell basis vectors and the generic tensor
utilities, so agreement between the two routes is meaningful.  Only
``cross_check`` and the reconstruction check read the block predictions, to
compare them.

A projection contracts each measured pair's axis against a stack of
conjugated Bell bras, one pair at a time.  ``bell_project`` keeps one bra per
pair; ``cross_check`` keeps all four and so gets every outcome's residual in
one pass per pair, a quarter of the outcomes at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import bell_state
from .decomposition import PairingConvention, validate_outcome
from .protocol import OutcomeTable, TeleportationInstance, _outcome_table
from .tensor import DEFAULT_EQ_TOL, StateVector, permute_qubits

__all__ = [
    "ORACLE_CAP",
    "joint_state",
    "rearrange_for_measurement",
    "bell_project",
    "CrossCheckReport",
    "cross_check",
]

# 3*6 = 18 qubits, i.e. 2^18 amplitudes, is the largest joint state we build.
ORACLE_CAP = 6

# Row a - 1 is the bra of Bell state a: the conjugated amplitudes.
_BELL_BRAS = np.conj([bell_state(a) for a in (1, 2, 3, 4)])
_BELL_BRAS.flags.writeable = False

# Columns per matrix product in ``_project``.  With OpenBLAS on 2 threads, a
# (1, 4) x (4, 1024) complex product already ran threaded and stalled for
# 5-8 ms (2-CPU Xeon); products with 512 columns stayed on one thread.
_BLAS_COLUMNS = 512


def joint_state(inst: TeleportationInstance) -> StateVector:
    """Full 3N-qubit product state: input qubits 1..N, then each pair's two qubits."""
    n = inst.num_qubits
    if n > ORACLE_CAP:
        raise ValueError(
            f"oracle holds the full joint state and supports at most {ORACLE_CAP} "
            f"qubit(s), got {n}"
        )
    amps = inst.input_state.amps
    for pair in inst.channel.pairs:
        amps = np.kron(amps, pair.y)
    return StateVector(3 * n, amps)


def _measurement_order(inst: TeleportationInstance) -> tuple[int, ...]:
    """Interleave (input_i, sender's half of pair i), receiver halves last.

    In the joint state, pair i occupies positions N+2i-1 and N+2i.  The
    receiver keeps the first of the two under BOB_HOLDS_FIRST and the second
    under BOB_HOLDS_SECOND; the sender measures against the other half.
    """
    n = inst.num_qubits
    order = []
    receiver = []
    for i in range(1, n + 1):
        first, second = n + 2 * i - 1, n + 2 * i
        if inst.convention is PairingConvention.BOB_HOLDS_FIRST:
            sender_half, receiver_half = second, first
        else:
            sender_half, receiver_half = first, second
        order += [i, sender_half]
        receiver.append(receiver_half)
    return tuple(order + receiver)


def rearrange_for_measurement(js: StateVector, inst: TeleportationInstance) -> StateVector:
    """Permute the joint state into measurement order.

    Qubits 2i-1 and 2i of the result are the i-th measured pair; the last N
    qubits are the receiver's register in pair order.
    """
    n = inst.num_qubits
    if js.num_qubits != 3 * n:
        raise ValueError(f"joint state has {js.num_qubits} qubit(s), expected {3 * n}")
    return permute_qubits(js, _measurement_order(inst))


def _project(amps: np.ndarray, bras: list[np.ndarray]) -> np.ndarray:
    """Contract each measured pair of a rearranged state against a stack of bras.

    ``bras[i]`` is (k_i, 4), the bras of the Bell results kept for pair i.
    Row j of the (k_1 * ... * k_N, 2^N) result is the receiver's residual for
    the j-th kept outcome in lexicographic order.  Contracting pair i leaves
    its result axis where its measured axis was.  The axes after the
    measured one are cut into blocks of ``_BLAS_COLUMNS`` columns, and each
    block is one small matrix product.
    """
    t, rows = amps, 1
    for b in bras:
        cols = t.size // (4 * rows)
        block = min(cols, _BLAS_COLUMNS)
        out = np.empty((rows, len(b), cols // block, block), dtype=np.complex128)
        x = t.reshape(rows, 4, cols // block, block)
        np.matmul(b, x.swapaxes(1, 2), out=out.swapaxes(1, 2))
        t, rows = out, rows * len(b)
    return t.reshape(rows, -1)


def bell_project(rs: StateVector, outcome: Sequence[int]) -> StateVector:
    """Contract the measured qubits of a rearranged state against Bell bras.

    Returns the receiver's unnormalized residual; summed over all outcomes the
    squared norms add up to the total squared norm of ``rs``.  This is the
    one-row case of the projection ``cross_check`` makes of all outcomes.
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

    The oracle's residuals come from one pass per pair over the rearranged
    joint state, a quarter of the outcomes at a time: those that share the
    first pair's result.  Besides the rearranged state, memory holds the
    predicted (4^N, 2^N) table and one such quarter of residuals.  The table
    is built only after the joint state has been rearranged and dropped, so
    the two do not add to the peak.  ``worst_outcome`` is the first outcome
    in lexicographic order that reaches ``max_abs_diff``.
    """
    n = inst.num_qubits
    rs = rearrange_for_measurement(joint_state(inst), inst)
    predicted, _ = _outcome_table(inst)
    row_diff = np.empty(len(predicted))
    size = len(predicted) // 4
    for r in range(4):
        rows = slice(r * size, (r + 1) * size)
        residuals = _project(rs.amps, [_BELL_BRAS[r : r + 1]] + [_BELL_BRAS] * (n - 1))
        np.abs(residuals - predicted[rows]).max(axis=1, out=row_diff[rows])
    worst = int(np.argmax(row_diff))
    max_diff = float(row_diff[worst])
    return CrossCheckReport(
        num_qubits=n,
        convention=inst.convention,
        num_outcomes=len(predicted),
        max_abs_diff=max_diff,
        worst_outcome=tuple(int(d) + 1 for d in np.unravel_index(worst, (4,) * n)),
        tolerance=tol,
        passed=max_diff <= tol,
    )


def _reconstruction_diff(inst: TeleportationInstance, table: OutcomeTable) -> float:
    """Max |sum over outcomes of Bell states (x) collapsed states - rearranged joint state|.

    The sum runs through ``_project`` one pair at a time: with the four Bell
    states as the columns of its (4, 4) "bras", contracting pair i's result
    axis turns it into that pair's two measured qubits.
    """
    rs = rearrange_for_measurement(joint_state(inst), inst)
    t = table.collapsed * np.sqrt(table.probabilities)[:, None]
    kets = np.array([bell_state(a) for a in (1, 2, 3, 4)]).T
    rebuilt = _project(t, [kets] * inst.num_qubits)
    return float(np.abs(rebuilt.reshape(-1) - rs.amps).max())
