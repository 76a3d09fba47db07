"""Brute-force state-vector oracle for the per-pair block predictions.

The oracle holds the full joint state of all 3N qubits, reorders it into
measurement order, and projects the measured qubits onto explicit Bell bras.
It deliberately never touches the decomposition module's blocks: the only
shared ingredients are the raw Bell basis vectors and the generic tensor
utilities, so agreement between the two routes is meaningful.  Only
``cross_check`` reads the block predictions, to compare them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import bell_state
from .decomposition import PairingConvention, validate_outcome
from .protocol import TeleportationInstance, _outcome_table
from .tensor import DEFAULT_EQ_TOL, QubitPermutation, StateVector, permute_qubits

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


def _measurement_order(inst: TeleportationInstance) -> QubitPermutation:
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
    return QubitPermutation(tuple(order + receiver))


def rearrange_for_measurement(js: StateVector, inst: TeleportationInstance) -> StateVector:
    """Permute the joint state into measurement order.

    Qubits 2i-1 and 2i of the result are the i-th measured pair; the last N
    qubits are the receiver's register in pair order.
    """
    n = inst.num_qubits
    if js.num_qubits != 3 * n:
        raise ValueError(f"joint state has {js.num_qubits} qubit(s), expected {3 * n}")
    return permute_qubits(js, _measurement_order(inst))


def bell_project(rs: StateVector, outcome: Sequence[int]) -> StateVector:
    """Contract the measured qubits of a rearranged state against Bell bras.

    Returns the receiver's unnormalized residual; summed over all outcomes the
    squared norms add up to the total squared norm of ``rs``.
    """
    out = tuple(int(a) for a in outcome)
    n = len(out)
    if rs.num_qubits != 3 * n:
        raise ValueError(f"state has {rs.num_qubits} qubit(s), expected {3 * n}")
    validate_outcome(out, n)
    t = rs.amps.reshape((4,) * n + (1 << n,))
    for a in out:
        t = np.tensordot(np.conj(bell_state(a)), t, axes=(0, 0))
    return StateVector(n, t.reshape(-1))


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

    The predictions come from the outcome table, built only after the joint
    state has been rearranged and dropped so the two do not add to the peak.
    """
    n = inst.num_qubits
    rs = rearrange_for_measurement(joint_state(inst), inst)
    predicted, _ = _outcome_table(inst)
    max_diff = -1.0
    worst: tuple[int, ...] = ()
    for out, row in zip(itertools.product((1, 2, 3, 4), repeat=n), predicted):
        diff = float(np.abs(bell_project(rs, out).amps - row).max())
        if diff > max_diff:
            max_diff, worst = diff, out
    return CrossCheckReport(
        num_qubits=n,
        convention=inst.convention,
        num_outcomes=len(predicted),
        max_abs_diff=max_diff,
        worst_outcome=worst,
        tolerance=tol,
        passed=max_diff <= tol,
    )
