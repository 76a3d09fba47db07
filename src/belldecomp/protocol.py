"""End-to-end teleportation semantics for one input state and one channel.

Everything here is phrased per measurement outcome: the unnormalized
collapsed state of the receiver's register, its squared norm as the Born
probability, the recovery transform, and enumeration or sampling over all
4^N outcomes.  Enumeration order is lexicographic in the per-pair results
and independent of evaluation strategy.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .channel import NORM_WARN_TOL, Channel, EntangledPair, concurrence, pair_determinant
from .decomposition import (
    DEFAULT_INVERTIBILITY_TOL,
    BellOutcome,
    NotInvertibleError,
    PairingConvention,
    inverse_pair_blocks,
    is_proportional_to_unitary,
    pair_blocks,
    validate_outcome,
)
from .tensor import StateVector, fidelity

__all__ = [
    "ENUMERATION_CAP",
    "TeleportationInstance",
    "OutcomeRecord",
    "OutcomeTable",
    "PairDiagnostics",
    "ChannelReport",
    "collapsed_state",
    "recover",
    "channel_criterion",
    "enumerate_outcomes",
    "sample_outcome",
    "random_state",
    "random_pair",
    "random_channel",
    "random_instance",
]

# Enumerating 4^N outcomes beyond this is refused rather than attempted.
ENUMERATION_CAP = 8


def _check_unit_norm(squared_norm: float, what: str) -> None:
    """Raise ValueError when the norm is off 1 by more than ``NORM_WARN_TOL``."""
    # sqrt of a vdot: half the cost of np.linalg.norm on vectors this small.
    norm = math.sqrt(squared_norm)
    if abs(norm - 1.0) > NORM_WARN_TOL:
        raise ValueError(f"{what} must have unit norm, got {norm:.6g}")


@dataclass(frozen=True)
class TeleportationInstance:
    """An input state plus the channel it is sent through.

    The input state and every pair must have unit norm to within
    ``NORM_WARN_TOL``; the Born probabilities only sum to 1 when they do.
    """

    input_state: StateVector
    channel: Channel
    convention: PairingConvention

    def __post_init__(self) -> None:
        if self.input_state.num_qubits != len(self.channel.pairs):
            raise ValueError(
                f"input has {self.input_state.num_qubits} qubit(s) but channel has "
                f"{len(self.channel.pairs)} pair(s)"
            )
        _check_unit_norm(self.input_state.squared_norm(), "input state")
        for i, p in enumerate(self.channel.pairs, start=1):
            _check_unit_norm(p.squared_norm(), f"channel pair {i}")

    @property
    def num_qubits(self) -> int:
        return self.input_state.num_qubits


def _contract_pair(
    blocks: np.ndarray, t: np.ndarray, buf: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Apply k stacked 2x2 blocks to the leading qubit axis of ``t``.

    ``t`` is (2, m), the same amplitudes for every block, or (k, 2, m), one
    slice per block.  The result is a view of ``out`` shaped (m, k, 2): the
    new (result, qubit) axes move to the back, so the next pair's qubit
    leads.  ``buf`` holds the (k, 2, m) product on the way.  Elementwise
    products keep this off BLAS: threaded OpenBLAS calls of these shapes were
    measured to stall for about 8 ms each on a 2-CPU machine.
    """
    k, m = len(blocks), t.shape[-1]
    t = t.reshape(-1, 2, m)
    product = buf[: 2 * k * m].reshape(k, 2, m)
    np.multiply(blocks[:, :, :1], t[:, :1], out=product)
    product += blocks[:, :, 1:] * t[:, 1:]
    moved = out[: 2 * k * m].reshape(m, k, 2)
    moved[...] = product.transpose(2, 0, 1)
    return moved


def collapsed_state(inst: TeleportationInstance, outcome: Sequence[int]) -> StateVector:
    """Receiver's register right after the given measurement outcome, unnormalized.

    Equals (1/sqrt2)^N times the outcome's block tensor product applied to the
    input amplitudes; its squared norm is the Born probability of the outcome.
    This is the one-row case of ``_outcome_table``: each pair's block stack is
    cut to the outcome's result, and with one result per pair the interleaved
    layout of the last contraction is already the amplitudes in order.
    """
    n = inst.num_qubits
    out = validate_outcome(outcome, n)
    blocks = [
        pair_blocks(p, inst.convention)[r - 1 : r] for p, r in zip(inst.channel.pairs, out)
    ]
    t = inst.input_state.amps * math.sqrt(0.5) ** n
    buf, amps = (np.empty(1 << n, dtype=np.complex128) for _ in range(2))
    for b in blocks:
        t = _contract_pair(b, t.reshape(2, -1), buf, amps)
    return StateVector(n, amps)


def _non_invertible_pairs(channel: Channel, tol: float) -> tuple[int, ...]:
    return tuple(
        i for i, p in enumerate(channel.pairs, start=1) if abs(pair_determinant(p)) <= tol
    )


def recover(
    collapsed: StateVector,
    inst: TeleportationInstance,
    outcome: Sequence[int],
    tol: float = DEFAULT_INVERTIBILITY_TOL,
) -> tuple[StateVector, float]:
    """Undo the outcome's blocks, renormalize, and report fidelity to the input.

    The one-row case of ``_recovery_fidelities``, as ``collapsed_state`` is
    of ``_outcome_table``.  Raises NotInvertibleError naming the offending
    pair(s) when any pair determinant magnitude is at or below ``tol``.
    """
    n = inst.num_qubits
    out = validate_outcome(outcome, n)
    if collapsed.num_qubits != n:
        raise ValueError(f"collapsed state has {collapsed.num_qubits} qubit(s), expected {n}")
    bad = _non_invertible_pairs(inst.channel, tol)
    if bad:
        raise NotInvertibleError(
            f"pair(s) {', '.join(map(str, bad))} have determinant magnitude <= {tol:.3e}; "
            "recovery transform does not exist",
            pair_indices=bad,
        )
    blocks = [
        inverse_pair_blocks(p, inst.convention, tol)[r - 1 : r]
        for p, r in zip(inst.channel.pairs, out)
    ]
    t = collapsed.amps
    buf, amps = (np.empty(1 << n, dtype=np.complex128) for _ in range(2))
    for b in blocks:
        t = _contract_pair(b, t.reshape(2, -1), buf, amps)
    recovered = StateVector(n, amps).normalized()
    return recovered, fidelity(recovered, inst.input_state)


@dataclass(frozen=True)
class PairDiagnostics:
    """Invertibility and entanglement figures for one pair (1-based index)."""

    index: int
    determinant: complex
    concurrence: float
    invertible: bool
    unitary_proportional: bool
    unitary_scale: float | None


@dataclass(frozen=True)
class ChannelReport:
    """Per-pair diagnostics plus the overall go/no-go verdict.

    ``success`` is True when every pair is invertible, the necessary
    condition for completing the protocol.  ``unitary_proportional`` is
    informational: recovery exists but is non-unitary when it is False.
    """

    pairs: tuple[PairDiagnostics, ...]
    success: bool
    failed_pairs: tuple[int, ...]


def channel_criterion(channel: Channel, tol: float = DEFAULT_INVERTIBILITY_TOL) -> ChannelReport:
    """Evaluate whether teleportation through this channel can succeed.

    Every pair must have unit norm to within ``NORM_WARN_TOL``, as in
    ``TeleportationInstance``; the concurrence and scale assume it.  The
    block singular values do not depend on the Bell result or the pairing
    convention, so the unitary-proportionality flag is computed once per
    pair from its coefficient matrix.
    """
    diags = []
    for i, p in enumerate(channel.pairs, start=1):
        _check_unit_norm(p.squared_norm(), f"channel pair {i}")
        det = pair_determinant(p)
        unitary, scale = is_proportional_to_unitary(p.amplitude_matrix())
        diags.append(
            PairDiagnostics(
                index=i,
                determinant=det,
                concurrence=concurrence(p),
                invertible=abs(det) > tol,
                unitary_proportional=unitary,
                unitary_scale=scale,
            )
        )
    failed = tuple(d.index for d in diags if not d.invertible)
    return ChannelReport(tuple(diags), success=not failed, failed_pairs=failed)


@dataclass(frozen=True)
class OutcomeRecord:
    """One enumerated outcome.

    ``collapsed`` is normalized when the probability is positive and the zero
    vector otherwise; ``recovered_fidelity`` is None instead of NaN when the
    outcome has zero probability or the channel is not invertible.
    """

    outcome: BellOutcome
    probability: float
    collapsed: StateVector
    recovered_fidelity: float | None
    invertible: bool


# The table passes work on chunks of outcomes that share the results of all
# but the last _CHUNK_PAIRS pairs, and always the first pair's result.  No
# buffer or temporary then holds more than 4^_CHUNK_PAIRS outcomes' states,
# 1 MB at N = 8, next to the 268 MB table.
_CHUNK_PAIRS = 4


def _chunk_rows(n: int) -> int:
    return 4 ** min(n - 1, _CHUNK_PAIRS)


def _chunks(stacks: list[np.ndarray]):
    """Each chunk's rows in the outcome table and the block stacks that act on it.

    The leading pairs, whose results the chunk fixes, contribute only the
    block for that result.
    """
    n = len(stacks)
    size = _chunk_rows(n)
    lead = n - min(n - 1, _CHUNK_PAIRS)
    for c, prefix in enumerate(itertools.product(range(4), repeat=lead)):
        blocks = [s[r : r + 1] for s, r in zip(stacks, prefix)] + stacks[lead:]
        yield slice(c * size, (c + 1) * size), blocks


def _row_order(flat: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """A chunk buffer in interleaved layout, viewed in row order.

    After every pair's ``_contract_pair`` a chunk's axes are (r1, q1, ...,
    rN, qN): pair i's result and the receiver's qubit i.  As rows of the
    table they are (r1, ..., rN, q1, ..., qN).
    """
    n = len(blocks)
    shape = tuple(d for b in blocks for d in (len(b), 2))
    order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    return flat[: math.prod(shape)].reshape(shape).transpose(order)


def _outcome_table(inst: TeleportationInstance) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized collapsed states of all 4^N outcomes and their Born probabilities.

    Row k of the (4^N, 2^N) table is ``collapsed_state`` of the k-th outcome in
    lexicographic order.  Each chunk of rows is contracted one pair at a time
    in two chunk-sized buffers and then copied into place.
    """
    n = inst.num_qubits
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"refusing to enumerate 4**{n} outcomes (cap is {ENUMERATION_CAP} qubits)"
        )
    stacks = [pair_blocks(p, inst.convention) for p in inst.channel.pairs]
    x = inst.input_state.amps * math.sqrt(0.5) ** n
    table = np.empty((4**n, 1 << n), dtype=np.complex128)
    buf, out = (np.empty(_chunk_rows(n) << n, dtype=np.complex128) for _ in range(2))
    for rows, blocks in _chunks(stacks):
        t = x
        for b in blocks:
            t = _contract_pair(b, t.reshape(2, -1), buf, out)
        ordered = _row_order(out, blocks)
        table[rows].reshape(ordered.shape)[...] = ordered
    flat = table.view(np.float64)
    return table, np.einsum("ij,ij->i", flat, flat)


def _recovery_fidelities(
    inst: TeleportationInstance, collapsed: np.ndarray, tol: float
) -> np.ndarray:
    """Fidelity to the input of every row of ``collapsed`` after its inverse blocks.

    The rows are the 4^N outcomes' collapsed states in lexicographic order.
    Chunk by chunk, the rows are copied into interleaved layout, where each
    pair's four inverse blocks act on their own results' slices, and back.
    Rows of zero norm give NaN.
    """
    n = inst.num_qubits
    stacks = [inverse_pair_blocks(p, inst.convention, tol) for p in inst.channel.pairs]
    x = inst.input_state.amps.conj()
    overlap = np.empty(4**n, dtype=np.complex128)
    norm2 = np.empty(4**n)
    buf, out = (np.empty(_chunk_rows(n) << n, dtype=np.complex128) for _ in range(2))
    for rows, blocks in _chunks(stacks):
        ordered = _row_order(out, blocks)
        ordered[...] = collapsed[rows].reshape(ordered.shape)
        t = out
        for b in blocks:
            t = _contract_pair(b, t.reshape(len(b), 2, -1), buf, out)
        recovered = buf.reshape(-1, 1 << n)
        recovered.reshape(ordered.shape)[...] = ordered
        np.einsum("ij,j->i", recovered, x, out=overlap[rows])
        flat = recovered.view(np.float64)
        np.einsum("ij,ij->i", flat, flat, out=norm2[rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        fid = np.abs(overlap) ** 2 / (norm2 * inst.input_state.squared_norm())
    return np.minimum(fid, 1.0)


@dataclass(frozen=True, eq=False)
class OutcomeTable(Sequence[OutcomeRecord]):
    """All 4^N outcomes of one instance as read-only arrays.

    Row k of every array is the k-th outcome in lexicographic order of the
    per-pair results.  ``collapsed`` (4^N, 2^N) holds the normalized collapsed
    states, with zero rows where the probability is 0.  ``fidelities`` is NaN
    where recovery is undefined: zero probability, a non-invertible channel,
    or recovery not computed.  As a sequence it yields one ``OutcomeRecord``
    per row, built on demand; indices are integers, negative ones included.
    """

    probabilities: np.ndarray
    collapsed: np.ndarray
    fidelities: np.ndarray
    invertible: bool

    def __len__(self) -> int:
        return len(self.probabilities)

    def __getitem__(self, index: int) -> OutcomeRecord:
        k = operator.index(index)
        if not -len(self) <= k < len(self):
            raise IndexError(f"outcome index {index} out of range for {len(self)} outcomes")
        k %= len(self)
        n = self.collapsed.shape[1].bit_length() - 1
        fid = float(self.fidelities[k])
        return OutcomeRecord(
            tuple(int(d) + 1 for d in np.unravel_index(k, (4,) * n)),
            float(self.probabilities[k]),
            StateVector(n, self.collapsed[k]),
            None if math.isnan(fid) else fid,
            self.invertible,
        )

    def __iter__(self) -> Iterator[OutcomeRecord]:
        n = self.collapsed.shape[1].bit_length() - 1
        for out, p, amps, fid in zip(
            itertools.product((1, 2, 3, 4), repeat=n),
            self.probabilities.tolist(),
            self.collapsed,
            self.fidelities.tolist(),
        ):
            yield OutcomeRecord(
                out, p, StateVector(n, amps), None if math.isnan(fid) else fid, self.invertible
            )


def enumerate_outcomes(
    inst: TeleportationInstance,
    tol: float = DEFAULT_INVERTIBILITY_TOL,
    compute_recovery: bool = True,
) -> OutcomeTable:
    """All 4^N outcomes in lexicographic order of the per-pair results.

    For a normalized instance the probabilities sum to 1 up to float error.
    The collapsed states take 16 * 8^N bytes; every record's ``collapsed``
    amplitudes are a row view of that one array.
    """
    table, probs = _outcome_table(inst)
    norms = np.sqrt(probs)
    zero = norms == 0.0
    norms[zero] = 1.0
    table /= norms[:, None]
    table[zero] = 0.0
    invertible = not _non_invertible_pairs(inst.channel, tol)
    if compute_recovery and invertible:
        fids = _recovery_fidelities(inst, table, tol)
    else:
        fids = np.full(len(table), np.nan)
    for a in (probs, table, fids):
        a.flags.writeable = False
    return OutcomeTable(probs, table, fids, invertible)


def sample_outcome(inst: TeleportationInstance, seed: int) -> BellOutcome:
    """Draw one outcome from the Born distribution, deterministically per seed.

    Zero-probability outcomes are never produced: the draw inverts the
    cumulative distribution, and empty intervals cannot contain it.
    """
    _, probs = _outcome_table(inst)
    cum = np.cumsum(probs)
    u = np.random.default_rng(seed).random() * cum[-1]
    idx = min(int(np.searchsorted(cum, u, side="right")), len(probs) - 1)
    return tuple(int(d) + 1 for d in np.unravel_index(idx, (4,) * inst.num_qubits))


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish normalized state with independent complex normal amplitudes."""
    dim = 1 << num_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(num_qubits, amps).normalized()


def random_pair(rng: np.random.Generator) -> EntangledPair:
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return EntangledPair(y / np.linalg.norm(y))


def random_channel(num_pairs: int, rng: np.random.Generator) -> Channel:
    return Channel(tuple(random_pair(rng) for _ in range(num_pairs)))


def random_instance(
    num_qubits: int, rng: np.random.Generator, convention: PairingConvention
) -> TeleportationInstance:
    return TeleportationInstance(
        random_state(num_qubits, rng), random_channel(num_qubits, rng), convention
    )
