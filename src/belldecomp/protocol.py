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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channel import NORM_WARN_TOL, Channel, EntangledPair, pair_determinant
from .decomposition import (
    DEFAULT_INVERTIBILITY_TOL,
    SIGMA,
    BellOutcome,
    NotInvertibleError,
    PairingConvention,
    _coefficient_matrix,
    _inverse_product,
    _invertible,
    inverse_pair_blocks,
    is_proportional_to_unitary,
    pair_blocks,
    validate_outcome,
)
from .tensor import StateVector, _integer, _unit, fidelity

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

# Enumerating or sampling the outcomes of more qubits than this is refused.
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

    The blocks, determinants, inverse blocks and the recovery pass's W^T
    depend on the channel and the convention alone, so each is built on its
    first use and kept, as a read-only array or a tuple.  Each kernel reads
    one stack, kept in its own layout, input index first: ``_coefficients``,
    every pair's M in 64 * N bytes, for the table passes and
    ``collapsed_state``, which apply B_r = M sigma_r as M times the halves of
    their input kept, negated or swapped; ``_blocks`` for the sampler and
    ``_inverse_step_blocks`` for ``recover``, 256 * N bytes each.  Every
    value they are built from is immutable: the fields are frozen and pair
    coefficients are read-only.  Determinants are kept, never a verdict:
    each caller compares them with its own tolerance.  Nothing that depends
    on the input state is kept.
    """

    input_state: StateVector
    channel: Channel
    convention: PairingConvention

    def __post_init__(self) -> None:
        if not isinstance(self.input_state, StateVector):
            raise ValueError(
                f"input_state must be a StateVector, got {type(self.input_state).__name__}"
            )
        if not isinstance(self.channel, Channel):
            raise ValueError(f"channel must be a Channel, got {type(self.channel).__name__}")
        if not isinstance(self.convention, PairingConvention):
            raise ValueError(f"convention must be a PairingConvention, got {self.convention!r}")
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

    @cached_property
    def _blocks(self) -> np.ndarray:
        """Every pair's ``pair_blocks`` input index first, as ``_apply_blocks`` reads
        them: (N, 2, 1, 4, 2), with B_k[b, a] at [i, a, 0, k, b]."""
        stacks = np.stack([pair_blocks(p, self.convention) for p in self.channel.pairs])
        return _copy_as(stacks, (0, 3, 1, 2))[:, :, None]

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """Every pair's coefficient matrix M by columns, as ``_contract_pair`` and
        ``_contract_outcome`` read it: (N, 2, 2, 1), with M[b, a] at [i, a, b, 0]."""
        stacks = np.stack([_coefficient_matrix(p, self.convention) for p in self.channel.pairs])
        return _copy_as(stacks, (0, 2, 1))[..., None]

    @cached_property
    def _determinants(self) -> tuple[complex, ...]:
        return tuple(map(pair_determinant, self.channel.pairs))

    @cached_property
    def _inverse_step_blocks(self) -> np.ndarray:
        """Every pair's ``inverse_pair_blocks``, sigma_r^-1 M^-1, as ``recover`` reads them:
        (N, 4, 2, 2, 1), with (sigma_r^-1 M^-1)[b, a] at [i, r - 1, a, b, 0].

        Entry [:, 0] is every pair's M^-1 transposed, since sigma_1 = I.
        Callers first check every determinant with ``_invertible`` at their
        tolerance >= 0, so none is 0; NotInvertibleError names a pair whose
        M^-1 still leaves the float range.
        """
        stacks = []
        for i, p in enumerate(self.channel.pairs, start=1):
            try:
                stacks.append(inverse_pair_blocks(p, self.convention, 0.0))
            except NotInvertibleError as exc:
                raise NotInvertibleError(f"pair {i}: {exc}", pair_indices=(i,)) from None
        return _copy_as(np.stack(stacks), (0, 1, 3, 2))[..., None]

    @cached_property
    def _recovery_matrix(self) -> np.ndarray | None:
        """W^T, where W = M_1^-1 (x) ... (x) M_N^-1 is every outcome's shared inverse
        in ``_fidelity_rows``: 16 * 4^N bytes, 1 MiB at N = 8; None past the float range.

        Built from ``_inverse_step_blocks``, so only once a caller's
        invertibility check has passed.  The M_i^-1 are copied C-ordered, so
        W^T is Fortran-ordered at N = 1 too.
        """
        inverses = _copy_as(self._inverse_step_blocks[:, 0, :, :, 0], (0, 2, 1))
        try:
            return _read_only(_inverse_product(inverses).T)
        except NotInvertibleError:
            return None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _copy_as(a: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """A read-only C-ordered copy of ``a.transpose(axes)``."""
    return _read_only(np.ascontiguousarray(a.transpose(axes)))


def _result_step(columns: np.ndarray, r: int) -> tuple[np.ndarray, np.ufunc]:
    """The factors and the combining ufunc that apply B_r = M sigma_r for result r.

    ``columns`` holds M by columns, M[b, a] at [a, b, 0].  sigma_r t keeps,
    negates or swaps the two halves t0, t1 of t, so B_r t is M's columns,
    reversed for r = 3, 4, times t's halves, added for r = 1, 3 and
    subtracted for r = 2, 4: M0 t0 + M1 t1, M0 t0 - M1 t1, M1 t0 + M0 t1 and
    M1 t0 - M0 t1.  The columns are the first factors, as B_r's are in
    ``_apply_blocks``: numpy's complex multiply is not bit for bit
    symmetric in its operands.
    """
    return (columns if r < 3 else columns[::-1]), (np.add if r % 2 else np.subtract)


def _contract_pair(columns: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Apply the four blocks B_r = M sigma_r to the leading input qubit of ``t``.

    ``columns`` is the pair's entry of the instance's ``_coefficients``.
    ``t`` is (m, rows, q): for each of ``rows`` results of the pairs before,
    the amplitudes over m basis states of the input qubits still to measure,
    this pair's qubit leading, and q of the receiver qubits so far.  The
    result is a view of ``out`` shaped (m / 2, rows * 4, 2 * q): this pair's
    result follows the earlier results and its receiver qubit follows the
    earlier qubits, so the next pair's input qubit leads and, after the last
    pair, the rows are outcome rows in lexicographic order.  One multiply
    forms M0 t0 and M1 t1 and one M1 t0 and M0 t1, 8 complex products per 8
    outputs, in one product array of half the output, and
    ``_result_step``'s add or subtract writes each result's amplitudes
    straight into its place in ``out``, which must not hold ``t``.  Single
    outcomes take the same steps in ``_contract_outcome``.  Elementwise
    products keep this off BLAS: threaded OpenBLAS calls of these shapes
    were measured to stall for about 8 ms each on a 2-CPU machine.
    """
    m, rows, q = t.shape
    m //= 2
    t = t.reshape(2, 1, -1)
    pair = np.empty((2, 2, t.size // 2), dtype=np.complex128)
    p0, p1 = pair.reshape(2, 2, m, rows, q)
    moved = out[: 4 * t.size].reshape(m, rows, 4, q, 2)
    for r in (1, 2, 3, 4):
        factors, combine = _result_step(columns, r)
        # Results 1 and 2 share their products, as do 3 and 4.
        if r % 2:
            np.multiply(factors, t, out=pair)
        combine(p0, p1, out=moved[:, :, r - 1].transpose(3, 0, 1, 2))
    return moved.reshape(m, rows * 4, 2 * q)


def _apply_blocks(blocks: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """``out[m', k, b] = B_k[b, 0] t[0, m'] + B_k[b, 1] t[1, m']`` for a pair's blocks B_k.

    The sampler's step.  ``t`` holds 2^n amplitudes whose leading qubit is
    this pair's input qubit, ``blocks`` is the pair's entry of the
    instance's ``_blocks``, B_k[b, a] at [a, 0, k, b], and ``out`` is
    (2^(n-1), 4, 2), so each child's receiver qubit follows the qubits
    still to measure.  One multiply forms the products for both values a of
    the input qubit, input-major as [a, m', k, b]: 8 * 2^n amplitudes, freed
    after the step.  One add sums the a = 0 and a = 1 products into
    ``out``.  B_k's entries are +-M's, so these are the table's products and
    sums up to the signs of exact zeros, and the children's squared norms
    are those of the table's rows.  The block must be the first factor:
    numpy's complex multiply is not bit for bit symmetric in its operands.
    """
    product = np.multiply(blocks, t.reshape(2, -1, 1, 1))
    np.add(product[0], product[1], out=out)


def _contract_outcome(
    steps: Iterable[tuple[np.ndarray, np.ufunc]], t: np.ndarray
) -> np.ndarray:
    """Each pair's step, factors and combining ufunc, applied in turn to the amplitudes ``t``.

    ``collapsed_state`` gives ``_result_step``'s M columns and add or
    subtract for each result, ``recover`` the inverse block from
    ``_inverse_step_blocks`` and an add.  Pair i's step writes
    ``out[m', b] = combine(F[0, b] t[0, m'], F[1, b] t[1, m'])`` for its
    factors F, so its receiver qubit moves behind the rest and, after the
    last pair, the returned flat 2^N amplitudes are in order.  One multiply
    forms the products for both values a of the leading input qubit as
    [a, b, m'], the 2^(n-1) remaining amplitudes m' innermost, and one add or
    subtract combines them into ``out`` through its transpose.  That is the
    arithmetic of ``_contract_pair`` with one row, factors first, so a
    collapsed state is its table row byte for byte.  The steps share one
    product buffer of 2^(N+1) amplitudes: a new product per step, 32 MiB at
    N = 20, took up to twice as long there.
    """
    m = t.size // 2
    product = np.empty((2, 2, m), dtype=np.complex128)
    for factors, combine in steps:
        np.multiply(factors, t.reshape(2, 1, m), out=product)
        t = np.empty((m, 2), dtype=np.complex128)
        combine(product[0], product[1], out=t.T)
    return t.reshape(-1)


def collapsed_state(inst: TeleportationInstance, outcome: Sequence[int]) -> StateVector:
    """Receiver's register right after the given measurement outcome, unnormalized.

    Equals (1/sqrt2)^N times the outcome's block tensor product applied to the
    input amplitudes; its squared norm is the Born probability of the outcome.
    Row k of the chunks ``_outcome_chunks`` yields is this for the k-th outcome.
    """
    n = inst.num_qubits
    out = validate_outcome(outcome, n)
    steps = map(_result_step, inst._coefficients, out)
    amps = _contract_outcome(steps, inst.input_state.amps * math.sqrt(0.5) ** n)
    return StateVector(n, _read_only(amps))


def _non_invertible_pairs(inst: TeleportationInstance, tol: float) -> tuple[int, ...]:
    return tuple(i for i, d in enumerate(inst._determinants, start=1) if not _invertible(d, tol))


def recover(
    collapsed: StateVector,
    inst: TeleportationInstance,
    outcome: Sequence[int],
    tol: float = DEFAULT_INVERTIBILITY_TOL,
) -> tuple[StateVector, float]:
    """Undo the outcome's blocks, renormalize, and report fidelity to the input.

    Each pair's inverse block sigma_r^-1 M^-1 for its result is applied with
    the per-pair step of ``collapsed_state``; the instance builds the
    inverse blocks on the first call that passes the check below and keeps
    them.  ``enumerate_outcomes`` gets the same fidelities, to rounding, from
    one shared M^-1 product per run of table rows read in each outcome's
    Pauli frame.  Every call compares the pair determinants with its own
    ``tol``: it raises NotInvertibleError naming the offending pair(s) when
    any determinant magnitude is at or below ``tol``, and ValueError unless
    ``tol`` is a finite number >= 0.  The recovered amplitudes are normalized
    at any magnitude; they raise ValueError when one is not finite or all
    are zero.
    """
    n = inst.num_qubits
    out = validate_outcome(outcome, n)
    if collapsed.num_qubits != n:
        raise ValueError(f"collapsed state has {collapsed.num_qubits} qubit(s), expected {n}")
    bad = _non_invertible_pairs(inst, tol)
    if bad:
        raise NotInvertibleError(
            f"pair(s) {', '.join(map(str, bad))} have determinant magnitude <= {tol:.3e}; "
            "recovery transform does not exist",
            pair_indices=bad,
        )
    steps = ((s[r - 1], np.add) for s, r in zip(inst._inverse_step_blocks, out))
    recovered = StateVector(n, _unit(_contract_outcome(steps, collapsed.amps))[0])
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
    pair from its coefficient matrix.  ``tol`` must be a finite number >= 0.
    """
    if not isinstance(channel, Channel):
        raise ValueError(f"channel must be a Channel, got {type(channel).__name__}")
    diags = []
    for i, p in enumerate(channel.pairs, start=1):
        _check_unit_norm(p.squared_norm(), f"channel pair {i}")
        det = pair_determinant(p)
        unitary, scale = is_proportional_to_unitary(p.amplitude_matrix())
        diags.append(
            PairDiagnostics(
                index=i,
                determinant=det,
                concurrence=2.0 * abs(det),
                invertible=_invertible(det, tol),
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
# but the last few pairs, and always the first pair's result.  No buffer or
# temporary then holds more than one chunk of outcomes' states.  The table's
# build, Pauli frames and recovery cover the last _TABLE_PAIRS pairs: at N = 6
# that is 4 chunks of 1 MiB, 4 zgemm calls and 21 pair steps per table (the
# lead pair once, then 5 per chunk), where 4^4-row chunks would take 16 calls
# and 66 steps (2, then 4 per chunk).  The recovery product's BLAS policy is
# fewer, larger calls.
_TABLE_PAIRS = 5

# ``cross_check``'s chunks cover the last _CHECK_PAIRS pairs, 1 MiB at N = 8,
# and so does the level they share up to N = 8.  On 4^5-row chunks its calls
# at N = 6 took about 1,570 minor page faults each, as the freed heap went
# back to the kernel, and ``verify-n6`` ran 1-11 % slower (2-CPU Xeon, glibc).
_CHECK_PAIRS = 4

# sigma_r as a signed permutation, entries 0 and +-1 (-iY is real): row j of
# sigma_r holds _FRAME_SIGN[r - 1, j] in column _FRAME_INDEX[r - 1, j].
_FRAME_INDEX = np.abs(SIGMA).argmax(axis=2)
_FRAME_SIGN = np.take_along_axis(SIGMA.real, _FRAME_INDEX[:, :, None], axis=2)[:, :, 0]


def _chunk_rows(n: int, pairs: int) -> int:
    return 4 ** min(n - 1, pairs)


def _chunks(n: int, pairs: int):
    """Each chunk's rows in the outcome table and the leading results (0-based) it fixes,
    for chunks that cover the last min(n - 1, ``pairs``) pairs."""
    size = _chunk_rows(n, pairs)
    lead = n - min(n - 1, pairs)
    for c, prefix in enumerate(itertools.product(range(4), repeat=lead)):
        yield slice(c * size, (c + 1) * size), prefix


def _outcome_chunks(
    inst: TeleportationInstance, table: np.ndarray | None, pairs: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Each chunk's rows of the outcome table and its unnormalized collapsed states.

    A chunk covers the last t = min(N - 1, ``pairs``) pairs and fixes the
    results of the N - t lead pairs before them.  The first ``depth`` pairs
    are contracted first, for all their results at once, into a level of
    4^depth * 2^N amplitudes, and each chunk starts from its
    4^(depth - (N - t)) rows of that level.  The table path takes the lead
    pairs only, depth = N - t: at most a chunk up to ``ENUMERATION_CAP``.
    The comparator path (no ``table``) takes depth = max(t, N - t): up to
    N = 2t the level is exactly one chunk, and each chunk contracts only its
    last N - t pairs, so the smallest steps run once per call instead of
    once per chunk.  A chunk's remaining pairs are contracted one pair at a
    time by ``_contract_pair``.  Each step reads the state from the level or
    one buffer and writes the next into the other: the step before the last
    writes a quarter of a chunk and the one before it a sixteenth.  Only the
    buffers some step writes are allocated: the comparator's chunks at N = 6
    take two steps and allocate only the quarter, and at N <= 5 they take one
    step and allocate neither.  Each step's products take half its output,
    half a chunk in the last step, so a chunk's scratch is at most 13/16 of
    a chunk.  The last pair writes the chunk into ``table[rows]`` when a
    table is given, and otherwise into a chunk-sized buffer, which the next
    chunk overwrites.  The rows are the
    same bits under any ``pairs`` and either depth.  The caller checks
    ``ENUMERATION_CAP``.
    """
    n = inst.num_qubits
    lead = n - min(n - 1, pairs)
    depth = lead if table is not None else max(n - lead, lead)
    level = (inst.input_state.amps * math.sqrt(0.5) ** n).reshape(-1, 1, 1)
    for i, columns in enumerate(inst._coefficients[:depth]):
        # At N = 1 the lead pair is the last, and its rows are the table.
        last = i == n - 1 and table is not None
        dest = table.reshape(-1) if last else np.empty(4 * level.size, dtype=np.complex128)
        level = _contract_pair(columns, level, dest)
    size = _chunk_rows(n, pairs) << n
    # Pair i < N - 1 writes buffer (N - 2 - i) % 2, a quarter or a sixteenth of
    # a chunk; a buffer that no pair after the level writes is not allocated.
    states = [
        np.empty(size >> 2 * k, dtype=np.complex128) if depth < n - k else None for k in (1, 2)
    ]
    out = np.empty(size, dtype=np.complex128) if table is None else None
    per = 4 ** (depth - lead)  # level rows per chunk
    for c, (rows, _) in enumerate(_chunks(n, pairs)):
        chunk = level[:, c * per : (c + 1) * per]
        for i, columns in enumerate(inst._coefficients[depth:], start=depth):
            if i < n - 1:
                dest = states[(n - 2 - i) % 2]
            else:
                dest = out if table is None else table[rows].reshape(-1)
            chunk = _contract_pair(columns, chunk, dest)
        yield rows, chunk[0]


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """Divide collapsed states, the rows of ``rows``, by their norms in place, and
    return their squared norms, the Born probabilities.

    numpy divides a complex (re, im) by a real s as (re + im * 0, im - re * 0)
    times 1 / s.  The zero terms only set the signs of zero parts, so when no
    part is zero one multiply by the reciprocal gives the same bits at about
    two thirds of the cost.  Rows of zero probability come out NaN, zeroed.
    """
    flat = rows.view(np.float64)
    probs = np.einsum("ij,ij->i", flat, flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        if flat.all():
            flat *= (1.0 / np.sqrt(probs))[:, None]
        else:
            rows /= np.sqrt(probs)[:, None]
    rows[probs == 0.0] = 0.0
    return probs


def _pauli_frame(results: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Sigma_r = sigma_r1 (x) ... (x) sigma_rn for every r with r_i in ``results[i]`` (0-based).

    Every sigma_r is a real signed permutation, and so is their tensor product:
    row k of the (K, 2^n) ``index`` and ``sign``, for the k-th r in
    lexicographic order, gives (Sigma_r x)[j] = sign[k, j] * x[index[k, j]].
    """
    index = np.zeros((1, 1), dtype=np.intp)
    sign = np.ones((1, 1))
    for rs in results:
        i, s = _FRAME_INDEX[list(rs)], _FRAME_SIGN[list(rs)]
        k = len(index) * len(rs)
        index = (2 * index[:, None, :, None] + i[None, :, None, :]).reshape(k, -1)
        sign = (sign[:, None, :, None] * s[None, :, None, :]).reshape(k, -1)
    return index, sign


@lru_cache(maxsize=ENUMERATION_CAP)
def _frame_gather(n: int) -> np.ndarray:
    """The read-only gather index of every chunk's frames at N = ``n``, (4^t, 2^(n-t), 2^t)
    for the t = min(n - 1, _TABLE_PAIRS) tail pairs.

    It depends on N alone, so it is built once per N and kept: 0.5 MiB at
    N = 6, 2 MiB at N = 8.  Row a of a chunk's ``signed`` array holds the
    amplitudes whose leading bits are a, then their negatives; entry
    (k, a, b) is a flat index into it, for tail result k in lexicographic
    order.
    """
    tail = min(n - 1, _TABLE_PAIRS)
    tail_index, tail_sign = _pauli_frame([range(4)] * tail)
    tail_index += np.where(tail_sign < 0, 1 << tail, 0)
    lead_rows = np.arange(1 << (n - tail))
    return _read_only((lead_rows[:, None] << (tail + 1)) + tail_index[:, None, :])


def _chunk_frames(x: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Each chunk's rows and, row by row, Sigma_r x for the outcome r of that row.

    A chunk's frames are the signed permutation of the leading results it
    fixes times one table over every result of the tail pairs, so nothing
    larger than a chunk is built.  The leading part acts on the 2^N
    amplitudes, once per chunk; one gather then reads every row from them and
    their negatives.  The gather index is ``_frame_gather``'s, kept per N;
    each chunk's leading part is built on every call.  The yielded array is
    one buffer, which the caller may overwrite and the next chunk does.
    """
    n = x.size.bit_length() - 1
    gather = _frame_gather(n)
    x = x.reshape(gather.shape[1], -1)
    out = np.empty(gather.shape, dtype=x.dtype)
    for rows, prefix in _chunks(n, _TABLE_PAIRS):
        index, sign = _pauli_frame([(r,) for r in prefix])
        lead = x[index[0]] * sign[0][:, None]
        signed = np.concatenate([lead, -lead], axis=1)
        # mode="clip" writes straight into ``out``; every index is in range.
        np.take(signed, gather, out=out, mode="clip")
        yield rows, out.reshape(len(out), -1)


def _fidelity_rows(
    inst: TeleportationInstance, collapsed: np.ndarray, framed: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Fidelity to the input of each of a chunk's collapsed states c_r after its inverse.

    ``framed`` holds the chunk's ``_chunk_frames`` of the conjugated input;
    it and ``z``, scratch of the chunk's shape, are overwritten.  Outcome r's
    inverse is Sigma_r^-1 W: W, the tensor product of every M^-1, is shared,
    and Sigma_r, the tensor product of the sigma_{r_i}, is a real signed
    permutation.  So Sigma_r^-1 W c_r has the overlap with x and the norm
    that W c_r has with Sigma_r x: one product with W^T serves the chunk,
    each row read in its outcome's frame.  Rows of zero norm give NaN.  The
    caller has checked that the pairs are invertible and W finite.
    """
    x2 = inst.input_state.squared_norm()
    flat = z.view(np.float64)
    np.matmul(collapsed, inst._recovery_matrix, out=z)
    overlap = np.einsum("ij,ij->i", framed, z)
    # F = on / (on + off): on and off are the squared norms of the parts of
    # Z along and off Sigma_r x.  Taking off from the residual keeps 1 - F
    # accurate when F is near 1, where |overlap|^2 / |Z|^2 loses it.
    on = (overlap.real**2 + overlap.imag**2) / x2
    np.conjugate(z, out=z)
    framed *= (overlap.conj() / x2)[:, None]
    z -= framed
    off = np.einsum("ij,ij->i", flat, flat)
    with np.errstate(invalid="ignore"):
        return on / (on + off)


@dataclass(frozen=True, eq=False)
class OutcomeTable(Sequence[OutcomeRecord]):
    """All 4^N outcomes of one instance as read-only arrays.

    Row k of every array is the k-th outcome in lexicographic order of the
    per-pair results.  ``collapsed`` (4^N, 2^N) holds the normalized collapsed
    states, with zero rows where the probability is 0.  ``fidelities`` is NaN
    where recovery is undefined: zero probability, a non-invertible channel,
    a recovery transform past the float range, or recovery not computed.
    As a sequence it yields one ``OutcomeRecord`` per row, built on demand;
    indices are integers, negative ones included.
    """

    probabilities: np.ndarray
    collapsed: np.ndarray
    fidelities: np.ndarray
    invertible: bool

    def __len__(self) -> int:
        return len(self.probabilities)

    def _record(self, outcome: BellOutcome, p: float, amps: np.ndarray, fid: float):
        fid = None if math.isnan(fid) else fid
        return OutcomeRecord(outcome, p, StateVector(len(outcome), amps), fid, self.invertible)

    def __getitem__(self, index: int) -> OutcomeRecord:
        k = operator.index(index)
        if not -len(self) <= k < len(self):
            raise IndexError(f"outcome index {index} out of range for {len(self)} outcomes")
        k %= len(self)
        n = self.collapsed.shape[1].bit_length() - 1
        return self._record(
            tuple(int(d) + 1 for d in np.unravel_index(k, (4,) * n)),
            float(self.probabilities[k]),
            self.collapsed[k],
            float(self.fidelities[k]),
        )

    def __iter__(self) -> Iterator[OutcomeRecord]:
        n = self.collapsed.shape[1].bit_length() - 1
        return map(
            self._record,
            itertools.product((1, 2, 3, 4), repeat=n),
            self.probabilities.tolist(),
            self.collapsed,
            self.fidelities.tolist(),
        )


def enumerate_outcomes(
    inst: TeleportationInstance,
    tol: float = DEFAULT_INVERTIBILITY_TOL,
    compute_recovery: bool = True,
) -> OutcomeTable:
    """All 4^N outcomes in lexicographic order of the per-pair results.

    For a normalized instance the probabilities sum to 1 up to float error.
    The collapsed states take 16 * 8^N bytes; every record's ``collapsed``
    amplitudes are a row view of that one array.  Each chunk is normalized
    as it is built; recovery runs after the build has freed its buffers.
    ``tol`` must be a finite number >= 0, or ValueError is raised before any
    state is built.
    """
    n = inst.num_qubits
    invertible = not _non_invertible_pairs(inst, tol)
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"refusing to enumerate 4**{n} outcomes (cap is {ENUMERATION_CAP} qubits)"
        )
    table = np.empty((4**n, 1 << n), dtype=np.complex128)
    probs, fids = np.empty(4**n), np.full(4**n, np.nan)
    for rows, chunk in _outcome_chunks(inst, table, _TABLE_PAIRS):
        probs[rows] = _normalize_rows(chunk)
    if compute_recovery and invertible and inst._recovery_matrix is not None:
        z = np.empty((_chunk_rows(n, _TABLE_PAIRS), 1 << n), dtype=np.complex128)
        for rows, framed in _chunk_frames(inst.input_state.amps.conj()):
            fids[rows] = _fidelity_rows(inst, table[rows], framed, z)
    for a in (probs, table, fids):
        a.flags.writeable = False
    return OutcomeTable(probs, table, fids, invertible)


def _valid_seed(seed) -> int:
    """``seed`` as an int when it is a non-negative integer, numpy's included, and not a bool."""
    return _integer(seed, "seed must be a non-negative integer", 0)


def _inverse_cdf_step(weights: list[float], u: float) -> tuple[int, float]:
    """The child whose interval holds the fraction ``u`` of the total weight, and
    where in that interval, as a fraction of it.

    Zero weights have empty intervals and are never chosen.  Should rounding
    carry ``u`` past the last child, the last child of positive weight is
    taken, at the top of its interval.
    """
    x = u * sum(weights)
    for r, w in enumerate(weights):
        if x < w:
            return r, x / w
        x -= w
    return max(r for r, w in enumerate(weights) if w > 0.0), 1.0


def sample_outcome(inst: TeleportationInstance, seed: int) -> BellOutcome:
    """Draw one outcome from the Born distribution, deterministically per seed.

    ``seed`` must be a non-negative integer; numpy integers are accepted.
    One uniform from ``numpy.random.default_rng(seed)`` inverts the cumulative
    distribution over the outcomes in lexicographic order, pair by pair.  By
    Kraus completeness the squared norms of pair i's four blocks applied to
    the running state are proportional to the probabilities of the results
    drawn so far followed by each result of pair i, so each step picks one of
    four children of the running state and keeps it.  A draw costs O(N * 2^N),
    one buffer of 4 * 2^N amplitudes for the children, one of 2^N for the
    running state and, within each step, ``_apply_blocks``'s product of
    8 * 2^N; the 4^N outcomes are never tabulated.  Zero-probability
    outcomes are never produced.
    """
    seed = _valid_seed(seed)
    n = inst.num_qubits
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"refusing to sample {n}-qubit outcomes (cap is {ENUMERATION_CAP} qubits)"
        )
    u = np.random.default_rng(seed).random()
    state = inst.input_state.amps.copy()
    children = np.empty((1 << (n - 1), 4, 2), dtype=np.complex128)
    flat = children.view(np.float64)
    outcome = []
    for blocks in inst._blocks:
        _apply_blocks(blocks, state, children)
        r, u = _inverse_cdf_step(np.einsum("ikj,ikj->k", flat, flat).tolist(), u)
        state.reshape(-1, 2)[...] = children[:, r]
        outcome.append(r + 1)
    return tuple(outcome)


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    """Haar-ish normalized state with independent complex normal amplitudes."""
    dim = 1 << _integer(num_qubits, "num_qubits must be a positive integer", 1)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(num_qubits, amps).normalized()


def random_pair(rng: np.random.Generator) -> EntangledPair:
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return EntangledPair(_unit(y)[0])


def random_channel(num_pairs: int, rng: np.random.Generator) -> Channel:
    n = _integer(num_pairs, "num_pairs must be a positive integer", 1)
    return Channel(tuple(random_pair(rng) for _ in range(n)))


def random_instance(
    num_qubits: int, rng: np.random.Generator, convention: PairingConvention
) -> TeleportationInstance:
    return TeleportationInstance(
        random_state(num_qubits, rng), random_channel(num_qubits, rng), convention
    )
