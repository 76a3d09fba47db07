"""Per-pair 2x2 blocks of the teleportation map, their tensor products and inverses.

When the sender measures each (input qubit, channel-pair half) pair in the
Bell basis, the receiver's register collapses to a tensor product of 2x2
blocks applied to the input amplitudes, one block per channel pair, selected
by that pair's measurement result.  This module builds those blocks.

Every block is the pair's coefficient matrix times a Pauli operator:

    B_r = M @ sigma_r,    sigma = (I, Z, X, -iY) for r = 1..4

where M = [[Y1, Y2], [Y3, Y4]] holds the pair's coefficients over
|00>,|01>,|10>,|11> with the receiver's qubit indexing rows, so M is
transposed under the "receiver holds the second qubit" convention.  Every
block of a pair is therefore invertible exactly when M is, with inverse
sigma_r^-1 @ M^-1.  For a maximally entangled pair M = I/sqrt(2) and the
blocks reduce to scaled Paulis, so recovery is a scaled Pauli.

The common (1/sqrt2)^N prefactor of the collapsed state is NOT folded into
these blocks; the protocol module applies it once.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .channel import Channel, EntangledPair, pair_determinant
from .tensor import _integer, _of_type

__all__ = [
    "DEFAULT_INVERTIBILITY_TOL",
    "PairingConvention",
    "NotInvertibleError",
    "validate_outcome",
    "sub_matrix",
    "decomposition_matrix",
    "inverse_sub_matrix",
    "is_proportional_to_unitary",
]

# A pair whose |det| falls at or below this is treated as non-invertible.
DEFAULT_INVERTIBILITY_TOL = 1e-9

# Singular values closer than this make a block proportional to a unitary.
_UNITARY_TOL = 1e-10

# Bell measurement result for each pair, entries in 1..4.
BellOutcome = tuple[int, ...]

# sigma_r for Bell result r at index r - 1: I, Z, X and -iY.
SIGMA = np.array(
    [[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, -1], [1, 0]]],
    dtype=np.complex128,
)
# Each sigma_r is real and orthogonal, so its inverse is its transpose: I, Z, X and iY.
_SIGMA_INV = np.ascontiguousarray(SIGMA.transpose(0, 2, 1))
SIGMA.flags.writeable = False
_SIGMA_INV.flags.writeable = False


class PairingConvention(Enum):
    """Which qubit of each channel pair the receiver keeps.

    The sender always measures her input qubit against the other half.
    Swapping convention exchanges the two middle pair coefficients, which
    transposes every block.
    """

    BOB_HOLDS_FIRST = "bob-holds-first"
    BOB_HOLDS_SECOND = "bob-holds-second"


class NotInvertibleError(ValueError):
    """Raised when a recovery transform does not exist for some pair(s)."""

    def __init__(self, message: str, pair_indices: Iterable[int] = ()):
        super().__init__(message)
        self.pair_indices = tuple(pair_indices)


def validate_outcome(outcome: Sequence[int], num_pairs: int) -> BellOutcome:
    """The integer results as a tuple of ints, after checking length and 1..4 range."""
    out = tuple(_integer(a, "Bell results must be integers") for a in outcome)
    if len(out) != num_pairs:
        raise ValueError(f"outcome length {len(out)} does not match {num_pairs} pair(s)")
    if any(a < 1 or a > 4 for a in out):
        raise ValueError(f"Bell results must be in 1..4, got {out}")
    return out


def _valid_tol(tol, what: str = "tolerance"):
    """``tol`` when it is a finite real number >= 0, numpy's included, and not a bool."""
    if (
        not isinstance(tol, (float, int, np.floating, np.integer))
        or isinstance(tol, bool)
        or not 0 <= tol < math.inf
    ):
        raise ValueError(f"{what} must be a finite number >= 0, got {tol!r}")
    return tol


def _invertible(det: complex, tol: float) -> bool:
    """Whether a pair of determinant ``det`` has inverse blocks: |det| above ``tol``.

    Raises ValueError unless ``tol`` is a finite number >= 0: a negative
    tolerance would pass a singular pair and a NaN one would fail every pair.
    """
    return abs(det) > _valid_tol(tol)


def _coefficient_matrix(pair: EntangledPair, convention: PairingConvention) -> np.ndarray:
    """M: the pair's coefficients as a 2x2 matrix, the receiver's qubit indexing rows."""
    m = _of_type(pair, EntangledPair, "pair must be an EntangledPair").amplitude_matrix()
    if convention is PairingConvention.BOB_HOLDS_FIRST:
        return m
    if convention is PairingConvention.BOB_HOLDS_SECOND:
        return m.T
    raise ValueError(f"unknown convention {convention!r}")


def pair_blocks(pair: EntangledPair, convention: PairingConvention) -> np.ndarray:
    """The pair's four blocks M @ sigma_r stacked as (4, 2, 2), entry r - 1 for result r."""
    return _coefficient_matrix(pair, convention) @ SIGMA


def sub_matrix(pair: EntangledPair, bell_index: int, convention: PairingConvention) -> np.ndarray:
    """2x2 block the receiver's qubit picks up for one pair and one Bell result."""
    (r,) = validate_outcome((bell_index,), 1)
    return pair_blocks(pair, convention)[r - 1]


def decomposition_matrix(
    channel: Channel, outcome: Sequence[int], convention: PairingConvention
) -> np.ndarray:
    """The 2^N x 2^N map of one outcome: the tensor product of per-pair blocks.

    Factor i acts on the receiver's qubit from pair i, the first factor on
    the most significant bit.
    """
    _of_type(channel, Channel, "channel must be a Channel")
    out = validate_outcome(outcome, len(channel.pairs))
    return reduce(
        np.kron, [pair_blocks(p, convention)[r - 1] for p, r in zip(channel.pairs, out)]
    )


def _inverse_coefficient_matrix(
    pair: EntangledPair, convention: PairingConvention, tol: float
) -> np.ndarray:
    """M^-1: the 2x2 adjugate over the checked pair determinant, which forms
    a*d - b*c of M from the same two products under either convention; also
    NotInvertibleError when M^-1 leaves the float range, as at ``tol`` = 0."""
    det = pair_determinant(pair)
    if not _invertible(det, tol):
        raise NotInvertibleError(
            f"pair determinant magnitude {abs(det):.3e} is <= {tol:.3e}; "
            "no recovery transform exists"
        )
    (a, b), (c, d) = _coefficient_matrix(pair, convention)
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = np.array([[d, -b], [-c, a]]) / det
    if not np.isfinite(inverse).all():
        raise NotInvertibleError(
            f"the inverse of a pair of determinant magnitude {abs(det):.3e} "
            "leaves the float range; no recovery transform exists"
        )
    return inverse


def _inverse_product(inverses: Iterable[np.ndarray]) -> np.ndarray:
    """The tensor product of the given inverses, the first factor on the most
    significant bit; NotInvertibleError when an entry leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = reduce(np.kron, inverses)
    if not np.isfinite(product).all():
        raise NotInvertibleError("the tensor product of the pair inverses leaves the float range")
    return product


def inverse_pair_blocks(
    pair: EntangledPair,
    convention: PairingConvention,
    tol: float = DEFAULT_INVERTIBILITY_TOL,
) -> np.ndarray:
    """The inverses sigma_r^-1 @ M^-1 of the pair's four blocks stacked as (4, 2, 2).

    Every block of a pair has determinant +-(Y1*Y4 - Y2*Y3), so a single
    near-zero check on the pair determinant covers all four results; ``tol``
    must be a finite number >= 0.  The inverses are generally NOT unitary;
    they are scaled unitaries exactly when the pair is maximally entangled.
    """
    return _SIGMA_INV @ _inverse_coefficient_matrix(pair, convention, tol)


def inverse_sub_matrix(
    pair: EntangledPair,
    bell_index: int,
    convention: PairingConvention,
    tol: float = DEFAULT_INVERTIBILITY_TOL,
) -> np.ndarray:
    """Exact 2x2 inverse of ``sub_matrix``, entry r - 1 of ``inverse_pair_blocks``."""
    (r,) = validate_outcome((bell_index,), 1)
    return inverse_pair_blocks(pair, convention, tol)[r - 1]


def is_proportional_to_unitary(m: np.ndarray) -> tuple[bool, float | None]:
    """Whether a 2x2 block is a scalar multiple of a unitary.

    True exactly when both singular values agree within 1e-10; the second
    element is then that common singular value (the scale), otherwise None.
    """
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)
    if abs(s[0] - s[1]) <= _UNITARY_TOL:
        return True, float(s.mean())
    return False, None
