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

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .channel import Channel, EntangledPair, pair_determinant

__all__ = [
    "DEFAULT_INVERTIBILITY_TOL",
    "SIGMA",
    "PairingConvention",
    "NotInvertibleError",
    "BellOutcome",
    "validate_outcome",
    "sub_matrix",
    "pair_blocks",
    "DecompositionMatrix",
    "decomposition_matrix",
    "inverse_sub_matrix",
    "inverse_pair_blocks",
    "is_proportional_to_unitary",
]

# A pair whose |det| falls at or below this is treated as non-invertible.
DEFAULT_INVERTIBILITY_TOL = 1e-9

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
    """Coerce to a tuple of ints and check length and 1..4 range."""
    out = tuple(int(a) for a in outcome)
    if len(out) != num_pairs:
        raise ValueError(f"outcome length {len(out)} does not match {num_pairs} pair(s)")
    if any(a < 1 or a > 4 for a in out):
        raise ValueError(f"Bell results must be in 1..4, got {out}")
    return out


def _check_bell_index(bell_index: int) -> None:
    if bell_index not in (1, 2, 3, 4):
        raise ValueError(f"Bell result must be in 1..4, got {bell_index}")


def _coefficient_matrix(pair: EntangledPair, convention: PairingConvention) -> np.ndarray:
    """M: the pair's coefficients as a 2x2 matrix, the receiver's qubit indexing rows."""
    if convention is PairingConvention.BOB_HOLDS_FIRST:
        return pair.amplitude_matrix()
    if convention is PairingConvention.BOB_HOLDS_SECOND:
        return pair.amplitude_matrix().T
    raise ValueError(f"unknown convention {convention!r}")


def sub_matrix(pair: EntangledPair, bell_index: int, convention: PairingConvention) -> np.ndarray:
    """2x2 block the receiver's qubit picks up for one pair and one Bell result."""
    _check_bell_index(bell_index)
    return _coefficient_matrix(pair, convention) @ SIGMA[bell_index - 1]


def pair_blocks(pair: EntangledPair, convention: PairingConvention) -> np.ndarray:
    """The pair's four blocks stacked as (4, 2, 2); entry r - 1 is ``sub_matrix(pair, r, ...)``."""
    return _coefficient_matrix(pair, convention) @ SIGMA


@dataclass(frozen=True)
class DecompositionMatrix:
    """Tensor product of per-pair blocks for one full measurement outcome."""

    matrix: np.ndarray
    outcome: BellOutcome
    convention: PairingConvention


def decomposition_matrix(
    channel: Channel, outcome: Sequence[int], convention: PairingConvention
) -> DecompositionMatrix:
    """Build the 2^N x 2^N map as the tensor product of per-pair blocks.

    Factor i acts on the receiver's qubit from pair i, the first factor on
    the most significant bit.
    """
    out = validate_outcome(outcome, len(channel.pairs))
    blocks = [sub_matrix(p, a, convention) for p, a in zip(channel.pairs, out)]
    return DecompositionMatrix(reduce(np.kron, blocks), out, convention)


def _inverse_coefficient_matrix(
    pair: EntangledPair, convention: PairingConvention, tol: float
) -> np.ndarray:
    """M^-1 by the 2x2 adjugate, after the pair determinant check."""
    if abs(pair_determinant(pair)) <= tol:
        raise NotInvertibleError(
            f"pair determinant magnitude {abs(pair_determinant(pair)):.3e} is <= {tol:.3e}; "
            "no recovery transform exists"
        )
    (a, b), (c, d) = _coefficient_matrix(pair, convention)
    return np.array([[d, -b], [-c, a]]) / (a * d - b * c)


def inverse_sub_matrix(
    pair: EntangledPair,
    bell_index: int,
    convention: PairingConvention,
    tol: float = DEFAULT_INVERTIBILITY_TOL,
) -> np.ndarray:
    """Exact 2x2 inverse of ``sub_matrix``: sigma_r^-1 @ M^-1.

    Every block of a pair has determinant +-(Y1*Y4 - Y2*Y3), so a single
    near-zero check on the pair determinant covers all four results.  The
    inverse is generally NOT unitary; it is a scaled unitary exactly when
    the pair is maximally entangled.
    """
    _check_bell_index(bell_index)
    return _SIGMA_INV[bell_index - 1] @ _inverse_coefficient_matrix(pair, convention, tol)


def inverse_pair_blocks(
    pair: EntangledPair,
    convention: PairingConvention,
    tol: float = DEFAULT_INVERTIBILITY_TOL,
) -> np.ndarray:
    """The inverses of the pair's four blocks stacked as (4, 2, 2), M inverted once."""
    return _SIGMA_INV @ _inverse_coefficient_matrix(pair, convention, tol)


def is_proportional_to_unitary(
    m: np.ndarray, tol: float = 1e-10
) -> tuple[bool, float | None]:
    """Whether a 2x2 block is a scalar multiple of a unitary.

    True exactly when both singular values agree within ``tol``; the second
    element is then that common singular value (the scale), otherwise None.
    """
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)
    if abs(s[0] - s[1]) <= tol:
        return True, float(s.mean())
    return False, None
