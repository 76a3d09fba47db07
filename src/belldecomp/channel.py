"""Entangled channel pairs, the Bell states and pair diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import _integer, _of_type

__all__ = [
    "EntangledPair",
    "Channel",
    "bell_state",
    "pair_determinant",
]

# A state or pair whose norm deviates from 1 by more than this is off unit
# norm: the library rejects it, and the CLI renormalizes it with a warning.
NORM_WARN_TOL = 1e-6

# Rows are the four Bell states expressed over |00>, |01>, |10>, |11>,
# with the common 1/sqrt(2) prefactor left off so every entry is 0 or +-1.
_BELL_ROWS = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=np.float64,
)


@dataclass(frozen=True)
class EntangledPair:
    """One two-qubit channel pair: coefficients of |00>, |01>, |10>, |11>.

    ``y`` is a read-only copy of the coefficients given, so the blocks an
    instance builds from it once stay valid.
    """

    y: np.ndarray

    def __post_init__(self) -> None:
        y = np.array(self.y, dtype=np.complex128).reshape(-1)
        if y.size != 4:
            raise ValueError(f"a pair needs exactly 4 coefficients, got {y.size}")
        if not np.all(np.isfinite(y.view(np.float64))):
            raise ValueError("pair coefficients must be finite")
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    def __eq__(self, other: object) -> bool:
        """Exactly equal coefficients."""
        if not isinstance(other, EntangledPair):
            return NotImplemented
        return np.array_equal(self.y, other.y)

    def amplitude_matrix(self) -> np.ndarray:
        """Coefficients as a 2x2 matrix, first qubit indexing rows."""
        return self.y.reshape(2, 2)

    def squared_norm(self) -> float:
        return float(np.vdot(self.y, self.y).real)


@dataclass(frozen=True)
class Channel:
    """Ordered collection of the pairs shared between sender and receiver."""

    pairs: tuple[EntangledPair, ...]

    def __post_init__(self) -> None:
        pairs = tuple(self.pairs)
        if len(pairs) < 1:
            raise ValueError("a channel needs at least one pair")
        if not all(isinstance(p, EntangledPair) for p in pairs):
            raise ValueError("channel pairs must be EntangledPair instances")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def bell_state(index: int) -> np.ndarray:
    """Unit-norm Bell state ``index`` (1..4) as a 4-amplitude vector."""
    r = _integer(index, "Bell state index must be in 1..4", 1, 4)
    return _BELL_ROWS[r - 1].astype(np.complex128) / np.sqrt(2.0)


def pair_determinant(pair: EntangledPair) -> complex:
    """Determinant of the pair's 2x2 coefficient matrix.

    Nonzero determinant is exactly the condition under which the recovery
    transforms exist; for a normalized pair 2*|det| is the concurrence.
    """
    y = _of_type(pair, EntangledPair, "pair must be an EntangledPair").y
    return complex(y[0] * y[3] - y[1] * y[2])

