"""Dense state vectors and the small tensor utilities everything else builds on.

Bit-ordering convention used across the package: qubit 1 is the most
significant bit of an amplitude index and qubit M the least significant.
For a 3-qubit register ``amps[1]`` is therefore the coefficient of |001>.

All operations here are pure functions on immutable values; none of them
mutate their arguments.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_EQ_TOL",
    "StateVector",
    "fidelity",
]

# Max-abs entry difference used by equality-style checks package-wide.
DEFAULT_EQ_TOL = 1e-10


def _integer(x, what: str, low: float = -math.inf, high: float = math.inf) -> int:
    """``x`` as an int when it is an integer in [low, high], numpy's included, and not a bool.

    Anything with ``__index__`` counts as an integer.  Otherwise raises
    ValueError("<what>, got <repr of x>").
    """
    # bool is an int subclass, so the exact type is tested first.
    integer = type(x) is int or (
        not isinstance(x, (bool, np.bool_)) and hasattr(type(x), "__index__")
    )
    if not integer or not low <= operator.index(x) <= high:
        raise ValueError(f"{what}, got {x!r}")
    return operator.index(x)


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``num_qubits`` qubits as a flat array of 2**num_qubits amplitudes.

    ``amps`` is read-only.  A read-only complex128 array is kept as given and
    anything else is copied, so no caller can write into the state through
    the array it passed; code that wraps an array it has just built marks
    it read-only first and saves the copy.
    """

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        n = _integer(self.num_qubits, "num_qubits must be a positive integer", 1)
        amps = self.amps
        if not isinstance(amps, np.ndarray) or amps.dtype != np.complex128 or amps.flags.writeable:
            amps = np.array(amps, dtype=np.complex128)
        amps = amps.reshape(-1)
        # Writeable only when it is a copy, here or in reshape; setting the
        # flag costs more than reading it.
        if amps.flags.writeable:
            amps.flags.writeable = False
        # No array holds 2**63 amplitudes, and 1 << n of a huge n would not fit in memory.
        if n >= 63 or amps.size != 1 << n:
            expected = 1 << n if n < 63 else f"2**{n}"
            raise ValueError(f"expected {expected} amplitudes for {n} qubit(s), got {amps.size}")
        _check_finite(amps)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amps", amps)

    def __eq__(self, other: object) -> bool:
        """Equal qubit counts and exactly equal amplitudes."""
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.array_equal(self.amps, other.amps)

    def squared_norm(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "StateVector":
        return StateVector(self.num_qubits, _unit(self.amps))


def _check_finite(amps: np.ndarray) -> None:
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")


def _unit(amps: np.ndarray) -> np.ndarray:
    """``amps`` divided by their 2-norm, as a new read-only array.

    The normalisation of ``StateVector.normalized`` and of the state
    ``recover`` returns.  Raises ValueError for a zero state.  The amplitudes
    must be finite: the division turns an infinite one into NaN, with a
    warning.
    """
    n = float(np.linalg.norm(amps))
    if n == 0.0:
        raise ValueError("cannot normalize a zero state")
    amps = amps / n
    amps.flags.writeable = False
    return amps


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 with both sides normalized; raises on zero-norm input."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit count mismatch: {a.num_qubits} vs {b.num_qubits}")
    na2 = a.squared_norm()
    nb2 = b.squared_norm()
    if na2 == 0.0 or nb2 == 0.0:
        raise ValueError("fidelity is undefined for a zero-norm state")
    overlap = np.vdot(a.amps, b.amps)
    return min(1.0, float(abs(overlap) ** 2 / (na2 * nb2)))
