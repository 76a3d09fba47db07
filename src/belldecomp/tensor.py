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


def _of_type(value, cls: type, what: str):
    """``value`` when it is a ``cls``; otherwise raises ValueError("<what>, got <its type>")."""
    if not isinstance(value, cls):
        raise ValueError(f"{what}, got {type(value).__name__}")
    return value


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
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amps", amps)

    def __eq__(self, other: object) -> bool:
        """Equal qubit counts and exactly equal amplitudes."""
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.array_equal(self.amps, other.amps)

    def squared_norm(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def normalized(self) -> "StateVector":
        return StateVector(self.num_qubits, _unit(self.amps)[0])


# np.linalg.norm takes the root of a plain sum of squared parts.  Squares
# below 2**-1022 go subnormal but drop less than half an ulp of a sum of
# 2**-1022 or more, and sums overflow from 2**1024, so the plain norm is exact
# to rounding on [2**-511, 2**512).  Its top half-binade is given up: vdot,
# checked first, does not warn on overflow, as np.linalg.norm does.
_TRUSTED_NORMS = (2.0**-511, 2.0**511)


def _unit(amps: np.ndarray) -> tuple[np.ndarray, float]:
    """``amps`` divided by their 2-norm, as a new read-only array, and that norm.

    The package's one normalisation.  Inside ``_TRUSTED_NORMS`` it is
    ``amps / np.linalg.norm(amps)``; outside, the parts are first divided by
    the largest of them, and the true norm, inf past the float range, is
    returned.  Raises ValueError for a zero state or a non-finite amplitude.
    """
    if np.vdot(amps, amps).real < 2.0**1023:
        norm = float(np.linalg.norm(amps))
        if norm >= _TRUSTED_NORMS[0]:
            unit = amps / norm
            unit.flags.writeable = False
            return unit, norm
    parts = np.ascontiguousarray(amps).view(np.float64)
    scale = float(np.abs(parts).max(initial=0.0))
    if not scale < math.inf:
        raise ValueError("amplitudes must be finite")
    if scale == 0.0:
        raise ValueError("cannot normalize a zero state")
    # Divided as floats: numpy divides a complex by a subnormal through 1 / scale.
    # The largest part is then 1, so the plain norm is trusted.
    unit, norm = _unit((parts / scale).view(np.complex128))
    return unit, scale * norm


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 with both sides normalized; raises on a zero state."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit count mismatch: {a.num_qubits} vs {b.num_qubits}")
    na2, nb2 = a.squared_norm(), b.squared_norm()
    low, high = _TRUSTED_NORMS
    # Outside, na2 * nb2 or the squared overlap below it may leave the normal floats.
    if not (low <= na2 <= high and low <= nb2 <= high):
        a, b = a.normalized(), b.normalized()
        na2, nb2 = a.squared_norm(), b.squared_norm()
    overlap = np.vdot(a.amps, b.amps)
    return min(1.0, float(abs(overlap) ** 2 / (na2 * nb2)))
