"""Dense state vectors and the small tensor utilities everything else builds on.

Bit-ordering convention used across the package: qubit 1 is the most
significant bit of an amplitude index and qubit M the least significant.
For a 3-qubit register ``amps[1]`` is therefore the coefficient of |001>.

All operations here are pure functions on immutable values; none of them
mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_EQ_TOL",
    "StateVector",
    "fidelity",
]

# Max-abs entry difference used by equality-style checks package-wide.
DEFAULT_EQ_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``num_qubits`` qubits as a flat array of 2**num_qubits amplitudes."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_qubits
        # bool is an int subclass, so the exact type is tested; numpy integers pass too.
        if (type(n) is not int and not isinstance(n, np.integer)) or n < 1:
            raise ValueError(f"num_qubits must be a positive integer, got {n!r}")
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        # No array holds 2**63 amplitudes, and 1 << n of a huge n would not fit in memory.
        if n >= 63 or amps.size != 1 << n:
            expected = 1 << n if n < 63 else f"2**{n}"
            raise ValueError(f"expected {expected} amplitudes for {n} qubit(s), got {amps.size}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
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
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.num_qubits, self.amps / n)


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
