"""Exact Born probabilities of dyadic instances, against the float table.

With Gaussian-rational amplitudes the protocol is exact rational arithmetic:
outcome r leaves v_r = (B_1 (x) ... (x) B_N) x on the receiver's register, up to
the factor 2^(-N/2), for B_i[b, a] = sum_s y_i[b, s] sqrt2 <Bell_{r_i}|a s>, and
p_r = 2^-N |v_r|^2.  Every amplitude below is an integer over a power of two, so
its float64 copy is the rational itself and every difference from the table is
the engine's own rounding.  The helper imports only the library's constructors.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from belldecomp import (
    Channel,
    EntangledPair,
    PairingConvention,
    StateVector,
    TeleportationInstance,
    enumerate_outcomes,
)

BHF = PairingConvention.BOB_HOLDS_FIRST
BHS = PairingConvention.BOB_HOLDS_SECOND

U = Fraction(1, 2**53)  # unit roundoff of float64


@dataclass(frozen=True)
class Gaussian:
    """re + i im over the rationals."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    def norm2(self) -> Fraction:
        return self.re**2 + self.im**2

    def l1(self) -> Fraction:
        """|re| + |im|, at least the modulus."""
        return abs(self.re) + abs(self.im)


ZERO = Gaussian(Fraction(0))

# sqrt2 times Bell state r over |a s>, input qubit a first: entries 0 and +-1.
BELL = ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))

# Gaussian integers over a power of two, each of unit norm.  The first two are
# neither symmetric nor maximally entangled, so their probabilities tell the
# conventions apart; the third is a unitary over sqrt2.
PAIRS = (((3, 2, 1 + 1j, 1), 4), ((1 + 1j, 1, 0, 1), 2), ((1, 1j, 1, -1j), 2))
INPUTS = {
    1: ((1 + 1j, 1 - 1j), 2),
    2: ((1 + 1j, 1, 0, 1), 2),
    3: ((3, 2, 1, 1, 1, 0, 0, 0), 4),
}


def exact(values, denominator: int) -> list[Gaussian]:
    return [
        Gaussian(Fraction(int(z.real), denominator), Fraction(int(z.imag), denominator))
        for z in map(complex, values)
    ]


def as_floats(values, denominator: int) -> list[complex]:
    return [complex(z) / denominator for z in values]


def dyadic_instance(n: int, conv: PairingConvention) -> TeleportationInstance:
    """N = 1..3: ``INPUTS[n]`` through the first n of ``PAIRS``; every float is exact."""
    inst = TeleportationInstance(
        StateVector(n, as_floats(*INPUTS[n])),
        Channel(tuple(EntangledPair(as_floats(*p)) for p in PAIRS[:n])),
        conv,
    )
    floats = [*inst.input_state.amps] + [y for p in inst.channel.pairs for y in p.y]
    rationals = exact(*INPUTS[n]) + [y for p in PAIRS[:n] for y in exact(*p)]
    assert [(Fraction(z.real), Fraction(z.imag)) for z in floats] == [
        (q.re, q.im) for q in rationals
    ]
    return inst


def exact_blocks(pair, conv: PairingConvention) -> list[list[list[Gaussian]]]:
    """B_r[b][a] for r = 1..4: the pair's amplitude y[b, s], b the receiver's qubit and
    s the sender's, against sqrt2 <Bell_r|a s>."""
    y = exact(*pair)
    if conv is BHS:  # the receiver holds the second qubit: y[b, s] is the transpose
        y = [y[0], y[2], y[1], y[3]]
    return [
        [[sum((y[2 * b + s] * Gaussian(Fraction(bell[2 * a + s])) for s in (0, 1)), ZERO)
          for a in (0, 1)] for b in (0, 1)]
        for bell in BELL
    ]


def exact_outcomes(n: int, conv: PairingConvention):
    """For every outcome in lexicographic order: v_r, the receiver's amplitudes times
    2^(N/2), and for each amplitude j the sum over its terms x[a] prod_i B_i[j_i, a_i]
    of |x[a]|_1 prod_i |B_i[j_i, a_i]|_1, with |z|_1 = |re z| + |im z|."""
    x = exact(*INPUTS[n])
    blocks = [exact_blocks(p, conv) for p in PAIRS[:n]]
    bits = list(itertools.product((0, 1), repeat=n))  # the first qubit most significant
    for outcome in itertools.product(range(4), repeat=n):
        v, magnitude = [], []
        for j in bits:
            total, size = ZERO, Fraction(0)
            for k, a in enumerate(bits):
                term, bound = x[k], x[k].l1()
                for i in range(n):
                    entry = blocks[i][outcome[i]][j[i]][a[i]]
                    term, bound = term * entry, bound * entry.l1()
                total, size = total + term, size + bound
            v.append(total)
            magnitude.append(size)
        yield v, magnitude


@pytest.mark.parametrize("conv", [BHF, BHS])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_probabilities_are_the_exact_ones_to_rounding(n, conv):
    """The exact probabilities sum to 1 exactly, and each computed one is within the
    bound below of its exact value.

    The table scales the input by the float s = fl(sqrt(1/2))^N, then per pair
    multiplies by M's entries and adds or subtracts two products.  So every
    computed amplitude c' sums the 2^N terms 2^(-N/2) x[a] prod_i B_i[j_i, a_i] of
    the exact c through N + 1 complex products, by s and by one entry per pair, and
    N adds.  s is 2^(-N/2) (1 + e) with (1 + e)^2 = rho = s^2 2^N, exact from the
    float, so |e| <= |rho - 1|.  A complex product errs by at most sqrt5 u <= 9u/4
    relative and an add by u, relative to the value it rounds, a sum of some of
    the terms.  So |c' - c| <= g A for g = (1 + |e|)(1 + 9u/4)^(N + 1)(1 + u)^N - 1
    and A the sum of the terms' magnitudes, at most 2^(-N/2) times the exact L1
    figure of ``exact_outcomes``.  Hence the exact S = sum |c'|^2 is within
    E = sum_j (2 g |c_j| A_j + g^2 A_j^2) of p, with |c_j| <= 2^(-N/2) |v_j|_1.
    The probability sums the 2^(N + 1) squared parts of c': each passes one
    multiply and at most 2^(N + 1) - 1 adds in any order, so it is within
    h S <= h (p + E) of S, h = (1 + u)^(2^(N + 1)) - 1.  The bound is E + h (p + E).
    No amplitude here nears the subnormal range, so no underflow term is needed.
    """
    inst = dyadic_instance(n, conv)
    probabilities = enumerate_outcomes(inst).probabilities
    rho = Fraction(math.sqrt(0.5) ** n) ** 2 * 2**n
    g = (1 + abs(rho - 1)) * (1 + Fraction(9, 4) * U) ** (n + 1) * (1 + U) ** n - 1
    h = (1 + U) ** (2 ** (n + 1)) - 1
    total = Fraction(0)
    for computed, (v, magnitude) in zip(probabilities.tolist(), exact_outcomes(n, conv)):
        p = sum(z.norm2() for z in v) / 2**n
        e = sum(2 * g * z.l1() * m + g**2 * m**2 for z, m in zip(v, magnitude)) / 2**n
        assert abs(Fraction(computed) - p) <= e + h * (p + e)
        total += p
    assert total == 1
