"""Property tests for the block factorization B_r = M @ sigma_r."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from belldecomp import EntangledPair, PairingConvention, sub_matrix
from belldecomp.decomposition import SIGMA, inverse_pair_blocks, inverse_sub_matrix, pair_blocks

PAULIS = [
    np.eye(2),
    np.diag([1.0, -1.0]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    -1j * np.array([[0, -1j], [1j, 0]]),
]

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
coefficients = st.lists(st.builds(complex, finite, finite), min_size=4, max_size=4)
conventions = st.sampled_from(list(PairingConvention))
results = st.sampled_from([1, 2, 3, 4])


def coefficient_matrix(pair: EntangledPair, conv: PairingConvention) -> np.ndarray:
    m = pair.y.reshape(2, 2)
    return m if conv is PairingConvention.BOB_HOLDS_FIRST else m.T


def test_sigma_is_i_z_x_minus_iy():
    assert np.array_equal(SIGMA, np.array(PAULIS))


@given(coefficients, results, conventions)
def test_block_is_coefficient_matrix_times_sigma(y, r, conv):
    pair = EntangledPair(np.array(y))
    assert np.array_equal(sub_matrix(pair, r, conv), coefficient_matrix(pair, conv) @ SIGMA[r - 1])


@given(coefficients, conventions)
def test_stacked_blocks_match_single_blocks(y, conv):
    pair = EntangledPair(np.array(y))
    stacked = pair_blocks(pair, conv)
    for r in (1, 2, 3, 4):
        assert np.array_equal(stacked[r - 1], sub_matrix(pair, r, conv))


@given(coefficients, conventions)
def test_stacked_inverses_match_single_inverses(y, conv):
    pair = EntangledPair(np.array(y))
    assume(abs(pair.y[0] * pair.y[3] - pair.y[1] * pair.y[2]) > 1e-9)
    stacked = inverse_pair_blocks(pair, conv)
    for r in (1, 2, 3, 4):
        assert np.array_equal(stacked[r - 1], inverse_sub_matrix(pair, r, conv))
