"""The integral LLL kernel: properties on random integer and rational
bases, checked against the exact oracles in `oracles.py`, and regression
tests for the rounding rule and the successive minima."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latnf.bkz import BkzConfig, bkz_full, c1_bound_sq_ok
from latnf.lattice_core import enumerate_minima, lll, size_reduce
from latnf.qlinalg import mat_det, transpose
from oracles import gso_norms, hnf_rows, is_lll_reduced, lll_reference


def _independent(cols):
    gram = [[sum(Q(a) * b for a, b in zip(u, v)) for v in cols] for u in cols]
    return mat_det(gram) != 0


@st.composite
def bases(draw, rational):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, n + 1))
    if rational:
        entry = st.builds(Q, st.integers(-60, 60), st.integers(1, 12))
    else:
        entry = st.integers(-2 ** 20, 2 ** 20)
    cols = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    assume(_independent(cols))
    return cols


def _int_det(u):
    return mat_det([[Q(x) for x in row] for row in u])


def _check_lll(cols):
    out, u = lll(cols)
    n = len(cols)
    assert abs(_int_det(u)) == 1
    # out = cols * U, and both span the same lattice
    assert out == [[sum(Q(cols[i][r]) * u[i][j] for i in range(n))
                    for r in range(len(cols[0]))] for j in range(n)]
    den = math.lcm(*(Q(x).denominator for c in cols for x in c))
    scaled_in = [[int(Q(x) * den) for x in c] for c in cols]
    scaled_out = [[int(x * den) for x in c] for c in out]
    assert hnf_rows(scaled_in) == hnf_rows(scaled_out)
    assert is_lll_reduced(out)


@settings(max_examples=60, deadline=None)
@given(bases(rational=False))
def test_lll_integer_bases(cols):
    _check_lll(cols)


@settings(max_examples=60, deadline=None)
@given(bases(rational=True))
def test_lll_rational_bases(cols):
    _check_lll(cols)


@settings(max_examples=30, deadline=None)
@given(bases(rational=True))
def test_lll_matches_naive_oracle(cols):
    out, _ = lll(cols)
    assert out == lll_reference(cols)[0]


@settings(max_examples=40, deadline=None)
@given(bases(rational=True), st.integers(2, 4))
def test_c1_bound_matches_oracle_determinant(cols, b):
    n = len(cols)
    detg = math.prod(gso_norms(cols))
    c1 = sum(Q(x) * Q(x) for x in cols[0])
    rhs = (Q(4) ** (n * (b - 1)) * Q(b) ** (n * (n - 1) + 3 * n * (b - 1))
           * detg ** (b - 1))
    assert c1_bound_sq_ok(cols, b) == (c1 ** (n * (b - 1)) <= rhs)


@pytest.mark.parametrize("cols, b", [
    ([[1, 2], [2, 4]], 2), ([[0, 0], [1, 1]], 3),
    ([[3, 0, 0], [0, 0, 0], [1, 1, 0]], 2), ([[Q(1, 2), 1], [1, 2]], 4)])
def test_c1_bound_dependent_columns(cols, b):
    # det(G) = 0: the bound holds only when c_1 = 0
    assert c1_bound_sq_ok(cols, b) == (not any(cols[0]))


class TestTieRule:
    """mu = +1/2 rounds to 1, mu = -1/2 to 0, in every reduction."""

    def test_lll_half_is_reduced(self):
        out, u = lll([[2, 0], [1, 5]])
        assert out == [[2, 0], [-1, 5]]
        assert u == [[1, -1], [0, 1]]
        assert out == lll_reference([[2, 0], [1, 5]])[0]

    def test_lll_minus_half_is_kept(self):
        out, u = lll([[2, 0], [-1, 5]])
        assert out == [[2, 0], [-1, 5]]
        assert u == [[1, 0], [0, 1]]

    def test_lovasz_equality_keeps_order(self):
        # after reduction mu = -1/2 and ||b*_1||^2 = 2 = (3/4 - 1/4) 4
        out, u = lll([[2, 0, 0], [1, 1, 1]])
        assert out == [[2, 0, 0], [-1, 1, 1]]
        assert u == [[1, -1], [0, 1]]

    def test_size_reduce_half(self):
        out, _ = size_reduce([[2, 0], [1, 5]])
        assert out == [[2, 0], [-1, 5]]


def test_generating_radius_reproducer():
    """The successive minima of the uniform d8 basis that reproduced a
    minute-long generating-radius search: its lambda_8^2 is 130156."""
    rng = random.Random("reduce:704:23")
    while True:
        cols = [[rng.randrange(-255, 256) for _ in range(8)] for _ in range(8)]
        if mat_det(transpose(cols)) != 0:
            break
    out, _ = bkz_full(cols, BkzConfig(blocksize=4, tour_cap_constant=Q(1)))
    assert enumerate_minima(out).minima_sq[-1] == 130156


def test_generating_radius_needs_index_one():
    # 2Z^5 + Z(1,...,1): the ten vectors of norm 4 are independent but
    # span 2Z^5, of index 2, so the minima are all 4 although generating
    # needs (1,...,1), of norm 5
    cols = [[2 * (i == j) for i in range(5)] for j in range(4)] + [[1] * 5]
    assert enumerate_minima(cols).minima_sq == [4] * 5
