"""The Fincke-Pohst enumeration of `lattice_core` against a brute-force
box search that uses no Gram-Schmidt data (`oracles.short_vectors_
reference`), and on Grams whose GSO ratios B_k = (d_{k+1}/d_k) / R leave
the float range, where a level must compare exactly.

The hypothesis Grams come from upper-triangular bases whose columns sit
at scales 2^0 to 2^1500, reordered and multiplied by 2^k with k up to
4,000; the radius is the shortest basis vector's norm or twice that
vector's (both ties), or one more than the shortest.

The successive minima of a Gram scaled by a positive rational scale
with it.
"""

import signal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latnf.lattice_core import (FLOAT_EXP, IntegralGSO, _Radius,
                                enumerate_minima_gram, enumerate_short_gram,
                                shortest_gram)
from latnf.qlinalg import mat_det
from oracles import short_box_size, short_vectors_reference


@pytest.fixture
def alarm():
    """Fail a test that runs for more than 30 s instead of hanging."""
    def expire(*_):
        raise TimeoutError("enumeration did not end")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _gram(cols):
    return [[sum(a * b for a, b in zip(ci, cj)) for cj in cols]
            for ci in cols]


@st.composite
def grams(draw):
    n = draw(st.integers(1, 5))
    exps = [draw(st.sampled_from((0, 0, 300, 600, 1000, 1500)))
            for _ in range(n)]
    cols = []
    for j in range(n):
        col = [draw(st.integers(-2 ** exps[i], 2 ** exps[i]))
               for i in range(j)]
        col.append(draw(st.integers(1, 3)) * 2 ** exps[j])
        cols.append(col + [0] * (n - 1 - j))
    order = draw(st.permutations(range(n)))
    scale = 2 ** draw(st.integers(0, 4000))
    g = [[scale * x for x in row] for row in _gram([cols[k] for k in order])]
    shortest = min(g[i][i] for i in range(n))
    radius = draw(st.sampled_from((shortest, 4 * shortest, shortest + 1)))
    assume(short_box_size(g, radius) <= 4000)
    return g, radius


@settings(max_examples=80, deadline=None)
@given(grams())
def test_matches_the_box_search(case):
    g, radius = case
    assert enumerate_short_gram(g, radius) == short_vectors_reference(g, radius)


def test_an_exact_level_between_float_levels(alarm):
    # ||b*||^2 = 9, 2^2000, 4 and R = 36 = ||2 b_0||^2: B_1 = 2^2000 / 36
    # compares exactly; an odd x_2 puts level 1's centre at a half, which
    # it prunes, an even one passes p = e / (d_1 R) on to level 0
    cols = [[3, 0, 0], [1, 2 ** 1000, 0], [1, 2 ** 999, 2]]
    g = _gram(cols)
    weights = _Radius(IntegralGSO(g).d, 36, 1).weights
    assert weights[0] == 0.25 and weights[1] is None and weights[2] == 1 / 9
    assert short_box_size(g, 36) <= 4000
    vecs = enumerate_short_gram(g, 36)
    assert vecs == short_vectors_reference(g, 36)
    assert ((2, 0, 0), 36) in vecs and ((0, -1, 2), 17) in vecs


def test_a_tiny_weight_below_a_tie(alarm):
    # diag(1, 2^3000): for the second minimum, R = 2^3000 gives level 0
    # B_0 = 2^-3000, which a float walk would underflow to 0 and never
    # leave
    g = [[1, 0], [0, 2 ** 3000]]
    assert enumerate_minima_gram(g).minima_sq == [1, 2 ** 3000]
    assert shortest_gram([[2 ** 3000, 0], [0, 1]]) == ([0, 1], 1)


def test_a_huge_weight_at_the_top(alarm):
    # R = 1 gives B_1 = 2^3000: only x_1 = 0 survives
    g = [[1, 0], [0, 2 ** 3000]]
    assert _Radius(IntegralGSO(g).d, 1, 1).weights == [1.0, None]
    assert enumerate_short_gram(g, 1) == [((1, 0), 1)]


def test_float_range_edge():
    # B_k = 2^(FLOAT_EXP - 1) is a float level, 2^(FLOAT_EXP + 1) exact
    d = [1, 2 ** (FLOAT_EXP - 1), 2 ** (2 * FLOAT_EXP)]
    assert _Radius(d, 1, 1).weights == [2.0 ** (FLOAT_EXP - 1), None]


@st.composite
def small_grams(draw):
    n = draw(st.integers(1, 4))
    cols = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    g = _gram(cols)
    assume(mat_det(g) != 0)
    return g


@settings(max_examples=40, deadline=None)
@given(small_grams(), st.sampled_from((Fraction(1, 4), Fraction(3, 2),
                                       Fraction(9, 8))))
def test_report_scales_with_the_gram(g, c):
    rep = enumerate_minima_gram(g)
    scaled = enumerate_minima_gram([[x * c for x in row] for row in g])
    assert scaled.minima_sq == [m * c for m in rep.minima_sq]
