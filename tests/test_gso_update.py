"""The in-place updates of `IntegralGSO` that BKZ' runs on, and the block
HKZ it reads off that state.

- `apply` moves a block of the basis by a unimodular transform through
  swaps, shears and negations.  The integral GSO of a basis is unique, so
  d, lam and the tracked vectors must equal those of a fresh
  `IntegralGSO` of the new basis: on small uniform bases, on the dyadic
  big-entry bases of `test_lattice_pinned`, and on the Q(zeta5) and
  Q(sqrt-163) bases of `test_enum_pinned`.
- `projected_gram` reads d_j times the Gram of a projected block off d
  and lam; it must equal the Gram of the projected vectors, scaled.
- `bkz._hkz_block` reduces the block from that Gram; on every block of
  the captured reductions it must give the transform `hkz_reduce` finds
  on the block's projected vectors, and `bkz_full` must give the
  reference's basis, transform, tours and HKZ count.
- `lattice_core._hkz_int` runs HKZ on one state, moved by `apply` after
  each improving step; its Gram, U, d and lam must equal those of
  `oracles.hkz_int_reference`, which rebuilds the Gram and the state
  after each step: on small uniform Grams, on the dyadic big-entry
  bases, in dimensions 1 and 2, and where b_0 attains lambda_1 already.
"""

import random

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_enum_pinned import captured_reduction
from test_lattice_pinned import _dyadic

from latnf import bkz
from latnf.lattice_core import IntegralGSO, _hkz_int, int_gram, shortest_gram
from latnf.qlinalg import combine_cols, mat_det, transpose

CAPTURED = ("zeta5", "sqrt163")


def _random_unimodular(rng, r, steps):
    """Product of random column swaps, negations and shears (either
    direction, |q| <= 9) on the r x r identity."""
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(steps):
        i, l = rng.sample(range(r), 2) if r > 1 else (0, 0)
        kind, q = rng.randrange(4), rng.randint(-9, 9)
        for row in u:
            if kind == 0:
                row[i], row[l] = row[l], row[i]
            elif kind == 1:
                row[i] = -row[i]
            elif i != l:
                row[i] += q * row[l]
    assert abs(mat_det(u)) == 1
    return u


def _state(cols):
    """IntegralGSO of integer columns, tracking each column followed by
    its column of the identity."""
    n = len(cols)
    return IntegralGSO(int_gram(cols), [list(c) + [int(i == j) for i in range(n)]
                                        for j, c in enumerate(cols)])


def _check_apply(cols, rng):
    n = len(cols)
    r = rng.randint(1, n)
    j = rng.randint(0, n - r)
    u = _random_unimodular(rng, r, rng.randint(0, 4 * r))
    state = _state(cols)
    state.apply(j, u)
    vecs = list(state.vecs)
    start = _state(cols).vecs
    vecs_ref = start[:j] + combine_cols(start[j:j + r], u) + start[j + r:]
    assert vecs == vecs_ref
    fresh = IntegralGSO(int_gram([v[:len(cols[0])] for v in vecs_ref]))
    assert state.d == fresh.d
    assert state.lam == fresh.lam


def _check_projected_gram(cols, rng):
    state = IntegralGSO(int_gram(cols))
    count = rng.randint(1, len(cols))
    j = rng.randint(0, len(cols) - count)
    us = state.projected(cols, j, count)
    # us = d_j pi_j(b), so d_j Gram(pi_j(b)) = Gram(us) / d_j
    want = [[x // state.d[j] for x in row] for row in int_gram(us)]
    assert state.projected_gram(j, count) == want


@st.composite
def uniform_bases(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, n + 1))
    cols = draw(st.lists(st.lists(st.integers(-40, 40), min_size=m,
                                  max_size=m), min_size=n, max_size=n))
    assume(mat_det(int_gram(cols)) != 0)
    return cols


@settings(max_examples=120, deadline=None)
@given(cols=uniform_bases(), seed=st.integers(0, 2 ** 32))
def test_apply_matches_rebuild_uniform(cols, seed):
    rng = random.Random(seed)
    _check_apply(cols, rng)
    _check_projected_gram(cols, rng)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), prec=st.sampled_from([64, 96, 128]),
       seed=st.integers(0, 2 ** 32))
def test_apply_matches_rebuild_dyadic(n, prec, seed):
    rng = random.Random(seed)
    cols = _dyadic(rng, n, prec)
    _check_apply(cols, rng)
    _check_projected_gram(cols, rng)


@pytest.mark.parametrize("name", CAPTURED)
def test_apply_matches_rebuild_captured(name):
    cols, _, blocks = captured_reduction(name)
    rng = random.Random(name)
    for _ in range(20):
        _check_apply(cols, rng)
        _check_projected_gram(cols, rng)
    # every block transform of the reduction, on the basis it moved
    for basis, k, block in blocks:
        _, u = bkz.hkz_reduce(block)
        state = _state(basis)
        state.apply(k, u)
        vecs = _state(basis).vecs
        vecs[k:k + len(u)] = combine_cols(vecs[k:k + len(u)], u)
        fresh = IntegralGSO(int_gram([v[:len(basis[0])] for v in vecs]))
        assert (state.vecs, state.d, state.lam) == (vecs, fresh.d, fresh.lam)


@pytest.mark.parametrize("name", CAPTURED)
def test_block_hkz_matches_projected_vectors(name):
    _, _, blocks = captured_reduction(name)
    assert blocks
    for basis, k, block in blocks:
        state = IntegralGSO(int_gram(basis), [list(c) for c in basis])
        assert bkz._hkz_block(state, k, len(block)) == bkz.hkz_reduce(block)[1]


def test_block_hkz_matches_projected_vectors_seeded():
    rng = random.Random(20)
    for n, b in ((4, 2), (5, 3), (6, 4), (6, 6)):
        cols = _dyadic(rng, n, 64)
        blocks = []
        oracles.bkz_prime_reference(cols, bkz.BkzConfig(blocksize=b), blocks)
        for basis, k, block in blocks:
            state = IntegralGSO(int_gram(basis))
            assert bkz._hkz_block(state, k, b) == bkz.hkz_reduce(block)[1]


@pytest.mark.parametrize("name", CAPTURED)
def test_bkz_full_matches_reference_captured(name):
    cols, cfg, _ = captured_reduction(name)
    out, tr = bkz.bkz_full(cols, cfg)
    assert (out, tr.transform, tr.tours, tr.hkz_calls) == \
        oracles.bkz_full_reference(cols, cfg)
    assert abs(mat_det(transpose(tr.transform))) == 1


def _check_hkz(g):
    state = _hkz_int(g)
    got = (state.projected_gram(0, len(g)), state.transform(), state.d,
           state.lam)
    assert got == oracles.hkz_int_reference(g)


@settings(max_examples=100, deadline=None)
@given(uniform_bases())
def test_hkz_matches_reference_uniform(cols):
    _check_hkz(int_gram(cols))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), prec=st.sampled_from([64, 96, 128]),
       seed=st.integers(0, 2 ** 32))
def test_hkz_matches_reference_dyadic(n, prec, seed):
    _check_hkz(int_gram(_dyadic(random.Random(seed), n, prec)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_hkz_matches_reference_small_dimensions(cols):
    assume(mat_det(int_gram(cols)) != 0)
    _check_hkz(int_gram(cols))


@settings(max_examples=40, deadline=None)
@given(uniform_bases(), st.integers(1, 3))
def test_hkz_matches_reference_when_b0_is_shortest(cols, scale):
    # b_0 = scale e_0 in a lattice whose vectors' squared norms are
    # multiples of scale^2: step 0 finds no shorter vector
    cols = [[scale * int(i == 0) for i in range(len(cols[0]))]] + [
        [scale * x for x in c] for c in cols[1:]]
    assume(mat_det(int_gram(cols)) != 0)
    g = int_gram(cols)
    assert shortest_gram(g)[1] == g[0][0]
    _check_hkz(g)
    assert _hkz_int(g).vecs[0] == [int(i == 0) for i in range(len(g))]
