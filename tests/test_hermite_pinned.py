"""Pinned outputs of the exact linear algebra over Z.

Each pinned case runs a public entry point whose result passes through
the integer Hermite normal form and hashes what it returns:
`hnf_with_transform` (H and U), `int_kernel`, `express_int_combination`
and `hnf_upper` on seeded integer matrices (rectangular, rank-deficient,
with zero rows), `hnf_inv` and `hnf_mul` on products of prime ideals,
and `smith_normal_form` on seeded matrices and HNF-shaped blocks.  The
digests were recorded from the separate integer eliminations that
preceded the one Hermite kernel (pairwise xgcd for `hnf_upper`, Euclid
by row subtraction for `hnf_with_transform`, and the clearing loops of
the Smith form), so they pin the kernel to the same values.

The property tests compare the kernel's outputs with the row HNF
`oracles.hnf_rows` and the Smith form with `oracles.smith_reference`
(determinantal divisors) on random integer matrices, rank-deficient
ones included.
"""

import functools
import hashlib
import random
import signal
from fractions import Fraction as Q

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import qlinalg
from latnf.ideal_arith import hnf_inv, hnf_mul, primes_up_to
from latnf.nf_core import new_field


def _canon(x):
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    if x is None or isinstance(x, (bool, str)):
        return str(x)
    return str(Q(x))


def _digest(*parts):
    return hashlib.sha256(_canon(list(parts)).encode()).hexdigest()[:16]


def _int_matrices(label, count, max_rows=7, max_cols=6, spread=9):
    """Seeded integer matrices; every third one has a row that is a
    combination of two others, and every third a zero row."""
    rng = random.Random(label)
    out = []
    for k in range(count):
        m = rng.randint(1, max_rows)
        n = rng.randint(1, max_cols)
        rows = [[rng.randint(-spread, spread) for _ in range(n)]
                for _ in range(m)]
        if k % 3 == 1 and m > 2:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        elif k % 3 == 2:
            rows.insert(rng.randint(0, m), [0] * n)
        out.append(rows)
    return out


def _hnf_transform(label):
    out = []
    for rows in _int_matrices(label, 40):
        h, u = qlinalg.hnf_with_transform(rows)
        out.append([h, u])
    return _digest(out)


def _kernels(label):
    return _digest([qlinalg.int_kernel(rows)
                    for rows in _int_matrices(label, 40)])


def _combinations(label):
    rng = random.Random(label + "-targets")
    out = []
    for rows in _int_matrices(label, 40):
        n = len(rows[0])
        inside = [sum(rng.randint(-4, 4) * r[j] for r in rows)
                  for j in range(n)]
        outside = [rng.randint(-20, 20) for _ in range(n)]
        out.append([qlinalg.express_int_combination(rows, inside),
                    qlinalg.express_int_combination(rows, outside)])
    return _digest(out)


def _upper(label):
    """Column HNFs of seeded generator sets, 1 to 4 rows and up to 16
    columns; rank-deficient sets hash as the error."""
    rng = random.Random(label)
    out = []
    for k in range(60):
        n = rng.randint(1, 4)
        cols = [[rng.randint(-12, 12) for _ in range(n)]
                for _ in range(rng.randint(1, 4 * n))]
        if k % 5 == 4:
            cols = [[c[0] * (i + 1) for i in range(n)] for c in cols]
        try:
            out.append(qlinalg.hnf_upper(cols))
        except ValueError as exc:
            out.append(str(exc))
    return _digest(out)


@functools.cache
def _field(poly):
    return new_field(list(poly))


def _ideals(poly, bound):
    """Products of up to three primes of norm <= bound, their inverses
    and the products of each with its inverse."""
    field = _field(poly)
    primes = primes_up_to(field, bound)
    out = []
    for i, p in enumerate(primes):
        a = p.hnf
        for q in primes[i:i + 2]:
            a = hnf_mul(a, q.hnf)
        inv = hnf_inv(a)
        out.append([a.denom, a.hnf, inv.denom, inv.hnf,
                    hnf_mul(a, inv).hnf])
    return _digest(out)


def _smith(label):
    """Invariant factors of seeded matrices small enough that the Smith
    form before the kernel finished them, and of HNF-shaped blocks."""
    out = [qlinalg.smith_normal_form(rows)
           for rows in _int_matrices(label, 40, max_rows=4, max_cols=4,
                                     spread=5)]
    rng = random.Random(label + "-hnf")
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [[0] * i + [rng.randint(1, 12)]
                + [rng.randint(0, 11) for _ in range(n - i - 1)]
                for i in range(n)]
        out.append(qlinalg.smith_normal_form(rows))
    return _digest(out)


CASES = {
    "hnf_with_transform": lambda: _hnf_transform("pinned-hnf"),
    "int_kernel": lambda: _kernels("pinned-kernel"),
    "express_int_combination": lambda: _combinations("pinned-express"),
    "hnf_upper": lambda: _upper("pinned-upper"),
    "ideals-sqrt-5": lambda: _ideals((5, 0, 1), 30),
    "ideals-x3-x+1": lambda: _ideals((1, -1, 0, 1), 20),
    "ideals-zeta5": lambda: _ideals((1, 1, 1, 1, 1), 12),
    "smith_normal_form": lambda: _smith("pinned-smith"),
}

PINNED = {
    "express_int_combination": "fdd3c3c47c23ab22",
    "hnf_upper": "df86c41b0c302f58",
    "hnf_with_transform": "47c375ccf631f576",
    "ideals-sqrt-5": "35007baa66232ec1",
    "ideals-x3-x+1": "94fba79b9afd3c6d",
    "ideals-zeta5": "d7b75c48f1c559ec",
    "int_kernel": "91a07ede4240d76e",
    "smith_normal_form": "5691c87f3dea5f06",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned(name):
    assert CASES[name]() == PINNED[name]


# ---------------------------------------------------------------------------
# The kernel against the references


@st.composite
def int_matrices(draw, max_rows=7, max_cols=6, spread=9):
    """Integer matrices; about one in three gets a row that is a
    combination of two others, or a zero row."""
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    entry = st.integers(-spread, spread)
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m > 2 and draw(st.integers(0, 2)) == 0:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[draw(st.integers(2, m - 1))] = [a * x + b * y for x, y
                                             in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_hnf_with_transform_matches_reference(rows):
    h, u = qlinalg.hnf_with_transform(rows)
    live = [r for r in h if any(r)]
    assert live == oracles.hnf_rows(rows)
    assert all(not any(r) for r in h[len(live):])
    assert qlinalg.mat_mul(u, rows) == h
    assert abs(qlinalg.mat_det(u)) == 1
    kernel = qlinalg.int_kernel(rows)
    assert len(kernel) == len(rows) - len(live)
    assert all(not any(r) for r in qlinalg.mat_mul(kernel, rows))


@settings(max_examples=150, deadline=None)
@given(int_matrices(max_rows=12, max_cols=4, spread=30))
def test_hnf_upper_matches_reference(cols):
    """The column HNF spans the lattice of the columns and has the
    canonical upper-triangular shape; rank-deficient sets raise."""
    n = len(cols[0])
    ref = oracles.hnf_rows(cols)
    if len(ref) < n:
        with pytest.raises(ValueError, match="rank-deficient"):
            qlinalg.hnf_upper(cols)
        return
    h = qlinalg.hnf_upper(cols)
    assert oracles.hnf_rows(h) == ref
    for j, col in enumerate(h):
        assert col[j] > 0 and not any(col[j + 1:])
        assert all(0 <= col[i] < h[i][i] for i in range(j))


@settings(max_examples=150, deadline=None)
@given(int_matrices(max_rows=6, max_cols=5))
def test_smith_matches_determinantal_divisors(rows):
    assert qlinalg.smith_normal_form(rows) == oracles.smith_reference(rows)


def _alarm(signum, frame):
    raise TimeoutError("smith_normal_form still running")


def test_smith_entries_stay_bounded():
    """A 7 x 5 matrix on which the clearing loops the Smith form used
    before the kernel grew entries to 9.7 million bits in 17 passes; the
    alarm turns a hang into a failure."""
    rows = [[-5, 0, -1, 1, -7], [8, -6, 0, 0, -9], [4, -3, -9, 0, -6],
            [-4, -5, 0, -6, 0], [5, -4, -4, 6, -6], [4, 0, 0, -2, 2],
            [-3, -3, 7, -2, 0]]
    handler = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(1)
    try:
        factors = qlinalg.smith_normal_form(rows)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert factors == oracles.smith_reference(rows) == [1, 1, 1, 1, 1]
