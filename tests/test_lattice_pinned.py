"""Pinned outputs of the reduction layer.

Each case runs one public reduction entry point on a seeded basis and
hashes everything it returns: the basis, the transform and, for the
block reductions, `tours` and `hkz_calls`.  The digests were recorded
from the rational-arithmetic implementation that preceded the integral
LLL/GSO kernel, so they pin the kernel to the exact same bases and
transforms (values, not number types: every entry is hashed as a
reduced fraction).  The HKZ and block-reduction digests once hashed the
per-block potential ledger as well; they were recorded again without it
when the ledger was deleted, from the library as it stood just before.
The same was done for the HKZ digests without `hkz_calls` (always 1)
when `hkz_reduce` lost its trace, and for the minima digests without
the witnesses, covering brackets and generating radius when the
enumeration report was cut to its minima.

The bases: uniform and knapsack integer bases, one basis with rational
entries, and one dyadic big-entry basis shaped like the scaled Minkowski
columns `approx_bkz_ideal` hands to `bkz_full`.
"""

import hashlib
import random
from fractions import Fraction as Q

import pytest

from latnf import bkz, lattice_core
from latnf.qlinalg import gram_matrix, mat_det, transpose


def _canon(x):
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    if x is None or isinstance(x, bool):
        return str(x)
    return str(Q(x))


def _digest(*parts):
    return hashlib.sha256(_canon(list(parts)).encode()).hexdigest()[:16]


def _uniform(rng, n, spread):
    while True:
        cols = [[rng.randrange(-spread, spread + 1) for _ in range(n)]
                for _ in range(n)]
        if mat_det(transpose(cols)) != 0:
            return cols


def _knapsack(rng, n, bits):
    cols = []
    for i in range(n):
        col = [0] * (n + 1)
        col[i] = 1
        col[n] = rng.randrange(1, 2 ** bits)
        cols.append(col)
    return cols


def _rational(rng, n):
    while True:
        cols = [[Q(rng.randrange(-40, 41), rng.randrange(1, 9))
                 for _ in range(n)] for _ in range(n)]
        if mat_det(transpose(cols)) != 0:
            return cols


def _dyadic(rng, n, prec=64):
    """Columns M a_i scaled by 2^prec and rounded, M a dyadic 'embedding'
    matrix with entries in (-3, 3) and a_i small integer coordinates."""
    emb = [[rng.randrange(-3 * 2 ** prec, 3 * 2 ** prec) for _ in range(n)]
           for _ in range(n)]
    coords = _uniform(rng, n, 4)
    return [[sum(emb[r][k] * a[k] for k in range(n)) for r in range(n)]
            for a in coords]


def _bases():
    rng = random.Random("pinned-kernel")
    return {
        "u4": _uniform(rng, 4, 30),
        "u5": _uniform(rng, 5, 60),
        "u6": _uniform(rng, 6, 255),
        "u8": _uniform(rng, 8, 255),
        "k10": _knapsack(rng, 10, 20),
        "k16": _knapsack(rng, 16, 32),
        "q4": _rational(rng, 4),
        "dy4": _dyadic(rng, 4),
        "dy6": _dyadic(rng, 6, 96),
    }


def _lll(cols, delta=Q(3, 4)):
    out, u = lattice_core.lll(cols, delta)
    return _digest(out, u)


def _size_reduce(cols):
    out, u = lattice_core.size_reduce(cols)
    return _digest(out, u)


def _hkz(cols):
    out, u = bkz.hkz_reduce(cols)
    return _digest(out, u)


def _block(fn, cols, b):
    out, tr = fn(cols, bkz.BkzConfig(blocksize=b))
    return _digest(out, tr.tours, tr.hkz_calls, tr.transform)


def _c1(cols):
    out, _ = bkz.bkz_prime(cols, bkz.BkzConfig(blocksize=2, max_tours=1))
    return _digest([bkz.c1_bound_sq_ok(c, b) for c in (cols, out)
                    for b in (2, 3)])


def _minima(cols):
    return _digest(lattice_core.enumerate_minima(cols).minima_sq)


def _shortest(cols):
    vec, norm = lattice_core.shortest_gram(gram_matrix(cols))
    return _digest(vec, norm)


CASES = {
    "lll-u4": (_lll, "u4"),
    "lll-u6": (_lll, "u6"),
    "lll-k10": (_lll, "k10"),
    "lll-k16": (_lll, "k16"),
    "lll-dy6": (_lll, "dy6"),
    "lll-q4": (_lll, "q4"),
    "lll-dy4": (_lll, "dy4"),
    "lll-u6-delta99": (lambda c: _lll(c, Q(99, 100)), "u6"),
    "size_reduce-u5": (_size_reduce, "u5"),
    "size_reduce-q4": (_size_reduce, "q4"),
    "size_reduce-dy4": (_size_reduce, "dy4"),
    "size_reduce-k16": (_size_reduce, "k16"),
    "hkz-u4": (_hkz, "u4"),
    "hkz-u5": (_hkz, "u5"),
    "hkz-q4": (_hkz, "q4"),
    "hkz-dy4": (_hkz, "dy4"),
    "hkz-u8": (_hkz, "u8"),
    "bkz_prime-u5-b2": (lambda c: _block(bkz.bkz_prime, c, 2), "u5"),
    "bkz_prime-u6-b3": (lambda c: _block(bkz.bkz_prime, c, 3), "u6"),
    "bkz_prime-q4-b2": (lambda c: _block(bkz.bkz_prime, c, 2), "q4"),
    "bkz_prime-dy4-b2": (lambda c: _block(bkz.bkz_prime, c, 2), "dy4"),
    "bkz_prime-u8-b3": (lambda c: _block(bkz.bkz_prime, c, 3), "u8"),
    "bkz_full-u6-b3": (lambda c: _block(bkz.bkz_full, c, 3), "u6"),
    "bkz_full-q4-b2": (lambda c: _block(bkz.bkz_full, c, 2), "q4"),
    "bkz_full-dy4-b2": (lambda c: _block(bkz.bkz_full, c, 2), "dy4"),
    "bkz_full-dy6-b3": (lambda c: _block(bkz.bkz_full, c, 3), "dy6"),
    "bkz_full-u8-b4": (lambda c: _block(bkz.bkz_full, c, 4), "u8"),
    "c1-u5": (_c1, "u5"),
    "c1-q4": (_c1, "q4"),
    "c1-dy6": (_c1, "dy6"),
    "c1-k10": (_c1, "k10"),
    "minima-u4": (_minima, "u4"),
    "minima-q4": (_minima, "q4"),
    "shortest-q4": (_shortest, "q4"),
}

PINNED = {
    "c1-dy6": "1a530a3a45f81096",
    "c1-k10": "c917d3a888a0f9af",
    "c1-q4": "1a530a3a45f81096",
    "c1-u5": "1a530a3a45f81096",
    "bkz_full-dy4-b2": "9722807f85db7a25",
    "bkz_full-dy6-b3": "58d2537a1c50ed1d",
    "bkz_full-q4-b2": "7a38f7f3173d6e1e",
    "bkz_full-u6-b3": "fa6236d1bc6086b9",
    "bkz_full-u8-b4": "d800ec65b4483c3a",
    "bkz_prime-dy4-b2": "8f239ed915536575",
    "bkz_prime-q4-b2": "3ac7577c4a5f1351",
    "bkz_prime-u5-b2": "dc204510b465eacf",
    "bkz_prime-u6-b3": "6c0040aee0c8badf",
    "bkz_prime-u8-b3": "350ba37701ee6097",
    "hkz-dy4": "a54656f12897c696",
    "hkz-q4": "abf2bb257f1ec021",
    "hkz-u4": "af33a34ece5114c3",
    "hkz-u5": "334f110f063fe269",
    "hkz-u8": "e434be3f46e0c225",
    "lll-dy4": "23d83f19c72fb27a",
    "lll-dy6": "4e4e4ab0c7b4a59a",
    "lll-k10": "d8899df415b67bc4",
    "lll-k16": "787453c9ead30d80",
    "lll-q4": "89e5744ab73bcf3e",
    "lll-u4": "1a2e790e4cf15d0e",
    "lll-u6": "b8c27fdbdf6e0408",
    "lll-u6-delta99": "b0841efa41724dad",
    "minima-q4": "1053e841ec5dc78e",
    "minima-u4": "09a3d84c44670b08",
    "shortest-q4": "efd5ea4ebf0e9143",
    "size_reduce-dy4": "c03524ff3ced3708",
    "size_reduce-k16": "2a8ac46dbaf25fed",
    "size_reduce-q4": "bf31f72edb23dffb",
    "size_reduce-u5": "a4dd1c5845f0abc8",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned(name):
    fn, key = CASES[name]
    assert fn(_bases()[key]) == PINNED[name]
