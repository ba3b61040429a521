"""Pinned outputs of the exact linear algebra over Q, and property tests
of its one elimination kernel.

Each pinned case runs a public entry point whose result passes through
`qlinalg.mat_det`, `mat_inv`, `solve`, the rank and independence tests
or the Gram-Schmidt data of `lattice_core.IntegralGSO`, and hashes what
it returns: Klein samples on an integer, a dyadic and an 18-dimensional
rational basis and on the 18-dimensional basis of a relation over Q(i)
with S <= 60, the post-processed basis and verification transcript of
two relation sets, dual-reduced and BKZ-reduced ideal bases, exact box
counts (`oracles.count_in_box`, over `mat_inv`), and inverses and norms
over a field given with its own integral basis.  The digests were
recorded from the `Fraction` Gaussian elimination and the rational
Gram-Schmidt that preceded the fraction-free kernel, so they pin it to
the same values (every entry is hashed as a reduced fraction).  The
reduced-ideal digests once hashed each result's dually-reduced tag as
well (always 3 and 6); they were recorded again without it when the tag
was deleted, from the library as it stood just before.  The
`verify-structure` digests hash each verification case without its
dyadic rows `basis_inf`, so they hold when only the last bits of the log
balls move.

The property tests compare the kernel's entries with the `Fraction`
references in `oracles.py` on random rational matrices, singular ones
included, with denominators up to 2^64.
"""

import functools
import hashlib
import math
import random
from fractions import Fraction as Q

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import lattice_core, qlinalg, relations, samplers, sunit_pipeline
from latnf.approx_reduction import approx_bkz_ideal, dual_exp_reduce
from latnf.ideal_arith import HnfIdeal, hnf_mul, primes_up_to
from latnf.nf_core import NumberField
from latnf.relations import FactorBase, SUnitRelation


def _canon(x):
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    if x is None or isinstance(x, (bool, str)):
        return str(x)
    return str(Q(x))


def _digest(*parts):
    return hashlib.sha256(_canon(list(parts)).encode()).hexdigest()[:16]


@functools.cache
def _field(poly, basis=None):
    return NumberField(list(poly), basis and [list(r) for r in basis])


# ---------------------------------------------------------------------------
# Klein's sampler (the d_i and lambda_ij of lattice_core.IntegralGSO)


def _klein_bases():
    rng = random.Random("pinned-klein")
    dyadic = [[Q(rng.randrange(-3 * 2 ** 10, 3 * 2 ** 10), 2 ** 10)
               for _ in range(4)] for _ in range(4)]
    rational = [[Q(rng.randrange(-9, 10), rng.randrange(1, 10))
                 for _ in range(18)] for _ in range(18)]
    for i, col in enumerate(rational):
        col[i] += 12
    return {"int2": [[3, 1], [1, 4]], "dyadic4": dyadic, "rational18": rational}


def _klein(key, seed):
    cols = _klein_bases()[key]
    eps_g = 1 / 100
    width = samplers.klein_min_width(cols, eps_g)
    s = Q(math.ceil(width * 1024) + 1, 1024)
    rng = random.Random(seed)
    center = [Q(rng.randrange(-50, 51), 7) for _ in cols[0]]
    draws = [samplers.klein_sample(cols, s, center, eps_g, rng)
             for _ in range(3)]
    return _digest(draws)


def _klein_relation(seed):
    """Klein on the basis of a relation over Q(i) with S <= 60: a unit
    column per prime of norm <= 60 (17 of them) and e_nu / N for the one
    place, N = `relations.grid_denominator` at omega 1, at the width
    `random_relation` takes for 18 dimensions.  Four draws at the zero
    center it uses, then two at a rational center."""
    field = _field((1, 0, 1))
    k = len(primes_up_to(field, 60))
    dim = k + 1
    cols = [[Q(int(i == j)) for i in range(dim)] for j in range(k)]
    cols.append([Q(0)] * k + [Q(1, relations.grid_denominator(field, 1))])
    sigma = 3 * max(math.sqrt(math.log(dim)), 1.0)
    s = Q(math.ceil(sigma * 2 ** 12), 2 ** 12)
    rng = random.Random(seed)
    draws = [samplers.klein_sample(cols, s, [Q(0)] * dim, 1 / 100, rng)
             for _ in range(4)]
    center = [Q(rng.randrange(-50, 51), 7) for _ in range(dim)]
    draws += [samplers.klein_sample(cols, s, center, 1 / 100, rng)
              for _ in range(2)]
    return _digest(draws)


# ---------------------------------------------------------------------------
# Post-processing and verification of relation sets


def _relation_set(poly, label, extra):
    """|S| + r - 1 + extra distinct small elements whose principal ideals
    factor over the primes of norm <= 10, with input ideal O_K."""
    field = _field(poly)
    fb = FactorBase(primes_up_to(field, 10))
    ok_ring = HnfIdeal.ring_of_integers(field)
    rng = random.Random(label)
    rels, seen = [], set()
    size = field.n_real + field.n_cplx - 1 + len(fb) + extra
    while len(rels) < size:
        coords = [rng.randrange(-12, 13) for _ in range(field.n)]
        if not any(coords) or tuple(coords) in seen:
            continue
        seen.add(tuple(coords))
        alpha = field.element(coords)
        vals = relations.smooth_factor(HnfIdeal.principal(field, alpha), fb)
        if vals is not None:
            rels.append(SUnitRelation(alpha, tuple(vals), tuple(vals),
                                      ok_ring, 1))
    return field, fb, rels


@functools.cache
def _post_and_transcript(poly, label, h, reg):
    field, fb, rels = _relation_set(poly, label, 4)
    # D = h R sqrt(r1 + r2) from the known invariants, as a float
    d_value = (h * reg) * math.sqrt(field.n_real + field.n_cplx)
    post = sunit_pipeline.postprocess(rels, fb, field)
    tr = sunit_pipeline.verify_full(post, field, fb, d_value, rels)
    assert tr.verdict == "verified"
    return post, tr


def _verify(poly, label, h, reg):
    post, tr = _post_and_transcript(poly, label, h, reg)
    return _digest(post.n_matrix, post.basis_val, post.basis_inf, post.rank,
                   tr.class_index, tr.split_ratio, tr.direct_ratio,
                   tr.verdict)


def _verify_structure(poly, label, h, reg):
    """`_verify` without the dyadic rows `basis_inf`: the exact blocks,
    the rank, the class index, both determinant ratios and the verdict,
    which a change in the last bits of the log balls must leave alone."""
    post, tr = _post_and_transcript(poly, label, h, reg)
    return _digest(post.n_matrix, post.basis_val, post.rank, tr.class_index,
                   tr.split_ratio, tr.direct_ratio, tr.verdict)


# ---------------------------------------------------------------------------
# Ideal bases, box counts, field inverses and norms


def _ideal(poly, bound):
    field = _field(poly)
    primes = primes_up_to(field, bound)
    a = primes[0].hnf
    for p in primes[1:3]:
        a = hnf_mul(a, p.hnf)
    return field, a


def _reduced_ideal_bases(poly, bound, x):
    field, a = _ideal(poly, bound)
    x = [Q(v) for v in x]
    der = dual_exp_reduce(x, a)
    bkz = approx_bkz_ideal(x, a, 2)
    return _digest([e.coords for e in der.elements], der.precision_bits,
                   [e.coords for e in bkz.elements], bkz.precision_bits)


def _counts():
    out = []
    for cols, r, shift in (
            ([[1, 0], [0, 1]], 7, None),
            ([[Q(3, 2), Q(1, 3)], [Q(-1, 2), Q(5, 4)]], Q(9, 2),
             [Q(1, 3), Q(-2, 7)]),
            ([[2, 1, 0], [0, 3, 1], [1, 0, 4]], 9, [1, Q(1, 2), 0]),
            ([[5, 1, 0, 0], [1, 4, 1, 0], [0, 1, 3, 1], [0, 0, 1, 6]], 7,
             None)):
        res = oracles.count_in_box(cols, r, shift=shift)
        out.append([res["count"], res["interval"], res["certified"]])
    return _digest(out)


def _inverse_norm():
    field = _field((23, 0, 1), ((1, 0), (Q(1, 2), Q(1, 2))))
    rng = random.Random("pinned-inverse")
    out = []
    for _ in range(12):
        coords = [Q(rng.randrange(-30, 31), rng.randrange(1, 7))
                  for _ in range(2)]
        if not any(coords):
            continue
        e = field.element(coords)
        out.append([e.inverse().coords, e.norm()])
    return _digest(out)


CASES = {
    "klein-int2-s1": lambda: _klein("int2", 1),
    "klein-int2-s2": lambda: _klein("int2", 2),
    "klein-dyadic4-s3": lambda: _klein("dyadic4", 3),
    "klein-dyadic4-s4": lambda: _klein("dyadic4", 4),
    "klein-rational18-s5": lambda: _klein("rational18", 5),
    "klein-relation18-s6": lambda: _klein_relation(6),
    "verify-sqrt-5": lambda: _verify((5, 0, 1), "pinned-qs5", 2, 1.0),
    "verify-sqrt2": lambda: _verify((-2, 0, 1), "pinned-qr2", 1,
                                    math.log(1 + math.sqrt(2))),
    "verify-structure-sqrt-5": lambda: _verify_structure(
        (5, 0, 1), "pinned-qs5", 2, 1.0),
    "verify-structure-sqrt2": lambda: _verify_structure(
        (-2, 0, 1), "pinned-qr2", 1, math.log(1 + math.sqrt(2))),
    "ideal-sqrt-5": lambda: _reduced_ideal_bases((5, 0, 1), 12, [1, 1]),
    "ideal-x3-x+1": lambda: _reduced_ideal_bases((1, -1, 0, 1), 12,
                                                 [1, Q(3, 2), Q(3, 2)]),
    "count_in_box": _counts,
    "inverse-norm-sqrt-23": _inverse_norm,
}

PINNED = {
    "count_in_box": "b1e9d3f71cdafd11",
    "ideal-sqrt-5": "473c12795e149cda",
    "ideal-x3-x+1": "71177f85b474cec9",
    "inverse-norm-sqrt-23": "3a09995d351f7386",
    "klein-dyadic4-s3": "fa6550b7ebb8060e",
    "klein-dyadic4-s4": "4e404d9987f367e4",
    "klein-int2-s1": "0898eac6ceec2564",
    "klein-int2-s2": "724841facc3f8cfb",
    "klein-rational18-s5": "15b480800668797d",
    "klein-relation18-s6": "1ff7db0fca03ce21",
    "verify-sqrt-5": "bee1a649943f7a31",
    "verify-sqrt2": "ad2444f4fee1c3de",
    "verify-structure-sqrt-5": "d8450900555cb030",
    "verify-structure-sqrt2": "70220e918ae3b794",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned(name):
    assert CASES[name]() == PINNED[name]


# ---------------------------------------------------------------------------
# The kernel against the Fraction references

_DEN = 2 ** 64


@st.composite
def rational_matrices(draw, min_size=1, max_size=6, square=True):
    """Rational matrices with denominators up to 2^64; about one in three
    is made singular by repeating a combination of earlier rows."""
    m = draw(st.integers(min_size, max_size))
    n = m if square else draw(st.integers(min_size, max_size))
    den = draw(st.sampled_from([1, 7, 2 ** 20, _DEN]))
    entry = st.builds(Q, st.integers(-_DEN, _DEN), st.integers(1, den))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.integers(1, m - 1)), draw(st.integers(0, m - 1))
        c = draw(entry)
        rows[i] = [c * x for x in rows[j]] if i != j else [0] * n
    return rows


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_det_inv_solve_match_fraction_elimination(m):
    assert qlinalg.mat_det(m) == oracles.mat_det_reference(m)
    rhs = [Q(i * i - 3, i + 2) for i in range(len(m))]
    try:
        ref = oracles.mat_inv_reference(m)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            qlinalg.mat_inv(m)
        with pytest.raises(ZeroDivisionError):
            qlinalg.solve(m, rhs)
        return
    assert qlinalg.mat_inv(m) == ref
    assert qlinalg.solve(m, rhs) == qlinalg.mat_vec(ref, rhs)


def _greedy_independent(rows):
    """The rows kept by a nonzero Gram determinant, one row at a time."""
    chosen, idx = [], []
    for i, r in enumerate(rows):
        cand = chosen + [r]
        if oracles.mat_det_reference(qlinalg.gram_matrix(cand)) != 0:
            chosen.append(r)
            idx.append(i)
    return idx


@settings(max_examples=100, deadline=None)
@given(rational_matrices(square=False))
def test_pivots_match_greedy_gram_filter(rows):
    assert qlinalg.pivots(rows) == _greedy_independent(rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=8))
def test_pivots_integer_rows(rows):
    assert qlinalg.pivots(rows) == _greedy_independent(rows)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(max_size=5))
def test_gso_matches_rational_gram_schmidt(cols):
    try:
        mu, norms, bstar = oracles._gso_mu_norms(cols)
    except ValueError:
        with pytest.raises(ValueError, match="rank-deficient"):
            lattice_core.gso(cols)
        return
    n = len(cols)
    pot2 = math.prod(norms[j] ** (n - j) for j in range(n))
    assert lattice_core.gso(cols) == (bstar, mu, pot2)


def test_integral_cols_scales_integer_entries():
    """Columns mixing int and Fraction entries scale every entry by den:
    an int entry left unscaled would change the lattice."""
    assert qlinalg.integral_cols([[1, Q(1, 2)], [0, 1]]) == ([[2, 1], [0, 2]], 2)
    mixed = [[1, Q(1, 2)], [0, 1]]
    assert (lattice_core.lll(mixed)
            == lattice_core.lll([[Q(x) for x in c] for c in mixed]))
    assert qlinalg.mat_det([[1, Q(1, 2)], [Q(1, 3), 1]]) == Q(5, 6)
